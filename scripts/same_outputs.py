#!/usr/bin/env python3
"""Write the outputs of a fixed set of command-line cases into a directory.

    python scripts/same_outputs.py OUT
    python scripts/same_outputs.py --compare OUT1 OUT2

Each case runs `python -m blaschke3d.cli` of this checkout in a subprocess,
in OUT and on paths relative to it, and leaves its stdout, stderr and exit
code in OUT/<case>.out, .err and .code, next to the OFF file it writes, if
any.  Its inputs, the shipped .her files and those the script makes, are in
OUT/in.  Run it on two checkouts and compare them with `diff -r OUT1 OUT2`:
a change that keeps every output shows no difference.

`--compare OUT1 OUT2` reads two such trees line by line.  It names each
file that differs and prints every difference that is not one of reals: a
file in one tree only, a line count, text or an integer (a count, a face
index, an exit code).  A face line of an OFF file is read as a cycle, so
one that starts at another vertex is the same face.  Reals, tokens with a
point or an exponent, are compared by their difference over the largest
|number| on the two lines (an OFF writes the real 1.0 as 1), so a
coordinate that is zero up to rounding next to one of size 1 reads at
rounding level; the largest is printed with its file.  It exits 1 on any
difference that is not one of reals.

The cases: `construct --trace` of each data/*.her and `report` of the
result; on each ordered pair of data/*.her, `bsum`, `msum`, `report` of the
`msum`, `check bm|ks|sumcmp|monotone` and `check exponent --a 0.5`; `check
ks` on each ordered pair of the constructed OFFs; `fuzz --trials 40 --seed
7`; `report` of hull OFFs of an icosphere and of a seeded point cloud at
extents 1e-140 to 1e90; `report` and `check bm` of bodies 1e3, 1e7 and 1e12
from the origin; `sphere-check` of seeded cap polygons and of the whole
sphere; and `report` of malformed OFFs.
"""
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from blaschke3d.bodies import cube_mesh, icosphere_mesh  # noqa: E402
from blaschke3d.fileio import export_off  # noqa: E402
from blaschke3d.geometry import convex_hull  # noqa: E402

HER = sorted(p.stem for p in (ROOT / "data").glob("*.her"))
EXTENTS = ("1e-140", "1e-100", "1e-20", "0.37", "1", "3", "1e20", "1e90")
FAR = ("1e3", "1e7", "1e12")
CHECKS = ("bm", "ks", "sumcmp", "monotone")
# split() on it alternates text with numbers: numbers at the odd indices
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
INTEGER = re.compile(r"[-+]?\d+")


def off_text(verts, faces):
    lines = ["OFF", f"{len(verts)} {len(faces)} 0"]
    lines += [" ".join(repr(float(x)) for x in v) for v in verts]
    lines += [" ".join(str(i) for i in [len(f), *f]) for f in faces]
    return "\n".join(lines) + "\n"


def hull_off(points):
    """The OFF text of the points' hull, or the hull's error as text (which
    `report` then refuses as malformed)."""
    try:
        return export_off(convex_hull(points))
    except Exception as exc:  # the case records whatever the hull says
        return f"{type(exc).__name__}: {exc}\n"


def cap_polygon(n, seed):
    """n vertices at 0.8 rad about a seeded centre, counterclockwise."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(3)
    c /= np.linalg.norm(c)
    b1 = np.cross(c, [0.0, 0.0, 1.0])
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(c, b1)
    a = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    pts = np.cos(0.8) * c + np.sin(0.8) * (np.cos(a)[:, None] * b1
                                           + np.sin(a)[:, None] * b2)
    return "".join(" ".join(repr(float(x)) for x in p) + "\n" for p in pts)


def malformed_offs():
    """OFF texts that `import_off` refuses, by name."""
    cube = cube_mesh(1.0)
    count, _, vid = cube.cycles
    v, faces = cube.vertices, [f.tolist()
                               for f in np.split(vid, np.cumsum(count)[:-1])]
    a, b = faces[2][:2]
    pulled = v.copy()
    pulled[faces[1][0]] *= 0.5
    tet = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float)
    fan = np.array([[0, 0, 0], [0, 0, 1], [1, 0, 0], [1, 0, 1], [0, 1, 0],
                    [0, 1, 1], [1, 1, 0], [1, 1, 1], [0.5, 0.5, 1 + 1e-12]])
    square = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float)
    return {
        "clockwise": off_text(tet, [[0, 2, 1], [0, 1, 3], [2, 3, 0],
                                    [1, 2, 3]]),
        "short-face": off_text(v, faces[:4] + [faces[4][:2]] + faces[5:]),
        "open": off_text(v, faces[:2]),
        "interior-vertex": off_text(fan, [
            [5, 4, 0, 1], [5, 1, 8], [2, 3, 1, 0], [3, 8, 1], [6, 2, 0, 4],
            [7, 5, 8], [7, 6, 4, 5], [7, 8, 3], [6, 7, 3, 2]]),
        "non-convex": off_text(pulled, faces),
        "degenerate-face": off_text(np.vstack([v, 0.5 * (v[a] + v[b])]),
                                    faces[:2] + [[a, 8, b]] + faces[3:]),
        "three-points": off_text(tet[:3], [[0, 1, 2], [0, 2, 1]]),
        "flat": off_text(square, [[0, 1, 2, 3], [3, 2, 1, 0]]),
        "extent-1e-160": off_text(v * 1e-160, faces),
        "extent-1e160": off_text(v * 1e160, faces),
        "extent-1e308": off_text(v * 1e308, faces),
    }


def make_inputs(out):
    """Write the inputs, the shipped .her files among them, to out/in and
    return their names."""
    (out / "in").mkdir(parents=True, exist_ok=True)
    files = {}
    ico = icosphere_mesh(2).vertices
    cloud = np.random.default_rng(300).standard_normal((300, 3)) * [1, .6, .3]
    for s in EXTENTS:
        files[f"ico-{s}.off"] = hull_off(ico * float(s))
        files[f"cloud-{s}.off"] = hull_off(cloud * float(s))
    for d in FAR:
        shift = float(d) * np.array([1.0, -0.7, 0.3])
        files[f"far-{d}.off"] = export_off(icosphere_mesh(2).translate(shift))
    for n in (3, 5, 12, 100):
        files[f"cap-{n}.txt"] = cap_polygon(n, seed=n)
    files["sphere.txt"] = ""
    for n in HER:
        files[f"{n}.her"] = (ROOT / "data" / f"{n}.her").read_text()
    for name, text in malformed_offs().items():
        files[f"bad-{name}.off"] = text
    for name, text in files.items():
        (out / "in" / name).write_text(text)
    return files


def run(out, case, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    res = subprocess.run([sys.executable, "-m", "blaschke3d.cli", *args],
                         cwd=out, env=env, capture_output=True)
    (out / f"{case}.out").write_bytes(res.stdout)
    (out / f"{case}.err").write_bytes(res.stderr)
    (out / f"{case}.code").write_text(f"{res.returncode}\n")


def off_faces(lines):
    """The indices of an OFF text's face lines, none if it is no OFF."""
    try:
        nv, nf = (int(t) for t in lines[1].split()[:2])
    except (IndexError, ValueError):
        return range(0)
    return range(2 + nv, 2 + nv + nf) if lines[0] == "OFF" else range(0)


def same_cycle(x, y):
    """Whether two OFF face lines give one cycle, from any start."""
    u, v = x.split(), y.split()
    ring = u[1:]
    return len(u) == len(v) > 1 and u[0] == v[0] and any(
        ring[k:] + ring[:k] == v[1:] for k in range(len(ring)))


def compare(a, b):
    """Print how the trees a and b differ and the largest difference
    between their reals, relative to their lines; return 1 if they differ
    in anything but reals, else 0."""
    names = sorted({p.relative_to(root) for root in (a, b)
                    for p in root.rglob("*") if p.is_file()})
    other, worst = 0, (-1.0, None, None, None)
    for name in names:
        fa, fb = a / name, b / name
        if not (fa.is_file() and fb.is_file()):
            print(f"only in {a if fa.is_file() else b}: {name}")
            other += 1
            continue
        ta, tb = fa.read_bytes(), fb.read_bytes()
        if ta == tb:
            continue
        print(f"differs: {name}")
        la = ta.decode(errors="replace").splitlines()
        lb = tb.decode(errors="replace").splitlines()
        if len(la) != len(lb):
            print(f"  {len(la)} lines against {len(lb)}")
            other += 1
            continue
        faces = off_faces(la) if name.suffix == ".off" else range(0)
        for n, (x, y) in enumerate(zip(la, lb), start=1):
            if n - 1 in faces and same_cycle(x, y):
                continue
            sx, sy = NUMBER.split(x), NUMBER.split(y)
            if len(sx) != len(sy):
                print(f"  line {n}: {x!r} != {y!r}")
                other += 1
                continue
            size = max((abs(float(t)) for t in sx[1::2] + sy[1::2]),
                       default=0.0)
            for k, (u, v) in enumerate(zip(sx, sy)):
                if u == v:
                    continue
                if k % 2 == 0 or INTEGER.fullmatch(u) and INTEGER.fullmatch(v):
                    print(f"  line {n}: {u!r} != {v!r}")
                    other += 1
                    continue
                fu, fv = float(u), float(v)  # 0.0 and -0.0 differ by 0
                rel = abs(fu - fv) / size if fu != fv else 0.0
                if rel > worst[0]:
                    worst = (rel, name, u, v)
    rel, name, u, v = worst
    if name is None:
        print("no real differs")
    else:
        print(f"largest relative difference between reals: {rel:.3g} "
              f"in {name} ({u} against {v})")
    print(f"differences other than in reals: {other}")
    return 1 if other else 0


def main(argv):
    if len(argv) == 4 and argv[1] == "--compare":
        sys.exit(compare(Path(argv[2]), Path(argv[3])))
    if len(argv) != 2:
        sys.exit(f"usage: {argv[0]} OUT | --compare OUT1 OUT2")
    out = Path(argv[1]).resolve()
    inputs = make_inputs(out)
    her = {n: f"in/{n}.her" for n in HER}
    first = [(f"construct-{n}", "construct", her[n], "-o",
              f"construct-{n}.off", "--trace") for n in HER]
    then = [(f"report-construct-{n}", "report", f"construct-{n}.off")
            for n in HER]
    for a, b in product(HER, repeat=2):
        pa, pb = her[a], her[b]
        first += [(f"bsum-{a}-{b}", "bsum", pa, pb, "-o", f"bsum-{a}-{b}.off"),
                  (f"msum-{a}-{b}", "msum", pa, pb, "-o", f"msum-{a}-{b}.off"),
                  (f"check-exponent-{a}-{b}", "check", "exponent", pa, pb,
                   "--a", "0.5")]
        first += [(f"check-{k}-{a}-{b}", "check", k, pa, pb) for k in CHECKS]
        then += [(f"report-msum-{a}-{b}", "report", f"msum-{a}-{b}.off"),
                 (f"check-ks-off-{a}-{b}", "check", "ks",
                  f"construct-{a}.off", f"construct-{b}.off")]
    first.append(("fuzz", "fuzz", "--trials", "40", "--seed", "7"))
    for name in inputs:
        path = f"in/{name}"
        if name.endswith(".off"):
            first.append((f"report-{name[:-4]}", "report", path))
        elif name.endswith(".txt"):
            first += [(f"sphere-check-{name[:-4]}-{r}", "sphere-check", path,
                       "--refine", str(r)) for r in (1, 3)]
    first += [(f"check-bm-far-{d}", "check", "bm", f"in/far-{d}.off",
               f"in/far-{d}.off") for d in FAR]
    workers = min(4, len(os.sched_getaffinity(0)))
    with ThreadPoolExecutor(workers) as pool:
        for cases in (first, then):
            list(pool.map(lambda case: run(out, *case), cases))
    print(f"{len(first) + len(then)} cases written to {out}")


if __name__ == "__main__":
    main(sys.argv)
