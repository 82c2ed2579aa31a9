#!/usr/bin/env python3
"""Write the outputs of a fixed set of command-line cases into a directory.

    python scripts/same_outputs.py OUT
    python scripts/same_outputs.py --compare OUT1 OUT2

Each case calls `blaschke3d.cli.main` of this checkout in this process, in
OUT and on paths relative to it, one case after another in the listed
order, and leaves its stdout, stderr and exit code in OUT/<case>.out, .err
and .code, next to the OFF file it writes, if any.  Its inputs, the
shipped .her files and those the script makes, are in OUT/in.  The tree of
`python scripts/same_outputs.py tests/outputs` is the suite's reference,
which `tests/test_same_outputs.py` regenerates and compares.

`--compare OUT1 OUT2` names each file that differs between two such
trees and prints every difference that is not one of reals: a file in one
tree only, a line count, text or an integer (a count, an exit code).  Two
OFF files are read as meshes: each vertex of the first is paired with the
nearest of the second, and each face, a cycle from any start, must be one
of the second's, so the order in which Qhull numbers vertices and faces
is no difference.  Reals, tokens with a point or an exponent and OFF
coordinates, are compared by their difference over the largest |real| of
their file, so a residual at rounding level next to a volume reads at
rounding level; the largest is printed with its file.  It exits 1 on any
difference that is not one of reals.

The cases: `construct --trace` of each .her input (data/*.her, face data
at units of area 1e-300 to 1e307, a box whose areas do not close, a zero
normal) and `report` of the result; on each ordered pair of data/*.her,
`bsum` and `msum` with their `report`, `check bm|ks|sumcmp|monotone`,
`check exponent --a 0.5` and `check ks` of the constructed OFFs; `check
monotone` of each body in its Blaschke double and of extreme-unit face
data, and `check ks` of those; `msum` of two rotated tetrahedra; `fuzz
--trials 40 --seed 7`; `report` of hulls of an icosphere and of a point
cloud at extents 1e-140 to 1e90, of malformed OFFs and of bodies 1e3 to
1e12 from the origin, with `check bm`; and `sphere-check` of cap polygons,
the whole sphere and planar points.
"""
import io
import os
import re
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from blaschke3d import cli  # noqa: E402
from blaschke3d.bodies import (cube_mesh, icosphere_mesh,  # noqa: E402
                               rotated_tetrahedron_pair)
from blaschke3d.fileio import export_off, format_herisson  # noqa: E402
from blaschke3d.geometry import convex_hull  # noqa: E402
from blaschke3d.herisson import blaschke_scale, random_herisson  # noqa: E402

HER = sorted(p.stem for p in (ROOT / "data").glob("*.her"))
EXTENTS = ("1e-140", "1e-100", "1e-20", "0.37", "1", "3", "1e20", "1e90")
FAR = ("1e3", "1e7", "1e12")
UNITS = ("1e-300", "1e-200", "1e180", "5e306", "1e307")
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
    files["bad-flat.txt"] = "1 0\n0 1\n0 0\n"
    for n in HER:
        files[f"{n}.her"] = (ROOT / "data" / f"{n}.her").read_text()
    for s in UNITS:
        files[f"unit-{s}.her"] = format_herisson(
            blaschke_scale(random_herisson(24, 1), float(s)))
    # a box whose +x face has twice its area: 1/7 of the total
    files["box-1e-200.her"] = "6\n1 0 0 2e-200\n" + "".join(
        f"{row} 1e-200\n" for row in ("-1 0 0", "0 1 0", "0 -1 0", "0 0 1",
                                      "0 0 -1"))
    files["bad-zero-normal.her"] = ("4\n0 0 0 1\n1 -1 -1 1\n-1 1 -1 1\n"
                                    "-1 -1 1 1\n")
    for name, mesh in zip("ab", rotated_tetrahedron_pair(1.0)):
        files[f"tetrahedron-{name}.off"] = export_off(mesh)
    for name, text in malformed_offs().items():
        files[f"bad-{name}.off"] = text
    for name, text in files.items():
        (out / "in" / name).write_text(text)
    return files


def run(case, *args):
    """Write the stdout, stderr and exit code (a SystemExit's too) of
    `cli.main(args)` in the working directory to <case>.out, .err, .code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    Path(f"{case}.out").write_text(out.getvalue())
    Path(f"{case}.err").write_text(err.getvalue())
    Path(f"{case}.code").write_text(f"{code}\n")


def off_mesh(text):
    """An OFF text's vertices and faces, or None if it is no OFF."""
    lines = text.splitlines()
    try:
        nv, nf = (int(t) for t in lines[1].split()[:2])
        verts = np.array([x.split() for x in lines[2:2 + nv]], float)
        faces = [[int(t) for t in x.split()[1:]] for x in lines[2 + nv:]]
    except (IndexError, ValueError):
        return None
    fits = all(0 <= i < nv for face in faces for i in face)
    return ((verts.reshape(nv, 3), faces) if lines[0] == "OFF" and fits
            and verts.size == 3 * nv and len(faces) == nf else None)


def cycle(face):
    """A face from its least vertex, so one read from any start is one."""
    k = face.index(min(face))
    return tuple(face[k:] + face[:k])


def mesh_differences(a, b):
    """Print how two OFF meshes differ once each vertex of a is paired with
    the nearest of b; return the largest coordinate difference of a pair
    over the largest |coordinate| and the number of other differences: the
    counts, a pairing that is not one to one, the faces of a that b lacks."""
    (va, fa), (vb, fb) = a, b
    if va.shape != vb.shape or len(fa) != len(fb) or not len(va):
        print(f"  {len(va)} vertices, {len(fa)} faces against {len(vb)}, "
              f"{len(fb)}")
        return 0.0, 1
    size = max(np.abs(va).max(), np.abs(vb).max()) or 1.0
    ua, ub = va / size, vb / size
    near = np.argmin(((ua[:, None] - ub[None]) ** 2).sum(axis=2),
                     axis=1).tolist()
    if len(set(near)) < len(near):
        print("  the vertices pair up not one to one")
        return 0.0, 1
    lacks = Counter(cycle([near[i] for i in f]) for f in fa) - Counter(
        cycle(f) for f in fb)
    for face in lacks:
        print(f"  a face of the first, as the second numbers it: {face}")
    return float(np.abs(ua - ub[near]).max()), sum(lacks.values())


def line_differences(la, lb):
    """Print how two texts of one line count differ, line by line; return
    the largest difference between reals, tokens with a point or an
    exponent, over the largest |real| of the two texts and the number of
    other differences: text or an integer (a count, an exit code)."""
    pairs = [(NUMBER.split(x), NUMBER.split(y)) for x, y in zip(la, lb)]
    size = max((abs(float(t)) for sx, sy in pairs for t in sx[1::2] + sy[1::2]
                if not INTEGER.fullmatch(t)), default=0.0)
    worst, other = 0.0, 0
    for n, (sx, sy) in enumerate(pairs, start=1):
        if len(sx) != len(sy):
            print(f"  line {n}: {''.join(sx)!r} != {''.join(sy)!r}")
            other += 1
            continue
        for k, (u, v) in enumerate(zip(sx, sy)):
            if u == v:
                continue
            if k % 2 == 0 or INTEGER.fullmatch(u) and INTEGER.fullmatch(v):
                print(f"  line {n}: {u!r} != {v!r}")
                other += 1
            elif float(u) != float(v):  # 0.0 and -0.0 differ by 0
                worst = max(worst, abs(float(u) - float(v)) / size)
    return worst, other


def compare(a, b):
    """Print how the trees a and b differ and the largest difference
    between their reals, each over the largest |real| of its file; return
    that difference (0 if no real differs) and the number of differences
    other than in reals."""
    names = sorted({p.relative_to(root) for root in (a, b)
                    for p in root.rglob("*") if p.is_file()})
    other, worst, where = 0, 0.0, None
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
        ta, tb = ta.decode(errors="replace"), tb.decode(errors="replace")
        la, lb = ta.splitlines(), tb.splitlines()
        ma, mb = off_mesh(ta), off_mesh(tb)
        if ma and mb:
            rel, count = mesh_differences(ma, mb)
        elif len(la) != len(lb):
            print(f"  {len(la)} lines against {len(lb)}")
            rel, count = 0.0, 1
        else:
            rel, count = line_differences(la, lb)
        other += count
        if rel > worst:
            worst, where = rel, name
    if where is None:
        print("no real differs")
    else:
        print(f"largest relative difference between reals: {worst:.3g} "
              f"in {where}")
    print(f"differences other than in reals: {other}")
    return worst, other


def cases(inputs):
    """Every (case, *arguments), each after the cases whose files it reads."""
    her = {n: f"in/{n}.her" for n in HER}
    todo = []
    for name in inputs:
        path, stem = f"in/{name}", name.rsplit(".", 1)[0]
        if name.endswith(".her"):
            todo += [(f"construct-{stem}", "construct", path, "-o",
                      f"construct-{stem}.off", "--trace"),
                     (f"report-construct-{stem}", "report",
                      f"construct-{stem}.off")]
        elif name.endswith(".off"):
            todo.append((f"report-{stem}", "report", path))
        elif name.endswith(".txt"):
            todo += [(f"sphere-check-{stem}-{r}", "sphere-check", path,
                      "--refine", str(r)) for r in (1, 3)]
    for a, b in product(HER, repeat=2):
        pa, pb = her[a], her[b]
        todo += [(f"bsum-{a}-{b}", "bsum", pa, pb, "-o", f"bsum-{a}-{b}.off"),
                 (f"report-bsum-{a}-{b}", "report", f"bsum-{a}-{b}.off"),
                 (f"msum-{a}-{b}", "msum", pa, pb, "-o", f"msum-{a}-{b}.off"),
                 (f"report-msum-{a}-{b}", "report", f"msum-{a}-{b}.off"),
                 (f"check-exponent-{a}-{b}", "check", "exponent", pa, pb,
                  "--a", "0.5"),
                 (f"check-ks-off-{a}-{b}", "check", "ks",
                  f"construct-{a}.off", f"construct-{b}.off")]
        todo += [(f"check-{k}-{a}-{b}", "check", k, pa, pb) for k in CHECKS]
    todo += [(f"check-monotone-double-{n}", "check", "monotone", her[n],
              f"bsum-{n}-{n}.off") for n in HER]
    for k, a, b in (("monotone", "1e307", "5e306"), ("ks", "1e-300", "1e-300"),
                    ("ks", "1e307", "5e306")):
        todo.append((f"check-{k}-unit-{a}-unit-{b}", "check", k,
                     f"in/unit-{a}.her", f"in/unit-{b}.her"))
    todo += [("msum-tetrahedra", "msum", "in/tetrahedron-a.off",
              "in/tetrahedron-b.off", "-o", "msum-tetrahedra.off"),
             ("report-msum-tetrahedra", "report", "msum-tetrahedra.off"),
             ("fuzz", "fuzz", "--trials", "40", "--seed", "7")]
    todo += [(f"check-bm-far-{d}", "check", "bm", f"in/far-{d}.off",
              f"in/far-{d}.off") for d in FAR]
    return todo


def write_outputs(out):
    """Write the inputs and the cases' outputs into out; return the count."""
    out = Path(out).resolve()
    todo = cases(make_inputs(out))
    home = os.getcwd()
    os.chdir(out)
    try:
        for case in todo:
            run(*case)
    finally:
        os.chdir(home)
    return len(todo)


def main(argv):
    if len(argv) == 4 and argv[1] == "--compare":
        sys.exit(1 if compare(Path(argv[2]), Path(argv[3]))[1] else 0)
    if len(argv) != 2:
        sys.exit(f"usage: {argv[0]} OUT | --compare OUT1 OUT2")
    print(f"{write_outputs(argv[1])} cases written to {argv[1]}")


if __name__ == "__main__":
    main(sys.argv)
