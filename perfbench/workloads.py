"""The four workloads: seeded inputs, one timed unit of work, its check.

A workload builds its inputs from the seed in `__init__` (this is what
`setup_s` times), `run(i)` does unit i (timed), and `check(i, result)`
returns how many of the unit's `size(i)` operations failed, outside the
timed region.  Units run in whole cycles of `cycle`, so every run measures
the same mix of input sizes whatever its seed.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import blaschke3d as b3
from blaschke3d import bodies, fileio


def _rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def _random_body(rng, points):
    """Randomly rotated, anisotropically scaled copy of a point body."""
    scale = np.diag(rng.uniform(0.5, 2.0, 3))
    return b3.convex_hull(points @ scale @ _rotation(rng).T)


class Fuzz:
    """`fuzz_campaign` batches of the acceptance suite's configuration;
    one operation is one trial."""

    cycle = 1
    BATCH = 10

    def __init__(self, seed, workdir):
        self.seed = seed

    def size(self, i):
        return self.BATCH

    def run(self, i):
        return b3.fuzz_campaign(b3.FuzzConfig(
            trials=self.BATCH, faces_min=6, faces_max=12,
            seed=self.seed * 10007 + i))

    def check(self, i, summary):
        if summary["trials"] != self.BATCH:
            return self.BATCH
        bad = set()
        for name, entry in summary["checks"].items():
            if entry["holds"] + entry["equality"] + entry["fails"] \
                    != self.BATCH:
                return self.BATCH
            if name in summary["unexpected_failures"]:
                bad.update(entry["failure_seeds"])
        failed = len(bad) + summary["ks_equality_mismatches"]
        if summary["unexpected_failures"] and not failed:
            failed = self.BATCH
        return min(failed, self.BATCH)


class LargeK:
    """`continuation_solve` on random k=48 herissons; one operation is one
    solve."""

    cycle = 1
    K = 48
    POOL = 16

    def __init__(self, seed, workdir):
        self.pool = [b3.random_herisson(self.K, seed * 10007 + j)
                     for j in range(self.POOL)]
        self.cfg = b3.ContinuationConfig()

    def size(self, i):
        return 1

    def run(self, i):
        return b3.continuation_solve(self.pool[i % self.POOL], self.cfg)

    def check(self, i, result):
        target = self.pool[i % self.POOL]
        mesh = result[1]
        resid = np.abs(mesh.face_areas - target.areas).max() \
            / target.areas.max()
        b3.validate_mesh(mesh)
        return int(not (resid <= self.cfg.newton_tol
                        and mesh.face_count == target.k))


class Msum:
    """Minkowski sums of rotated, scaled icospheres (42 to 642 vertices),
    each followed by the measurements and checks a user would run; one
    operation is one pair."""

    # at most ~27k pairwise sums per hull: larger clouds make the workload
    # bound by memory bandwidth, which neighbours on a shared host disturb
    DEPTHS = ((1, 2), (2, 2), (1, 3))
    cycle = len(DEPTHS)
    POOL = len(DEPTHS)

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        spheres = {d: bodies.icosphere_mesh(d).vertices for d in (1, 2, 3)}
        self.pairs = []
        for j in range(self.POOL):
            dp, dq = self.DEPTHS[j % self.cycle]
            p = _random_body(rng, spheres[dp])
            q = _random_body(rng, spheres[dq])
            self.pairs.append((p, q, b3.integral_mean_curvature(p)
                               + b3.integral_mean_curvature(q)))

    def size(self, i):
        return 1

    def run(self, i):
        p, q, _ = self.pairs[i % self.POOL]
        total = b3.minkowski_sum(p, q)
        return (b3.volume(total), b3.integral_mean_curvature(total),
                b3.brunn_minkowski_check(p, q),
                b3.contains_by_translation(total, p))

    def check(self, i, result):
        vol, imc, bm, fit = result
        # integral mean curvature adds under Minkowski addition
        additive = abs(imc - self.pairs[i % self.POOL][2]) <= 1e-7 * imc
        return int(not (vol > 0 and additive and bm.verdict != "fails"
                        and fit.contained))


class CliInputs:
    """Input files for the CLI commands, written under `workdir`."""

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        d = Path(workdir)
        self.dir = d

        def put(name, text):
            (d / name).write_text(text)
            return str(d / name)

        self.grunbaum = bodies.grunbaum_herisson()
        her = {n: put(f"{n}.her", fileio.format_herisson(h)) for n, h in (
            ("grunbaum", self.grunbaum),
            ("dodecahedron", bodies.dodecahedron_herisson()),
            ("icosahedron", bodies.icosahedron_herisson()))}
        self.small_her = put("small.her", fileio.format_herisson(
            bodies.box_herisson((1.0, 1.0, 1.0))))
        self.big_her = put("big.her", fileio.format_herisson(
            bodies.box_herisson((1.5, 2.0, 1.2))))
        sphere2 = bodies.icosphere_mesh(2).vertices
        sphere3 = bodies.icosphere_mesh(3).vertices
        self.msum_a = _random_body(rng, sphere2)
        self.msum_b = _random_body(rng, sphere2)
        self.report_body = _random_body(rng, sphere3)
        # two fixed 10-face polytopes (the Kneser-Suss Blaschke sum has
        # k=20), seeded only in orientation and scale, so the command's cost
        # does not depend on the seed
        base = np.random.default_rng(8).standard_normal((2, 8, 3))
        ks_p = _random_body(rng, base[0])
        ks_q = _random_body(rng, base[1])
        off = {n: put(f"{n}.off", fileio.export_off(m)) for n, m in (
            ("a", self.msum_a), ("b", self.msum_b), ("r", self.report_body),
            ("p", ks_p), ("q", ks_q))}
        centre = rng.standard_normal(3)
        centre /= np.linalg.norm(centre)
        u = np.cross(centre, rng.standard_normal(3))
        u /= np.linalg.norm(u)
        v = np.cross(centre, u)
        angles = (np.arange(5) + rng.uniform(-0.3, 0.3, 5)) * (2 * np.pi / 5)
        ring = [np.cos(0.6) * centre + np.sin(0.6)
                * (np.cos(a) * u + np.sin(a) * v) for a in angles]
        domain = put("domain.txt", "".join(
            " ".join(repr(float(x)) for x in p) + "\n" for p in ring))
        self.out = {n: str(d / f"{n}.out.off")
                    for n in ("construct", "bsum", "msum")}
        self.commands = {
            "construct": ["construct", her["grunbaum"], "-o",
                          self.out["construct"], "--trace"],
            "bsum": ["bsum", her["dodecahedron"], her["icosahedron"], "-o",
                     self.out["bsum"]],
            "msum": ["msum", off["a"], off["b"], "-o", self.out["msum"]],
            "report": ["report", off["r"]],
            "check_ks": ["check", "ks", off["p"], off["q"]],
            "sphere_check": ["sphere-check", domain, "--refine", "6"],
        }


class Cli:
    """Cold-start `python -m blaschke3d.cli` subprocesses, one at a time;
    one operation is one command."""

    cycle = 6

    def __init__(self, seed, workdir):
        self.files = CliInputs(seed, workdir)
        self.names = list(self.files.commands)
        self.volumes = {"a": b3.volume(self.files.msum_a),
                        "b": b3.volume(self.files.msum_b),
                        "r": b3.volume(self.files.report_body)}
        self.tracer = None
        self.child_cpu = 0.0
        self.child_rss_mb = 0.0

    def size(self, i):
        return 1

    def run(self, i):
        name = self.names[i % self.cycle]
        argv = self.files.commands[name]
        env = dict(os.environ)
        spans = self.files.dir / "child-spans.json"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "blaschke3d.cli", *argv]
        else:
            spans.unlink(missing_ok=True)
            env["PERFBENCH_SPANS"] = str(spans)
            cmd = [sys.executable, str(Path(__file__).with_name(
                "traced_cli.py")), name, *argv]
        code, out, err, rusage = run_child(cmd, env, self.files.dir)
        self.child_cpu += rusage.ru_utime + rusage.ru_stime
        self.child_rss_mb = max(self.child_rss_mb, rusage.ru_maxrss / 1024)
        if self.tracer is not None and spans.exists():
            self.tracer.adopt(json.loads(spans.read_text())["spans"],
                              self.tracer.current)
        return name, code, out, err

    def check(self, i, result):
        name, code, out, err = result
        if code != 0:
            print(f"cli {name} exited {code}: {err[-300:]}", file=sys.stderr)
            return 1
        files = self.files
        if name == "construct":
            trace = json.loads(out)
            mesh = fileio.import_off(Path(files.out["construct"]).read_text())
            target = files.grunbaum
            face = np.argmax(target.directions @ mesh.face_normals.T, axis=1)
            error = np.abs(mesh.face_areas[face] - target.areas).max() \
                / target.areas.max()
            ok = (trace["final_residual"] <= 1e-9 and error <= 1e-9
                  and mesh.face_count == target.k)
        elif name == "bsum":
            mesh = fileio.import_off(Path(files.out["bsum"]).read_text())
            ok = mesh.face_count == 32
        elif name == "msum":
            mesh = fileio.import_off(Path(files.out["msum"]).read_text())
            ok = b3.volume(mesh) ** (1 / 3) >= (1 - 1e-9) * (
                self.volumes["a"] ** (1 / 3) + self.volumes["b"] ** (1 / 3))
        elif name == "report":
            rep = json.loads(out)
            ok = rep["euler"]["ok"] and abs(
                rep["volume"] - self.volumes["r"]) <= 1e-9 * rep["volume"]
        elif name == "check_ks":
            ok = json.loads(out)["verdict"] in ("holds", "equality")
        else:
            rep = json.loads(out)
            ok = rep["refinement"] == 6 and rep["norm"] <= 1e-6
        return int(not ok)


def run_child(cmd, env, workdir, timeout=120.0):
    """Run a child to completion and reap it with `os.wait4`, so its own
    CPU time and peak RSS are known.  Output goes through files, so no pipe
    can fill up.  Returns (code, stdout, stderr, rusage)."""
    out_path = Path(workdir) / "child.stdout"
    err_path = Path(workdir) / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(), err_path.read_text(),
            rusage)


WORKLOADS = {"fuzz": Fuzz, "large-k": LargeK, "msum": Msum, "cli": Cli}
