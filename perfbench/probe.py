"""Fixed-input measurements that do not depend on the workload seed.

`layer_probe` times single layer functions (median of repeated calls),
`cold_start_probe` times fresh interpreters, and `tour` runs every CLI
subcommand once in-process, so a traced run touches every layer whichever
workload it measures.
"""
from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import time

import numpy as np

import blaschke3d as b3
from blaschke3d import bodies, cli

PROBE_SEED = 20050201

# (faces, repeats) for the intersection probe; k=96 costs about 0.5 s a call
INTERSECT_SIZES = ((12, 21), (48, 7), (96, 3))


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def circumscribed(k, seed):
    """Support polyhedron whose k planes are tangent to a seeded ellipsoid.

    Every plane touches the ellipsoid inside all the others, so all k faces
    are present, and the support numbers are the converged solution for the
    polyhedron's own face data."""
    herisson = b3.random_herisson(k, seed)
    axes = np.diag(np.random.default_rng(seed).uniform(0.6, 1.6, 3)) ** 2
    h = np.sqrt(np.einsum("ij,jk,ik->i", herisson.directions, axes,
                          herisson.directions))
    return b3.SupportPolyhedron(herisson.directions, h)


def layer_probe():
    out = {}
    for k, repeats in INTERSECT_SIZES:
        sp = circumscribed(k, PROBE_SEED + k)
        mesh = b3.intersect_halfspaces(sp)
        if mesh.face_count != k:
            raise RuntimeError(f"probe body at k={k} lost a face")
        out[f"geometry.intersect_ms.k{k}"] = (
            1e3 * _median_time(lambda: b3.intersect_halfspaces(sp), repeats),
            "ms")
        if k == 48:
            out["solver.jacobian_probe_ms.k48"] = (
                1e3 * _median_time(lambda: b3.area_jacobian(mesh), 21), "ms")
    sphere = bodies.icosphere_mesh(3)
    out["geometry.volume_probe_ms"] = (
        1e3 * _median_time(lambda: b3.volume(sphere), 11), "ms")
    poly = b3.SphericalPolygon(np.array([[1.0, 0, 0], [0, 1.0, 0],
                                         [0, 0, 1.0]]))
    out["spherical.residual.self_s"] = (
        _median_time(lambda: b3.spherical_identity_residual(poly, 6), 3), "s")
    return out


def _run(argv, env):
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: "
                           f"{proc.stderr[-500:]}")
    return elapsed, proc.stderr


def _scipy_optimize_import_s(stderr):
    """Cumulative `-X importtime` figure of scipy.optimize, 0 if absent."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.optimize":
            return int(parts[1]) / 1e6
    return 0.0


def cold_start_probe(env):
    py = sys.executable
    interp = [_run([py, "-c", "pass"], env)[0] for _ in range(5)]
    imports = [_run([py, "-c", "import blaschke3d"], env)[0]
               for _ in range(3)]
    optimize = [_scipy_optimize_import_s(
        _run([py, "-X", "importtime", "-c", "import blaschke3d"], env)[1])
        for _ in range(3)]
    return {"cli.interpreter_s": (statistics.median(interp), "s"),
            "cli.import_s": (statistics.median(imports), "s"),
            "cli.import.scipy_optimize_s": (statistics.median(optimize), "s")}


def tour(tracer, files):
    """Run each CLI subcommand once in-process under `tracer`; `files` is a
    `workloads.CliInputs`.  Returns the commands that did not exit 0."""
    extra = [("check_monotone", ["check", "monotone", files.small_her,
                                 files.big_her]),
             ("fuzz", ["fuzz", "--trials", "1", "--seed", "7"])]
    failed = []
    for name, argv in list(files.commands.items()) + extra:
        span = tracer.begin(f"cli.{name}", op=-1)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception as exc:  # a crash is reported like a bad exit
            tracer.end(span, exc)
            code = repr(exc)
        else:
            tracer.end(span)
        if code != 0:
            failed.append(f"{name}: {code}")
    return failed
