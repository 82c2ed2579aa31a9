"""Command line surface.

Subcommands: `construct` reconstructs a body from face data, `bsum`/`msum`
add bodies, `check` evaluates one inequality, `fuzz` runs a seeded campaign,
`report` measures a mesh, `sphere-check` verifies the spherical identity.
Machine-readable output is strict JSON with sorted keys, byte-stable across
runs; a value that is not finite is an error, never a NaN in the output.

Exit codes: 0 success (including expected a < 1 failures), 1 parse or
validation error, 2 an inequality check failed, 3 unexpected fuzz failure,
141 (128 + SIGPIPE) stdout was a pipe whose reader had gone.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .errors import NewtonDivergence, StepSizeUnderflow, ToolkitError
from .geometry import (_area_norms, integral_mean_curvature,
                       vector_area_residual, volume)
from .inequalities import (FuzzConfig, _Pair, brunn_minkowski_check,
                           exponent_check, fuzz_campaign, kneser_suss_check,
                           monotonicity_check, sum_comparison_check)
from .solver import ContinuationConfig, continuation_solve
from .spherical import spherical_identity_residual
from .sums import blaschke_sum_bodies, minkowski_sum


def _dump(obj):
    print(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False))


def _load_input(path):
    """The face data of a .her file or the mesh of an OFF file."""
    text = Path(path).read_text()
    if Path(path).suffix.lower() == ".her":
        return fileio.parse_herisson_file(text)
    return fileio.import_off(text)


def _dump_trace(trace):
    _dump(dataclasses.asdict(trace))


def _cmd_construct(args):
    herisson = fileio.parse_herisson_file(Path(args.input).read_text())
    try:
        _, mesh, trace = continuation_solve(
            herisson, ContinuationConfig(newton_tol=args.tol))
    except (StepSizeUnderflow, NewtonDivergence) as exc:
        if args.trace:
            _dump_trace(exc.trace)
        raise
    Path(args.output).write_text(fileio.export_off(mesh))
    if args.trace:
        _dump_trace(trace)
    return 0


def _cmd_bsum(args):
    body = blaschke_sum_bodies(_load_input(args.a), _load_input(args.b),
                               ContinuationConfig(newton_tol=args.tol))
    Path(args.output).write_text(fileio.export_off(body))
    return 0


def _cmd_msum(args):
    pair = _Pair(_load_input(args.a), _load_input(args.b))
    body = minkowski_sum(pair.p.mesh, pair.q.mesh)
    Path(args.output).write_text(fileio.export_off(body))
    return 0


_CHECKS = {"bm": brunn_minkowski_check, "ks": kneser_suss_check,
           "monotone": monotonicity_check, "sumcmp": sum_comparison_check,
           "exponent": exponent_check}


def _cmd_check(args):
    p, q = _load_input(args.a), _load_input(args.b)
    cfg = ContinuationConfig(newton_tol=args.tol)
    if args.kind == "exponent":
        # both reports; a failure is expected, and exits 0, when a < 1
        rep4, rep5 = exponent_check(p, q, args.a_exp, cfg)
        failed = not (rep4.ok and rep5.ok)
        _dump({"power_minkowski": rep4.to_dict(),
               "power_blaschke": rep5.to_dict(),
               "failure_expected": failed and args.a_exp < 1.0})
        return 2 if failed and args.a_exp >= 1.0 else 0
    report = _CHECKS[args.kind](p, q, cfg)
    _dump(report.to_dict())
    return 0 if report.ok else 2


def _cmd_fuzz(args):
    checks = args.checks.split(",") if args.checks else FuzzConfig.checks
    cfg = FuzzConfig(trials=args.trials, faces_min=args.faces_min,
                     faces_max=args.faces_max, seed=args.seed,
                     checks=tuple(checks), a=args.a_exp,
                     homothetic_pairs=args.homothetic)
    summary = fuzz_campaign(cfg)
    _dump(summary)
    return 3 if summary["unexpected_failures"] else 0


def _cmd_report(args):
    mesh = fileio.import_off(Path(args.mesh).read_text())
    residual = vector_area_residual(mesh)
    v, e = len(mesh.vertices), len(mesh.edges.i)
    f = mesh.face_count
    _dump({
        "volume": volume(mesh),
        "total_area": float(mesh.face_areas.sum()),
        "face_areas": [float(a) for a in np.sort(mesh.face_areas)],
        "integral_mean_curvature": integral_mean_curvature(mesh),
        "vector_area_residual_norm": float(_area_norms(residual)),
        "euler": {"vertices": v, "edges": e, "faces": f,
                  "characteristic": v - e + f, "ok": v - e + f == 2},
    })
    return 0


def _cmd_sphere_check(args):
    poly = fileio.parse_polygon_file(Path(args.polygon).read_text())
    res = spherical_identity_residual(poly, args.refine)
    _dump({"area": poly.area, "residual": [float(x) for x in res],
           "norm": float(np.linalg.norm(res)),
           "refinement": args.refine})
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="blaschke3d",
        description="Convex polyhedra from face normals and areas: "
                    "reconstruction, sums, and volume inequality checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct",
                       help="reconstruct a body from a .her file")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--tol", type=float, default=ContinuationConfig.newton_tol,
                   help="relative area tolerance")
    p.add_argument("--trace", action="store_true",
                   help="print solve diagnostics as JSON")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("bsum", help="Blaschke sum of two bodies")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--tol", type=float, default=ContinuationConfig.newton_tol)
    p.set_defaults(func=_cmd_bsum)

    p = sub.add_parser("msum", help="Minkowski sum of two bodies")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_msum)

    p = sub.add_parser("check", help="evaluate one inequality")
    p.add_argument("kind", choices=list(_CHECKS))
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--a", dest="a_exp", type=float, default=1.0,
                   help="exponent factor for 'exponent'")
    p.add_argument("--tol", type=float, default=ContinuationConfig.newton_tol)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("fuzz", help="seeded random inequality campaign")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--faces-min", type=int, default=6)
    p.add_argument("--faces-max", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checks", help="comma list from bm,ks,thm71,thm75,thm81")
    p.add_argument("--a", dest="a_exp", type=float, default=1.5)
    p.add_argument("--homothetic", action="store_true",
                   help="use scaled copies instead of independent pairs")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("report", help="measure an OFF mesh")
    p.add_argument("mesh")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("sphere-check",
                       help="residual of the spherical identity")
    p.add_argument("polygon")
    p.add_argument("--refine", type=int, default=4)
    p.set_defaults(func=_cmd_sphere_check)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:  # stdout's reader is gone: exit as SIGPIPE would
        # stdout's descriptor now points nowhere, so its unsent bytes and
        # the interpreter's last flush go there without an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ToolkitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
