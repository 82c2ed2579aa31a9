"""Command line surface.

Subcommands: `construct` reconstructs a body from face data, `bsum`/`msum`
add bodies, `check` evaluates one inequality, `fuzz` runs a seeded campaign,
`report` measures a mesh, `sphere-check` verifies the spherical identity.
Machine-readable output is JSON with sorted keys, byte-stable across runs.

Exit codes: 0 success (including expected a < 1 failures), 1 parse or
validation error, 2 an inequality check failed, 3 unexpected fuzz failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .errors import NewtonDivergence, StepSizeUnderflow, ToolkitError
from .geometry import (integral_mean_curvature, vector_area_residual, volume)
from .inequalities import (FuzzConfig, _Body, brunn_minkowski_check,
                           exponent_check, fuzz_campaign, kneser_suss_check,
                           monotonicity_check, sum_comparison_check)
from .solver import ContinuationConfig, continuation_solve
from .sums import blaschke_sum_bodies, minkowski_sum


def _dump(obj):
    print(json.dumps(obj, sort_keys=True, indent=2))


def _solver_config(args):
    kw = {}
    if getattr(args, "dt", None) is not None:
        kw["dt_initial"] = args.dt
    if getattr(args, "tol", None) is not None:
        kw["newton_tol"] = args.tol
    return ContinuationConfig(**kw)


def _load_input(path):
    """The face data of a .her file or the mesh of an OFF file."""
    text = Path(path).read_text()
    if Path(path).suffix.lower() == ".her":
        return fileio.parse_herisson_file(text)
    return fileio.import_off(text)


def _load_body(path, cfg=None):
    """A mesh from an OFF file, or the reconstruction of a .her file."""
    return _Body(_load_input(path), cfg).mesh


def _dump_trace(trace):
    _dump(dataclasses.asdict(trace))


def _cmd_construct(args):
    herisson = fileio.parse_herisson_file(Path(args.input).read_text())
    try:
        _, mesh, trace = continuation_solve(herisson, _solver_config(args))
    except (StepSizeUnderflow, NewtonDivergence) as exc:
        if args.trace:
            _dump_trace(exc.trace)
        raise
    Path(args.output).write_text(fileio.export_off(mesh))
    if args.trace:
        _dump_trace(trace)
    return 0


def _cmd_bsum(args):
    cfg = _solver_config(args)
    body = blaschke_sum_bodies(_load_body(args.a, cfg),
                               _load_body(args.b, cfg), cfg)
    Path(args.output).write_text(fileio.export_off(body))
    return 0


def _cmd_msum(args):
    body = minkowski_sum(_load_body(args.a), _load_body(args.b))
    Path(args.output).write_text(fileio.export_off(body))
    return 0


def _one_report(check):
    def run(p, q, cfg, a):
        report = check(p, q, cfg=cfg)
        return report.to_dict(), not report.ok
    return run


def _exponent_reports(p, q, cfg, a):
    rep4, rep5 = exponent_check(p, q, a, cfg)
    failed = not (rep4.ok and rep5.ok)
    return ({"power_minkowski": rep4.to_dict(),
             "power_blaschke": rep5.to_dict(),
             "failure_expected": failed and a < 1.0}, failed and a >= 1.0)


# kind -> check giving its JSON output and whether it failed
_CHECKS = {"bm": _one_report(brunn_minkowski_check),
           "ks": _one_report(kneser_suss_check),
           "monotone": _one_report(monotonicity_check),
           "sumcmp": _one_report(sum_comparison_check),
           "exponent": _exponent_reports}


def _cmd_check(args):
    out, failed = _CHECKS[args.kind](_load_input(args.a), _load_input(args.b),
                                     _solver_config(args), args.a_exp)
    _dump(out)
    return 2 if failed else 0


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
    v, e = len(mesh.vertices), len(mesh.edge_lengths)
    f = mesh.face_count
    _dump({
        "volume": volume(mesh),
        "total_area": float(mesh.face_areas.sum()),
        "face_areas": [float(a) for a in mesh.face_areas],
        "integral_mean_curvature": integral_mean_curvature(mesh),
        "vector_area_residual_norm": float(np.linalg.norm(residual)),
        "euler": {"vertices": v, "edges": e, "faces": f,
                  "characteristic": v - e + f, "ok": v - e + f == 2},
    })
    return 0


def _cmd_sphere_check(args):
    poly = fileio.parse_polygon_file(Path(args.polygon).read_text())
    from .spherical import spherical_identity_residual
    res = spherical_identity_residual(poly, args.refine)
    _dump({"residual": [float(x) for x in res],
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
    p.add_argument("--dt", type=float, help="initial continuation step")
    p.add_argument("--tol", type=float, help="relative area tolerance")
    p.add_argument("--trace", action="store_true",
                   help="print solve diagnostics as JSON")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("bsum", help="Blaschke sum of two bodies")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--dt", type=float)
    p.add_argument("--tol", type=float)
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
    p.add_argument("--dt", type=float)
    p.add_argument("--tol", type=float)
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
        return args.func(args)
    except (ToolkitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
