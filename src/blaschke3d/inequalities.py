"""Volume inequalities for the two additions, as executable checks.

Every check takes two bodies, as meshes or face data (herissons), and
returns an `InequalityReport` whose verdict uses one relative tolerance:
within the band is `equality`, above it `holds`, below it `fails`.  The
checks and `fuzz_campaign`, which runs them over seeded random body pairs,
share one report builder per inequality; failures are data, never raised.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import PremiseViolated
from .geometry import contains_by_translation, match_directions, volume
from .herisson import (Herisson, blaschke_add, blaschke_scale,
                       herisson_of_mesh, random_herisson)
from .solver import ContinuationConfig, continuation_solve
from .sums import minkowski_sum

#: single relative tolerance for verdicts; the equality band equals it
VERDICT_TOL = 1e-9


@dataclass(frozen=True)
class InequalityReport:
    """One evaluated inequality, stated as lhs >= rhs."""

    name: str
    lhs: float
    rhs: float
    diagnosis: dict = field(default_factory=dict)
    equality_tol = VERDICT_TOL

    @property
    def residual(self):
        return self.lhs - self.rhs

    @property
    def verdict(self):
        band = self.equality_tol * max(abs(self.lhs), abs(self.rhs))
        if abs(self.residual) <= band:
            return "equality"
        return "holds" if self.residual > 0 else "fails"

    @property
    def ok(self):
        return self.verdict != "fails"

    def to_dict(self):
        out = {"name": self.name, "lhs": float(self.lhs),
               "rhs": float(self.rhs), "residual": float(self.residual),
               "verdict": self.verdict,
               "equality_tol": float(self.equality_tol)}
        if self.diagnosis:
            out["diagnosis"] = {k: _jsonable(v)
                                for k, v in self.diagnosis.items()}
        return out


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


class _Body:
    """A body given by its mesh or by its face data (a herisson).  The other
    form and the volume are derived on first use: face data are read off
    the mesh, a mesh is reconstructed with the solver config."""

    def __init__(self, body, cfg=None):
        self._body, self._cfg = body, cfg

    @cached_property
    def herisson(self):
        b = self._body
        return b if isinstance(b, Herisson) else herisson_of_mesh(b)

    @cached_property
    def mesh(self):
        if isinstance(self._body, Herisson):
            return continuation_solve(self._body, self._cfg)[1]
        return self._body

    @cached_property
    def volume(self):
        return volume(self.mesh)


class _Pair:
    """Bodies P and Q, their sums P+Q and P#Q (face data added), and one
    report builder per inequality.  Each of Vol(P), Vol(Q), Vol(P+Q) and
    Vol(P#Q) is computed at most once, when a report first reads it."""

    def __init__(self, p, q, cfg=None):
        self.p, self.q, self.cfg = _Body(p, cfg), _Body(q, cfg), cfg

    @cached_property
    def minkowski(self):
        return _Body(minkowski_sum(self.p.mesh, self.q.mesh))

    @cached_property
    def blaschke(self):
        return _Body(blaschke_add(self.p.herisson, self.q.herisson), self.cfg)

    def _power(self, name, total, e, **diagnosis):
        """Vol(total)^e >= Vol(P)^e + Vol(Q)^e for a sum `total` of P, Q."""
        return InequalityReport(name, lhs=total.volume ** e,
                                rhs=self.p.volume ** e + self.q.volume ** e,
                                diagnosis=diagnosis)

    def brunn_minkowski(self):
        return self._power("brunn_minkowski", self.minkowski, 1.0 / 3.0)

    def kneser_suss(self):
        ratio = homothety_ratio(self.p.herisson, self.q.herisson)
        return self._power("kneser_suss", self.blaschke, 2.0 / 3.0,
                           homothetic=ratio is not None, area_ratio=ratio)

    def monotonicity(self, big, **diagnosis):
        """Vol(big) >= Vol(P), for a body whose face data dominate P's."""
        return InequalityReport("volume_monotonicity", lhs=big.volume,
                                rhs=self.p.volume, diagnosis=diagnosis)

    def sum_comparison(self):
        return InequalityReport("minkowski_vs_blaschke",
                                lhs=self.minkowski.volume,
                                rhs=self.blaschke.volume)

    def exponent(self, a):
        _check_exponent(a)
        return (self._power(f"power_minkowski[a={a:g}]", self.minkowski,
                            a / 3.0, a=a),
                self._power(f"power_blaschke[a={a:g}]", self.blaschke,
                            2.0 * a / 3.0, a=a))


def _check_exponent(a):
    if not 0 < a < np.inf:
        raise ValueError(f"exponent factor a must be positive and finite: {a}")


def homothety_ratio(ha: Herisson, hb: Herisson):
    """If the two herissons have the same directions and one common positive
    area ratio (within 1e-6 relative), return it; else None.  This is what
    `homothetic` means for bodies known by their face data."""
    hit = match_directions(ha.directions, hb.directions)
    if ha.k != hb.k or np.any(hit < 0):
        return None
    ratios = hb.areas[hit] / ha.areas
    mean = float(ratios.mean())
    if np.abs(ratios - mean).max() <= 1e-6 * mean:
        return mean
    return None


def brunn_minkowski_check(p, q, cfg: ContinuationConfig | None = None):
    """Vol(P+Q)^(1/3) >= Vol(P)^(1/3) + Vol(Q)^(1/3)."""
    return _Pair(p, q, cfg).brunn_minkowski()


def kneser_suss_check(p, q, cfg: ContinuationConfig | None = None):
    """Vol(P#Q)^(2/3) >= Vol(P)^(2/3) + Vol(Q)^(2/3), with equality exactly
    for homothetic bodies; the report's diagnosis carries the homothety
    detector so the equivalence can be cross-checked."""
    return _Pair(p, q, cfg).kneser_suss()


def monotonicity_check(hk, hl, cfg: ContinuationConfig | None = None):
    """Domination of face data implies domination of volume.

    Requires every direction of `hk` to appear in `hl` with at least the
    same area (up to 1e-9 of hk's total); then Vol(L) >= Vol(K).  The
    diagnosis also carries whether K fits inside L by translation, which may
    be false even though the volumes are ordered.
    """
    pair = _Pair(hk, hl, cfg)
    k, l = pair.p.herisson, pair.q.herisson
    hit = match_directions(k.directions, l.directions)
    short = (hit < 0) | (l.areas[hit] < k.areas - 1e-9 * k.total_area)
    if short.any():
        d = k.directions[int(np.argmax(short))]
        raise PremiseViolated(
            "dominating herisson misses or underweights direction "
            f"{np.array2string(d, precision=6)}", direction=d)
    fit = contains_by_translation(pair.q.mesh, pair.p.mesh)
    return pair.monotonicity(pair.q, contains_by_translation=fit.contained,
                             containment_margin=fit.margin)


def sum_comparison_check(p, q, cfg: ContinuationConfig | None = None):
    """Vol(P+Q) >= Vol(P#Q): the Blaschke sum never beats the Minkowski sum
    in volume."""
    return _Pair(p, q, cfg).sum_comparison()


def exponent_check(p, q, a: float, cfg: ContinuationConfig | None = None):
    """Both basic inequalities with their exponents scaled by a > 0: they
    survive any a >= 1 and break for some bodies whenever 0 < a < 1
    (homothetic pairs already do).  Returns the two reports."""
    return _Pair(p, q, cfg).exponent(a)


def lemma_inequality(a: float, x: float) -> bool:
    """Whether (1+x)^a >= 1 + x^a (true for a >= 1, breaks for 0 < a < 1)."""
    if not (a > 0 and x > 0):
        raise ValueError("need a > 0 and x > 0")
    return (1.0 + x) ** a >= 1.0 + x ** a


# -- fuzz campaign -----------------------------------------------------------

def _relative_residual(rep):
    return rep.residual / max(abs(rep.lhs), abs(rep.rhs), 1e-300)


# check name -> its report on one pair, given a.  P#Q dominates P's face data
# by construction (thm71); thm81 counts the worse of its two reports.
_FUZZ_REPORTS = {
    "bm": lambda pair, a: pair.brunn_minkowski(),
    "ks": lambda pair, a: pair.kneser_suss(),
    "thm71": lambda pair, a: pair.monotonicity(pair.blaschke),
    "thm75": lambda pair, a: pair.sum_comparison(),
    "thm81": lambda pair, a: min(pair.exponent(a), key=_relative_residual)}


@dataclass(frozen=True)
class FuzzConfig:
    """Campaign parameters.  `a` feeds the thm81 check; `homothetic_pairs`
    replaces the second random body with a scaled copy of the first, the
    regime where the a < 1 failures are guaranteed."""

    trials: int
    faces_min: int = 6
    faces_max: int = 12
    seed: int = 0
    checks: tuple = tuple(_FUZZ_REPORTS)
    a: float = 1.5
    homothetic_pairs: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not (4 <= self.faces_min <= self.faces_max):
            raise ValueError("need 4 <= faces_min <= faces_max")
        unknown = set(self.checks) - set(_FUZZ_REPORTS)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        _check_exponent(self.a)


def _derived_seed(seed, trial, slot):
    return seed * 1000003 + trial * 17 + slot


def fuzz_campaign(cfg: FuzzConfig) -> dict:
    """Run the selected checks over `trials` seeded random pairs.

    Deterministic under the seed.  The summary counts verdicts per check,
    tracks the worst relative residual, records the derived seeds of any
    failures, and counts trials where the Kneser-Suss equality verdict and
    the homothety detector disagree.
    """
    # Load the LP solver before the first trial: which trial first needs an
    # interior-point or containment LP depends on the seed, and so would the
    # campaign's memory and the cost of that trial.
    import scipy.optimize  # noqa: F401
    stats = {name: {"holds": 0, "equality": 0, "fails": 0,
                    "worst_residual": np.inf, "failure_seeds": []}
             for name in cfg.checks}
    mismatches = 0
    for trial in range(cfg.trials):
        rng = np.random.default_rng(_derived_seed(cfg.seed, trial, 0))
        kp = int(rng.integers(cfg.faces_min, cfg.faces_max + 1))
        kq = int(rng.integers(cfg.faces_min, cfg.faces_max + 1))
        hp = random_herisson(kp, _derived_seed(cfg.seed, trial, 1))
        if cfg.homothetic_pairs:
            hq = blaschke_scale(hp, float(rng.uniform(0.5, 2.0)))
        else:
            hq = random_herisson(kq, _derived_seed(cfg.seed, trial, 2))

        pair = _Pair(hp, hq)
        for name, entry in stats.items():
            rep = _FUZZ_REPORTS[name](pair, cfg.a)
            if name == "ks" and \
                    (rep.verdict == "equality") != rep.diagnosis["homothetic"]:
                mismatches += 1
            entry[rep.verdict] += 1
            entry["worst_residual"] = min(entry["worst_residual"],
                                          _relative_residual(rep))
            if rep.verdict == "fails":
                entry["failure_seeds"].append(_derived_seed(cfg.seed, trial, 0))

    for entry in stats.values():
        if not np.isfinite(entry["worst_residual"]):
            entry["worst_residual"] = None
    unexpected = sorted(
        name for name in cfg.checks
        if stats[name]["fails"] > 0 and (name != "thm81" or cfg.a >= 1.0))
    return {"trials": cfg.trials, "seed": cfg.seed, "a": cfg.a,
            "faces": [cfg.faces_min, cfg.faces_max],
            "checks": {name: stats[name] for name in cfg.checks},
            "ks_equality_mismatches": mismatches,
            "unexpected_failures": unexpected}
