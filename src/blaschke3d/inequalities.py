"""Volume inequalities for the two additions, as executable checks.

Every check takes two bodies, as meshes or face data (herissons), and
returns an `InequalityReport` whose verdict uses one relative tolerance:
within the band is `equality`, above it `holds`, below it `fails`.  The
checks and `fuzz_campaign`, which runs them over seeded random body pairs,
share one report builder per inequality; failures are data, never raised.
Vol(P+Q) comes from the operands by Minkowski's mixed-volume formula, so no
check builds the body P+Q.  A body given by face data is solved once, and
its volume and support points are read off the solve's last cut
(`geometry._Cut`); its mesh is built only when a caller reads one (`bsum`,
`msum`, and the containment test of the monotonicity check), so a fuzz
trial builds no mesh.  A campaign runs its trials in contiguous
slices over the CPUs of the process's affinity set, the caller's slice
in-process and the rest in workers forked directly (`os.fork`, one pipe
each), which leave by `os._exit` and are reaped, or killed and reaped,
before the campaign returns or raises; its summary is the same for any
number of CPUs, and in-process monkeypatches and tracers see only the
caller's slice.
"""
from __future__ import annotations

import os
import pickle
import signal
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import PremiseViolated
from .geometry import (_support_values, _volume, contains_by_translation,
                       match_directions, volume)
from .herisson import (Herisson, blaschke_add, blaschke_scale,
                       herisson_of_mesh, random_herisson)
from .solver import ContinuationConfig, _finish, _newton_solve

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
        """JSON values; the diagnosis holds bools, floats and None as is."""
        out = {"name": self.name, "lhs": float(self.lhs),
               "rhs": float(self.rhs), "residual": float(self.residual),
               "verdict": self.verdict,
               "equality_tol": float(self.equality_tol)}
        if self.diagnosis:
            out["diagnosis"] = dict(self.diagnosis)
        return out


class _Body:
    """A body given by its mesh or by its face data (a herisson).  The other
    form and the volume are derived on first use.  A mesh's face data are
    read off it.  Face data are solved once, with the solver config:
    `solve` keeps the last accepted `geometry._Cut` and the `SolveTrace`,
    the volume and the support points are read off that cut, and the mesh
    is built from it only when a caller reads `mesh`."""

    def __init__(self, body, cfg=None):
        self._body, self._cfg = body, cfg

    @cached_property
    def herisson(self):
        b = self._body
        return b if isinstance(b, Herisson) else herisson_of_mesh(b)

    @cached_property
    def solve(self):
        return _newton_solve(self._body, self._cfg)

    @cached_property
    def mesh(self):
        if isinstance(self._body, Herisson):
            return _finish(self._body, *self.solve)[1]
        return self._body

    @cached_property
    def volume(self):
        if isinstance(self._body, Herisson):
            return self.solve[0].volume
        return volume(self._body)

    @cached_property
    def support_data(self):
        """Face normals, face areas, and points whose hull is the body,
        about an interior point: the cut's directions, areas and corners,
        or the mesh's, with its vertices about their centroid."""
        if isinstance(self._body, Herisson):
            cut = self.solve[0]
            return cut.edges.face_normals, cut.areas, cut.corners
        m = self._body
        return m.face_normals, m.face_areas, m.vertices - m.centroid


class _Pair:
    """Bodies P and Q, their Blaschke sum P#Q (face data added), and one
    report builder per inequality.  Each of Vol(P), Vol(Q), Vol(P+Q) and
    Vol(P#Q) is computed at most once, when a report first reads it;
    Vol(P+Q) comes from the operands, not from a body P+Q.  The Blaschke
    sum of `sums` and the `bsum` and `msum` commands read their bodies
    here too."""

    def __init__(self, p, q, cfg=None):
        self.p, self.q, self.cfg = _Body(p, cfg), _Body(q, cfg), cfg

    @cached_property
    def minkowski_volume(self):
        """Vol(P+Q) = Vol(P) + Vol(Q) + 3V(P,P,Q) + 3V(P,Q,Q), Minkowski's
        mixed-volume formula (Schneider, Convex Bodies, 5.1): 3V(A,A,B) sums
        A's face areas times B's support numbers in A's face normals.  A's
        area vectors sum to zero, so B's reference point does not change the
        sum; taking B's interior point of `_Body.support_data` (a mesh's
        vertex centroid, a solved body's cut centre) keeps the terms small
        for bodies far from the origin."""
        total = self.p.volume + self.q.volume
        p, q = self.p.support_data, self.q.support_data
        for (normals, areas, _), (_, _, points) in ((p, q), (q, p)):
            live = areas > 0
            h = _support_values(points, normals[live])
            total = _volume(areas[live], h, total, 1.0)
        return total

    @cached_property
    def blaschke(self):
        return _Body(blaschke_add(self.p.herisson, self.q.herisson), self.cfg)

    def _power(self, name, total, e, **diagnosis):
        """total^e >= Vol(P)^e + Vol(Q)^e for the volume `total` of a sum
        of P and Q."""
        return InequalityReport(name, lhs=total ** e,
                                rhs=self.p.volume ** e + self.q.volume ** e,
                                diagnosis=diagnosis)

    def brunn_minkowski(self):
        return self._power("brunn_minkowski", self.minkowski_volume,
                           1.0 / 3.0)

    def kneser_suss(self):
        ratio = homothety_ratio(self.p.herisson, self.q.herisson)
        return self._power("kneser_suss", self.blaschke.volume, 2.0 / 3.0,
                           homothetic=ratio is not None, area_ratio=ratio)

    def monotonicity(self, big, **diagnosis):
        """Vol(big) >= Vol(P), for a body whose face data dominate P's."""
        return InequalityReport("volume_monotonicity", lhs=big.volume,
                                rhs=self.p.volume, diagnosis=diagnosis)

    def sum_comparison(self):
        return InequalityReport("minkowski_vs_blaschke",
                                lhs=self.minkowski_volume,
                                rhs=self.blaschke.volume)

    def exponent(self, a):
        _check_exponent(a)
        a = float(a)
        return (self._power(f"power_minkowski[a={a:g}]",
                            self.minkowski_volume, a / 3.0, a=a),
                self._power(f"power_blaschke[a={a:g}]", self.blaschke.volume,
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
    short = (hit < 0) | (l.areas[hit] < k.areas - (1e-9 * k.areas).sum())
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


def _trial(cfg, trial):
    """The reports on trial `trial`'s seeded pair, keyed by check in
    `cfg.checks` order."""
    rng = np.random.default_rng(_derived_seed(cfg.seed, trial, 0))
    kp = int(rng.integers(cfg.faces_min, cfg.faces_max + 1))
    kq = int(rng.integers(cfg.faces_min, cfg.faces_max + 1))
    hp = random_herisson(kp, _derived_seed(cfg.seed, trial, 1))
    if cfg.homothetic_pairs:
        hq = blaschke_scale(hp, float(rng.uniform(0.5, 2.0)))
    else:
        hq = random_herisson(kq, _derived_seed(cfg.seed, trial, 2))
    pair = _Pair(hp, hq)
    return {name: _FUZZ_REPORTS[name](pair, cfg.a) for name in cfg.checks}


def _trials(cfg, start, stop):
    return [_trial(cfg, trial) for trial in range(start, stop)]


def _cpu_count():
    """CPUs in the process's affinity set, or 1 where workers cannot be
    forked safely: no `fork` or affinity set, or other threads running."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) \
            or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _fork_worker(cfg, start, stop):
    """Fork a worker for trials start..stop-1 and return its pid and the
    read end of its pipe.  The worker pickles (True, reports) or (False,
    exception) into the pipe and leaves by `os._exit`, so it never returns
    into the caller's code or flushes the caller's stdio; the write end is
    closed here before the next worker is forked, so the pipe of a worker
    that dies reads EOF."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            try:
                result = (True, _trials(cfg, start, stop))
            except Exception as exc:
                result = (False, exc)
            with open(w, "wb") as pipe:
                pipe.write(pickle.dumps(result))
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _campaign_reports(cfg):
    """Every trial's reports, in trial order.  The trials are cut into one
    contiguous slice per CPU; the caller forks one worker per slice but the
    first (`_fork_worker`), runs the first slice, then reads each worker's
    pipe to EOF in slice order and reaps the workers.  If anything raises
    before then, the caller's own slice included, every worker is killed
    and reaped before the error propagates.  A trial that raises in any
    slice raises here, and a worker that dies raises ChildProcessError, the
    first in trial order winning."""
    n = min(_cpu_count(), cfg.trials)
    bounds = [cfg.trials * i // n for i in range(n + 1)]
    slices = list(zip(bounds[1:-1], bounds[2:]))
    pids, pipes, statuses = [], [], []
    if slices:  # every trial hulls: load scipy.spatial once, not per worker
        import scipy.spatial  # noqa: F401
    try:
        for start, stop in slices:
            pid, pipe = _fork_worker(cfg, start, stop)
            pids.append(pid)
            pipes.append(pipe)
        reports = _trials(cfg, 0, bounds[1])
        sent = [pipe.read() for pipe in pipes]
        for pid in pids:
            statuses.append(os.waitpid(pid, 0)[1])
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids[len(statuses):]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for (start, stop), data, status in zip(slices, sent, statuses):
        code = os.waitstatus_to_exitcode(status)
        if code != 0 or not data:
            how = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise ChildProcessError(
                f"campaign worker for trials {start}-{stop - 1} died: "
                f"{how}")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        reports += value
    return reports


def fuzz_campaign(cfg: FuzzConfig) -> dict:
    """Run the selected checks over `trials` seeded random pairs.

    Deterministic under the seed.  The summary counts verdicts per check,
    tracks the worst relative residual, records the derived seeds of any
    failures, and counts trials where the Kneser-Suss equality verdict and
    the homothety detector disagree.

    Each trial derives its pair from (seed, trial) alone, so the trials
    run in contiguous slices, one per CPU of the process's affinity set:
    the caller runs the first slice and worker processes forked directly
    run the rest; they leave by `os._exit`, never flushing the caller's
    stdio, and are reaped, or killed and reaped, before the call returns or
    raises.  With one CPU or one trial, without `fork` or an affinity set,
    or while other threads run, the caller runs every trial.  The summary
    is the same for any number of CPUs.  A worker that dies raises
    ChildProcessError naming its trials and how it ended.  Monkeypatches
    and tracers installed in the calling process see only the caller's
    slice.
    """
    stats = {name: {"holds": 0, "equality": 0, "fails": 0,
                    "worst_residual": np.inf, "failure_seeds": []}
             for name in cfg.checks}
    mismatches = 0
    for trial, reports in enumerate(_campaign_reports(cfg)):
        for name, entry in stats.items():
            rep = reports[name]
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
