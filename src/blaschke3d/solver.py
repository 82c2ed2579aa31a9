"""Reconstruction of a convex polyhedron from a herisson.

Damped Newton steps on the face areas A(h) = F start from the tangent body
(support numbers 1, circumscribing the unit sphere) scaled to the target's
total area.  The loop runs in units of 4^m, the power of four at or just
below the largest target area, so no norm of an area vector squares an
area near the float limits, and since floating point commutes with a
power of two, every step and the result, scaled back exactly, are the same
in any unit of area.  Each step solves
J dh = F - A for the area Jacobian J and keeps the longest length alpha of
1, 1/2, 1/4, ... (at most twice the last) at which every face keeps half
the least start or target area and |F - A|_2 falls by 1 - alpha/2 (the rule
of Kitagawa, Merigot & Thibert for semi-discrete optimal transport).  So
every face stays present and the kernel of J is exactly the translations
(Alexandrov's mixed-volume lemma): one LU solve of J plus a term pinning
that kernel gives the update orthogonal to it.  Within the Newton tolerance
only full steps are tried, down to rounding level, and the first that
fails ends the solve.  J needs only the edges (which faces meet, and how
long the edge is), read off each half-space intersection's cut
(`geometry._polar_hull`), and the areas are A = 1/2 J (h - D c) for any
point c (`geometry._face_areas`).  The state of the solve is the last
accepted cut (`geometry._Cut`: edge list, slack h - D c, areas, the
facets' plane triples and corners); its slack is carried on as the
support numbers, making the interior point c the origin, the next centre,
and the returned mesh is built once, off that record
(`geometry._hull_mesh`).  Within one combinatorial type the corners are
linear in the support numbers, so each cut tried is first read off the
state's triangulation, and kept when every edge has a positive length
there (the step stays in the state's type cone); only a step that crosses
a wall of that cone, or starts from a body that is not simple, runs Qhull.
The Newton loop (`_newton_solve`) ends at that record;
`continuation_solve` adds the mesh and the support polyhedron, whose
constructor checks the directions, once per solve (`_finish`), while the
checks' pair evaluator reads the volume and the support points off the
record and builds the mesh only when asked for it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateAngle, DegenerateBody, NewtonDivergence,
                     OracleFailed, StepSizeUnderflow, UnboundedRegion)
from .geometry import (MeshPolyhedron, SupportPolyhedron, _adjacency,
                       _hull_mesh, _kept, _polar_hull)
from .herisson import Herisson

# The step lengths tried, 1 down to 2^-30, and the number of accepted
# steps after which the solve gives up (the hardest inputs solved take
# about 30).
_LENGTHS = tuple(0.5 ** n for n in range(31))
_MAX_STEPS = 60
# Relative residual at which the solve stops: rounding level.
_ROUNDING = 1e-14


@dataclass(frozen=True)
class ContinuationConfig:
    """The relative area residual the solve must reach.  Within it only
    full Newton steps are tried, down to rounding level, and the first that
    fails ends the solve."""

    newton_tol: float = 1e-9

    def __post_init__(self):
        if not 0 < self.newton_tol < np.inf:
            raise ValueError("newton_tol must be positive and finite")


@dataclass
class SolveTrace:
    """Diagnostics of one solve.

    `alpha_history` holds the length of every accepted step, and
    `residual_history` the residual |F - A|_2 / |F|_2 after it, which falls
    by 1 - alpha/2 at each step.  `final_residual` is the returned mesh's
    max |F - A| / max F or, when the solve fails, that of the last accepted
    body, which its error reports.  `intersections` and `jacobians` count
    the half-space intersections and area Jacobians computed, over accepted
    and rejected steps alike; the returned mesh is read off the last accepted
    intersection.  `hulls` counts the intersections whose cut Qhull
    computed; the others were read off the last accepted cut's
    triangulation, and a cut refused with an error counts in
    `intersections` only.  `combinatorial_changes` counts the accepted
    steps whose face adjacency (`geometry._adjacency`) differs from the
    last; a full step that crosses a vertex where four or more faces meet
    and a later one that crosses back count as two, so `grunbaum.her`
    reports 4.
    `rejections` counts the rejected step lengths by cause: "diverged" (a
    non-finite update), "stalled" (too small a fall of the residual),
    "collapse" (a face area below the floor) and "degenerate" (the last
    centre outside the body, or no interior).
    """

    steps_taken: int = 0
    alpha_history: list = field(default_factory=list)
    residual_history: list = field(default_factory=list)
    final_residual: float = float("nan")
    combinatorial_changes: int = 0
    intersections: int = 0
    hulls: int = 0
    jacobians: int = 0
    rejections: dict = field(default_factory=lambda: dict.fromkeys(
        ("diverged", "stalled", "collapse", "degenerate"), 0))


def _hull_state(directions, h, trace, prev=None):
    """The `geometry._Cut` of the body with support numbers h, read off
    `prev`'s triangulation where h lies in its type cone; counted."""
    trace.intersections += 1
    cut = _polar_hull(directions, h, prev)
    trace.hulls += cut.hulled
    return cut


def _tangent_state(directions, trace):
    """The `geometry._Cut` of `initial_polyhedron`'s body."""
    state = _hull_state(directions, np.ones(len(directions)), trace)
    if state.areas.min() <= 0:
        raise DegenerateBody("tangent body lost a face; directions too close")
    return state


def initial_polyhedron(directions):
    """Starting body of the solve: all support numbers 1, circumscribing the
    unit sphere, where every face has positive area.  Returns the body and
    its face areas."""
    sp = SupportPolyhedron(np.asarray(directions, float),
                           np.ones(len(directions)))
    return sp, _tangent_state(sp.directions, SolveTrace()).areas


def area_jacobian(body) -> np.ndarray:
    """Derivative of the face areas with respect to the support numbers.

    For adjacent faces i != j the entry is l_ij / sin(angle(n_i, n_j)); the
    diagonal entry of face j is the sum over its neighbours p of l_jp times
    the cotangent of the interior dihedral angle along that edge, which is
    -cot(angle(n_j, n_p)) in terms of the normals (pushing a face of a cube
    outward leaves its own area unchanged, hence the zero diagonal there).
    Rows of absent faces are zero.  The matrix kills the three translation
    vectors u_j = v . n_j.  It reads `body.edges`, of a mesh or a `_Cut`.
    """
    normals, i, j, lengths, sin, cos = body.edges
    k = len(normals)
    jac = np.zeros((k, k))
    if not len(i):
        return jac
    if sin.min() < 1e-9:
        worst = int(np.argmin(sin))
        raise DegenerateAngle(f"adjacent faces {i[worst]},{j[worst]} are "
                              "parallel within 1e-9 rad")
    jac[i, j] = lengths / sin
    jac[j, i] = lengths / sin
    diag = lengths * cos / sin
    jac.flat[::k + 1] = -(np.bincount(i, diag, k) + np.bincount(j, diag, k))
    return jac


def _solve_kernel_free(jac, rhs, directions):
    """The solution of jac x = rhs orthogonal to the translations D v.

    `jac` is an area Jacobian with every face present, so its kernel is
    exactly the translations.  The term s D D^T acts only on that kernel and
    makes the matrix invertible; for a closed right-hand side (D^T rhs = 0)
    the solution of the sum is the minimum-norm least-squares solution of
    jac x = rhs.  s = max |jac| keeps the solve scale-equivariant.  A face
    without edges (a zero row) adds a fourth kernel direction, so the sum
    is singular; that case, like any singular sum LU detects, gives NaN,
    which the callers reject as a diverged update.
    """
    if not jac.any(axis=1).all():
        return np.full(len(rhs), np.nan)
    pinned = jac + np.abs(jac).max() * (directions @ directions.T)
    try:
        return np.linalg.solve(pinned, rhs)
    except np.linalg.LinAlgError:
        return np.full(len(rhs), np.nan)


def _damped_step(directions, state, target, lengths, floor, trace):
    """One Newton step from `state` towards the face areas `target`.

    dh solves J dh = target - areas, and the step is the first alpha of
    `lengths` whose body at slack + alpha dh passes, else it is rejected as
    "degenerate" (a support number not positive, so the last centre, the
    origin, is outside, which takes no intersection; or a refused cut),
    "collapse" (a face area below `floor`) or "stalled" (|target - areas|_2
    not down by 1 - alpha/2).  Returns (alpha, new state), or (cause, None)
    with the `SolveTrace.rejections` key of the last rejection.
    """
    trace.jacobians += 1
    gap = target - state.areas
    dh = _solve_kernel_free(area_jacobian(state), gap, directions)
    if not np.all(np.isfinite(dh)):
        trace.rejections["diverged"] += 1
        return "diverged", None
    norm = np.linalg.norm(gap)
    for alpha in lengths:
        h = state.slack + alpha * dh
        try:
            new = _hull_state(directions, h, trace, state) \
                if h.min() > 0 else None
        except (DegenerateBody, UnboundedRegion):
            new = None
        if new is None:
            cause = "degenerate"
        elif new.areas.min() < floor:
            cause = "collapse"
        elif np.linalg.norm(target - new.areas) > (1 - alpha / 2) * norm:
            cause = "stalled"
        else:
            return alpha, new
        trace.rejections[cause] += 1
    return cause, None


def _failure(cause, resid, trace):
    """The error that ends a solve whose step failed for `cause`, at the
    relative residual `resid`, which the trace keeps as its final one."""
    trace.final_residual = float(resid)
    what = {"diverged": "Newton update not finite",
            "budget": "no convergence within the step budget"}.get(
        cause, f"step length below 2^-30, the last rejected as {cause}")
    err = NewtonDivergence if cause == "diverged" else StepSizeUnderflow
    return err(f"{what}: relative residual {resid:.2e} after "
               f"{trace.steps_taken} steps", trace=trace)


def continuation_solve(h: Herisson, cfg: ContinuationConfig | None = None):
    """Damped Newton steps from the tangent body to the herisson's areas.

    The start is the tangent body scaled by sqrt(sum F / sum A0), at no
    intersection; each step length is at most twice the last.  Returns
    (support polyhedron, mesh, trace); the mesh is recentered so its vertex
    centroid is the origin, and its face areas match the herisson within
    the Newton tolerance.  Raises NewtonDivergence on a non-finite update
    and StepSizeUnderflow when no step length down to 2^-30 passes or after
    `_MAX_STEPS` steps, each naming the cause, the relative residual
    reached and the step count.
    """
    return _finish(h, *_newton_solve(h, cfg))


def _newton_solve(h, cfg=None):
    """The Newton loop of `continuation_solve`, with its errors: the
    `geometry._Cut` of the last accepted step and the trace.  The loop runs
    in units of 4^m, the power of four at or just below max F, where no
    norm of an area vector squares an area near the float limits, and the
    cut is scaled back by 2^m: both scalings are exact, so each step is the
    one taken at the caller's unit."""
    if cfg is None:
        cfg = ContinuationConfig()
    m = (math.frexp(h.areas.max())[1] - 1) // 2
    directions, target = h.directions, np.ldexp(h.areas, -2 * m)
    trace = SolveTrace()
    state = _tangent_state(directions, trace)
    state = state.scaled(np.sqrt(target.sum() / state.areas.sum()))
    floor = 0.5 * min(state.areas.min(), target.min())
    alpha = 1.0
    for _ in range(_MAX_STEPS):
        resid = np.abs(target - state.areas).max() / target.max()
        polishing = resid <= cfg.newton_tol
        if resid <= min(_ROUNDING, cfg.newton_tol):
            break
        lengths = [1.0] if polishing else \
            [a for a in _LENGTHS if a <= 2.0 * alpha]
        outcome, new = _damped_step(directions, state, target, lengths,
                                    floor, trace)
        if new is None and polishing:
            break
        if new is None:
            raise _failure(outcome, resid, trace)
        trace.combinatorial_changes += _adjacency_changed(state, new)
        alpha, state = outcome, new
        trace.steps_taken += 1
        trace.alpha_history.append(alpha)
        trace.residual_history.append(float(
            np.linalg.norm(target - state.areas) / np.linalg.norm(target)))
    resid = np.abs(target - state.areas).max() / target.max()
    if resid > cfg.newton_tol:
        raise _failure("budget", resid, trace)
    trace.final_residual = float(resid)
    return state.scaled(2.0 ** m), trace


def _adjacency_changed(state, new):
    """Whether the face adjacency (`geometry._adjacency`) of the cut `new`
    differs from `state`'s.  A cut read off `state`'s triangulation keeps
    its face pairs, so only the edges kept by the length rule can differ;
    the pair sets are compared only after a Qhull run."""
    if new.hulled:
        return _adjacency(new.edges) != _adjacency(state.edges)
    return not np.array_equal(_kept(new.edges), _kept(state.edges))


def _finish(h, state, trace):
    """The support polyhedron and mesh of `state`'s body, moved so that the
    mesh's vertex centroid is the origin, and the trace.  The support
    polyhedron is built with `h`'s directions by its own constructor, the
    one check of the directions in a solve."""
    mesh = _hull_mesh(state)
    shift = mesh.centroid
    sp = SupportPolyhedron(h.directions, state.slack - h.directions @ shift)
    return sp, mesh.translate(-shift), trace


# -- independent oracle: Minkowski's variational problem --------------------

def oracle_solve_small(h: Herisson) -> MeshPolyhedron:
    """Reconstruct a small herisson (k <= 8) by minimising Minkowski's
    functional (`_oracle_solve`): no area Jacobian and no Newton step."""
    if h.k > 8:
        raise ValueError("oracle is limited to k <= 8 faces")
    return _oracle_solve(h)


def _oracle_solve(h):
    """The body with face areas F, from the minimiser x of Minkowski's convex
    functional Phi(x) = F.x / sum(F) - log Vol(x) (Little 1983; Lachand-Robert
    & Oudet 2005), whose gradient F / sum(F) - A(x) / Vol(x) vanishes where
    the areas A are proportional to F: L-BFGS-B from x = 1, then one hull
    at x scaled by sqrt(sum(F) / sum(A)) and its mesh; sum(F) is read as
    max(F) sum(r), r = F / max(F), so it never overflows.  An empty body counts
    as +inf, which ends L-BFGS-B's line search, so a run that met one and
    moved is followed by another from the last point it accepted.  Raises
    OracleFailed when the areas miss F by more than 1e-5 of the largest."""
    from scipy.optimize import minimize
    rel = h.areas / h.areas.max()
    weights = rel / rel.sum()
    empty = []

    def phi(x):
        try:
            cut = _polar_hull(h.directions, x)
        except DegenerateBody:
            empty.append(x)
            return np.inf, np.zeros(h.k)
        vol = cut.volume
        return weights @ x - np.log(vol), weights - cut.areas / vol

    x = np.ones(h.k)
    while True:
        empty.clear()
        start, x = x, minimize(phi, x, jac=True, method="L-BFGS-B",
                               options={"ftol": 0.0, "gtol": 1e-12}).x
        if not empty or np.array_equal(x, start):
            break
    cut = _polar_hull(h.directions, x)
    lam = np.sqrt(h.areas.max()) * np.sqrt(rel.sum() / cut.areas.sum())
    mesh = _hull_mesh(cut.scaled(lam))
    if np.abs(mesh.face_areas - h.areas).max() > 1e-5 * h.areas.max():
        raise OracleFailed(f"minimisation missed the areas for k={h.k}")
    return mesh.translate(-mesh.centroid)
