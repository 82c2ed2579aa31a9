"""Reconstruction of a convex polyhedron from a herisson.

Damped Newton steps on the face areas A(h) = F start from the tangent body
(support numbers 1, circumscribing the unit sphere) scaled to the target's
total area, so the solve is the same in any unit of area.  Each step solves
J dh = F - A for the area Jacobian J and keeps the longest length alpha of
1, 1/2, 1/4, ... (at most twice the last) at which every face keeps half
the least start or target area and |F - A|_2 falls by 1 - alpha/2 (the rule
of Kitagawa, Merigot & Thibert for semi-discrete optimal transport).  So
every face stays present and the kernel of J is exactly the translations
(Alexandrov's mixed-volume lemma): one LU solve of J plus a term pinning
that kernel gives the update orthogonal to it.  Within the Newton tolerance
only full steps are tried, down to rounding level, and the first that
fails ends the solve.  J needs only the edges (which faces meet, and how
long the edge is), read off the polar hull of each half-space
intersection, and the areas are A = 1/2 J (h - D c) for any point c
(`geometry._face_areas`).  The state of the solve is the last accepted
polar hull's record (`geometry._Cut`: edge list, slack h - D c, areas,
hull and corners); its slack is carried on as the support numbers, making
the interior point c the origin, the next centre, and the returned mesh is
built once, off that record (`geometry._hull_mesh`).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateAngle, DegenerateBody, NewtonDivergence,
                     OracleFailed, StepSizeUnderflow)
from .geometry import (MERGE_TOL, EdgeList, MeshPolyhedron,
                       SupportPolyhedron, _edge_arrays, _hull_mesh,
                       _polar_hull, check_positive_spanning)
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
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")


@dataclass
class SolveTrace:
    """Diagnostics of one solve.

    `alpha_history` holds the length of every accepted step, and
    `residual_history` the residual |F - A|_2 / |F|_2 after it, which falls
    by 1 - alpha/2 at each step.  `final_residual` is the returned mesh's
    max |F - A| / max F.  `intersections` and `jacobians` count the
    half-space intersections and area Jacobians computed, over accepted and
    rejected steps alike; the returned mesh is read off the last accepted
    intersection.  `combinatorial_changes` counts the accepted steps whose
    face adjacency (edges longer than `MERGE_TOL` times the longest) differs
    from the last.  `rejections` counts the rejected step lengths by cause:
    "diverged" (a non-finite update), "stalled" (too small a fall of the
    residual), "collapse" (a face area below the floor) and "degenerate"
    (the last centre outside the body, or no interior).
    """

    steps_taken: int = 0
    alpha_history: list = field(default_factory=list)
    residual_history: list = field(default_factory=list)
    final_residual: float = float("nan")
    combinatorial_changes: int = 0
    intersections: int = 0
    jacobians: int = 0
    rejections: dict = field(default_factory=lambda: dict.fromkeys(
        ("diverged", "stalled", "collapse", "degenerate"), 0))


def _hull_state(directions, h, trace):
    """The `geometry._Cut` of the body with support numbers h, counted."""
    trace.intersections += 1
    return _polar_hull(directions, h)


def _tangent_state(directions, trace):
    """`initial_polyhedron`'s body and its `geometry._Cut`."""
    sp = SupportPolyhedron(np.asarray(directions, float),
                           np.ones(len(directions)))
    state = _hull_state(sp.directions, sp.support_numbers, trace)
    if state.areas.min() <= 0:
        raise DegenerateBody("tangent body lost a face; directions too close")
    return sp, state


def initial_polyhedron(directions):
    """Starting body of the solve: all support numbers 1, circumscribing the
    unit sphere, where every face has positive area.  Returns the body and
    its face areas."""
    sp, state = _tangent_state(directions, SolveTrace())
    return sp, state.areas


def area_jacobian(p: MeshPolyhedron | EdgeList) -> np.ndarray:
    """Derivative of the face areas with respect to the support numbers.

    For adjacent faces i != j the entry is l_ij / sin(angle(n_i, n_j)); the
    diagonal entry of face j is the sum over its neighbours p of l_jp times
    the cotangent of the interior dihedral angle along that edge, which is
    -cot(angle(n_j, n_p)) in terms of the normals (pushing a face of a cube
    outward leaves its own area unchanged, hence the zero diagonal there).
    Rows of absent faces are zero.  The matrix kills the three translation
    vectors u_j = v . n_j.  `p` is a mesh or the edge list of a body.
    """
    k = len(p.face_normals)
    jac = np.zeros((k, k))
    _, i, j, lengths, sin, cos = _edge_arrays(p)
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


def _adjacency(edges):
    """The face pairs of the edges longer than `MERGE_TOL` times the
    longest, the edges a mesh keeps after merging its close vertices."""
    keep = edges.lengths > MERGE_TOL * edges.lengths.max()
    return frozenset(zip(edges.i[keep].tolist(), edges.j[keep].tolist()))


def _damped_step(directions, state, target, lengths, floor, trace):
    """One Newton step from `state` towards the face areas `target`.

    dh solves J dh = target - areas, and the step is the first alpha of
    `lengths` whose body at slack + alpha dh passes, else it is rejected as
    "degenerate" (a support number not positive, so the last centre, the
    origin, is outside, which takes no intersection; or no interior),
    "collapse" (a face area below `floor`) or "stalled" (|target - areas|_2
    not down by 1 - alpha/2).  Returns (alpha, new state), or (cause, None)
    with the `SolveTrace.rejections` key of the last rejection.
    """
    trace.jacobians += 1
    gap = target - state.areas
    dh = _solve_kernel_free(area_jacobian(state.edges), gap, directions)
    if not np.all(np.isfinite(dh)):
        trace.rejections["diverged"] += 1
        return "diverged", None
    norm = np.linalg.norm(gap)
    for alpha in lengths:
        h = state.slack + alpha * dh
        try:
            new = _hull_state(directions, h, trace) if h.min() > 0 else None
        except DegenerateBody:
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
    """The error that ends a solve whose step failed for `cause`."""
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
    if cfg is None:
        cfg = ContinuationConfig()
    directions, target, trace = h.directions, h.areas, SolveTrace()
    tangent, state = _tangent_state(directions, trace)
    state = state.scaled(np.sqrt(h.total_area / state.areas.sum()))
    floor = 0.5 * min(state.areas.min(), target.min())
    adjacency, alpha = _adjacency(state.edges), 1.0
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
        adj = _adjacency(new.edges)
        trace.combinatorial_changes += adj != adjacency
        alpha, state, adjacency = outcome, new, adj
        trace.steps_taken += 1
        trace.alpha_history.append(alpha)
        trace.residual_history.append(float(
            np.linalg.norm(target - state.areas) / np.linalg.norm(target)))
    resid = np.abs(target - state.areas).max() / target.max()
    if resid > cfg.newton_tol:
        raise _failure("budget", resid, trace)
    trace.final_residual = float(resid)
    return _finish(tangent, state, trace)


def _finish(tangent, state, trace):
    """The support polyhedron and mesh of `state`'s body, moved so that the
    mesh's vertex centroid is the origin, and the trace; the directions are
    the `tangent` body's, checked once."""
    mesh = _hull_mesh(state)
    shift = mesh.centroid
    h = state.slack - tangent.directions @ shift
    return tangent._with_support_numbers(h), mesh.translate(-shift), trace


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
    at x scaled by sqrt(sum(F) / sum(A)) and its mesh.  An empty body counts
    as +inf, which ends L-BFGS-B's line search, so a run that met one and
    moved is followed by another from the last point it accepted.  Raises
    OracleFailed when the areas miss F by more than 1e-5 of the largest."""
    from scipy.optimize import minimize
    check_positive_spanning(h.directions)
    weights = h.areas / h.total_area
    empty = []

    def phi(x):
        try:
            cut = _polar_hull(h.directions, x)
        except DegenerateBody:
            empty.append(x)
            return np.inf, np.zeros(h.k)
        vol = cut.areas @ cut.slack / 3.0
        return weights @ x - np.log(vol), weights - cut.areas / vol

    x = np.ones(h.k)
    while True:
        empty.clear()
        start, x = x, minimize(phi, x, jac=True, method="L-BFGS-B",
                               options={"ftol": 0.0, "gtol": 1e-12}).x
        if not empty or np.array_equal(x, start):
            break
    cut = _polar_hull(h.directions, x)
    mesh = _hull_mesh(cut.scaled(np.sqrt(h.total_area / cut.areas.sum())))
    if np.abs(mesh.face_areas - h.areas).max() > 1e-5 * h.areas.max():
        raise OracleFailed(f"minimisation missed the areas for k={h.k}")
    return mesh.translate(-mesh.centroid)
