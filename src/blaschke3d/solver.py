"""Reconstruction of a convex polyhedron from a herisson.

The target face areas are reached by marching a homotopy parameter t from an
easy instance (support numbers 1, circumscribing the unit sphere, scaled to
the target's total area, so the march is the same in any unit of area) to
the prescribed areas in steps of 1/8 by Newton steps on the area Jacobian J;
the first step of each attempt, from the last accepted body, is the
predictor.  Every solve ends in one polish to rounding level.  J needs only
the edges (which faces meet, and how long the edge is), read afresh at each
step off the polar hull of the half-space intersection, so faces and edges
may appear or disappear freely along the way.  The face areas are
A = 1/2 J (h - D c) for any point c (`geometry._face_areas`).  One state
runs through the solve: the last accepted polar hull, its slack h - D c
(carried on as the support numbers, making the interior point c the
origin, the next centre), J and the areas; the boundary complex (merged
vertices, face cycles) of the returned body is built once, off that hull.
J is symmetric, and wherever every face has positive area its kernel is
exactly the translations (Alexandrov's mixed-volume lemma); one LU solve of
J plus a term that pins that kernel gives the update orthogonal to it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateAngle, DegenerateBody, NewtonDivergence,
                     OracleFailed, StepSizeUnderflow)
from .geometry import (MERGE_TOL, EdgeList, MeshPolyhedron,
                       SupportPolyhedron, _edge_arrays, _face_areas,
                       _hull_mesh, _intersect_arrays, _intersect_edges,
                       _polar_hull, check_positive_spanning)
from .herisson import Herisson

# A face whose area drops below this fraction of the total target area is
# treated as collapsing; the step is retried at half size.
_COLLAPSE_FRACTION = 1e-12
# Step attempts, accepted or rejected, before the march gives up.
_MAX_ATTEMPTS = 100000


@dataclass(frozen=True)
class ContinuationConfig:
    """Knobs of the homotopy march; steps grow to max(dt_initial, 1/8)."""

    dt_initial: float = 0.125
    dt_min: float = 1e-6
    newton_tol: float = 1e-9
    max_newton_iters: int = 20

    def __post_init__(self):
        if not (0.0 < self.dt_min <= self.dt_initial <= 1.0):
            raise ValueError("need 0 < dt_min <= dt_initial <= 1")
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")


@dataclass
class SolveTrace:
    """Diagnostics of one continuation run.

    `residual_history` holds the relative area residual of every accepted
    step; each entry is below the Newton tolerance by construction.
    `final_residual` is the returned mesh's, read off its last polish step.
    `intersections` and `jacobians` count the half-space intersections and
    area Jacobians computed, over accepted and rejected steps alike; the
    returned mesh is read off the last accepted intersection.
    `combinatorial_changes` counts the accepted steps whose face adjacency
    (edges longer than `MERGE_TOL` times the longest) differs from the last.
    `rejections` counts the rejected step attempts by cause: "diverged" (a
    non-finite update), "stalled" (no convergence within the iteration
    budget), "collapse" (a face area below the collapse floor) and
    "degenerate" (the intersection lost its interior).
    """

    steps_taken: int = 0
    dt_history: list = field(default_factory=list)
    residual_history: list = field(default_factory=list)
    final_residual: float = float("nan")
    combinatorial_changes: int = 0
    intersections: int = 0
    jacobians: int = 0
    rejections: dict = field(default_factory=lambda: dict.fromkeys(
        ("diverged", "stalled", "collapse", "degenerate"), 0))


class _State(NamedTuple):
    """One body of the solve: its `_polar_hull` (edge list, slack, hull and
    corners about the centre c), face areas 1/2 J slack and, once taken, J."""

    edges: EdgeList
    slack: np.ndarray
    polar: object
    corners: np.ndarray
    areas: np.ndarray
    jac: np.ndarray | None = None


def _hull_state(directions, h, trace):
    """The `_State` (without J) of the body with support numbers h."""
    trace.intersections += 1
    edges, slack, polar, corners, _ = _polar_hull(directions, h)
    return _State(edges, slack, polar, corners, _face_areas(edges, slack))


def _tangent_state(directions, trace):
    """`initial_polyhedron`'s body and its `_State`."""
    sp = SupportPolyhedron(np.asarray(directions, float),
                           np.ones(len(directions)))
    state = _hull_state(sp.directions, sp.support_numbers, trace)
    if state.areas.min() <= 0:
        raise DegenerateBody("tangent body lost a face; directions too close")
    return sp, state


def initial_polyhedron(directions):
    """Starting body of the march: all support numbers 1, circumscribing the
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


def _with_jacobian(state, trace):
    """`state` with its J, taken (and counted) if it has none."""
    if state.jac is None:
        trace.jacobians += 1
        state = state._replace(jac=area_jacobian(state.edges))
    return state


def _newton_step(directions, state, target, trace):
    """One Newton step towards the face areas `target`: the `_State` (with J)
    at slack + dh, J dh = target - areas, or None if dh is not finite.
    Raises DegenerateBody if that body has no interior."""
    state = _with_jacobian(state, trace)
    dh = _solve_kernel_free(state.jac, target - state.areas, directions)
    if not np.all(np.isfinite(dh)):
        return None
    return _with_jacobian(_hull_state(directions, state.slack + dh, trace),
                          trace)


def _newton_correct(directions, state, target, cfg, total_area, trace):
    """Newton steps from `state` until the face areas match `target`.
    Returns (cause, state, relative residual); cause is None on convergence,
    else why to shrink the step, one of the `SolveTrace.rejections` keys."""
    floor = _COLLAPSE_FRACTION * total_area
    ceiling = target.max()
    for _ in range(cfg.max_newton_iters + 1):
        try:
            state = _newton_step(directions, state, target, trace)
        except DegenerateBody:
            return "degenerate", None, np.inf
        if state is None:
            return "diverged", None, np.inf
        if state.areas.min() < floor:
            return "collapse", state, np.inf
        resid = float(np.abs(target - state.areas).max())
        if resid <= cfg.newton_tol * ceiling:
            return None, state, resid / ceiling
    return "stalled", state, resid / ceiling


def _adjacency(edges):
    """The face pairs of the edges longer than `MERGE_TOL` times the
    longest, the edges a mesh keeps after merging its close vertices."""
    keep = edges.lengths > MERGE_TOL * edges.lengths.max()
    return frozenset(zip(edges.i[keep].tolist(), edges.j[keep].tolist()))


def continuation_solve(h: Herisson, cfg: ContinuationConfig | None = None):
    """March the face areas from the tangent body to the herisson's areas.

    It starts from the tangent body scaled by sqrt(sum F / sum A0), at no
    intersection, so the homotopy (1 - t) A0 + t F keeps the total area; a
    start within the Newton tolerance of F starts at t = 1.  Either way the
    solve ends in `_polish`.  Returns (support polyhedron, mesh, trace); the
    mesh is recentered so its vertex centroid is the origin, and its face
    areas match the herisson within the Newton tolerance.
    """
    if cfg is None:
        cfg = ContinuationConfig()
    directions, target, trace = h.directions, h.areas, SolveTrace()
    _, state = _tangent_state(directions, trace)
    lam = np.sqrt(h.total_area / state.areas.sum())
    state = _State(state.edges._replace(lengths=lam * state.edges.lengths),
                   lam * state.slack, state.polar, lam * state.corners,
                   lam ** 2 * state.areas)
    areas0 = state.areas
    ceiling = max(target.max(), areas0.max())
    fixed = np.abs(target - areas0).max() <= cfg.newton_tol * ceiling
    adjacency = _adjacency(state.edges)
    t, dt, attempts = float(fixed), cfg.dt_initial, 0
    while t < 1.0 - 1e-15:
        state = _with_jacobian(state, trace)
        attempts += 1
        if attempts > _MAX_ATTEMPTS:
            raise StepSizeUnderflow("step budget exhausted", trace=trace)
        dt = min(dt, 1.0 - t)
        target_t = (1.0 - (t + dt)) * areas0 + (t + dt) * target
        cause, new, resid = _newton_correct(
            directions, state, target_t, cfg, h.total_area, trace)
        if cause is None:
            adj = _adjacency(new.edges)
            trace.combinatorial_changes += adj != adjacency
            state, adjacency = new, adj
            t += dt
            trace.steps_taken += 1
            trace.dt_history.append(dt)
            trace.residual_history.append(resid)
            trace.final_residual = resid
            # capped at 1/8: longer steps cost more Chebyshev-centre LPs
            dt = min(dt * 2.0, max(cfg.dt_initial, 0.125))
        else:
            trace.rejections[cause] += 1
            dt *= 0.5
            if dt < cfg.dt_min:
                err = NewtonDivergence if cause == "diverged" \
                    else StepSizeUnderflow
                raise err(f"correction {cause} at t={t:.6f} with step "
                          f"below {cfg.dt_min}", trace=trace)
    return _finish(directions, _polish(directions, state, target, trace),
                   trace)


def _polish(directions, state, target, trace):
    """Up to three more Newton steps from `state` (J taken if it has none),
    each kept only if it lowers the residual, none once it is 1e-14 of the
    largest area: they push it from the Newton tolerance down to
    rounding level, which the volume based equality verdicts rely on.
    Returns the last state kept; sets `trace.final_residual`."""
    resid = np.abs(target - state.areas).max()
    for _ in range(3):
        if resid <= 1e-14 * target.max():
            break
        try:
            new = _newton_step(directions, state, target, trace)
        except DegenerateBody:
            break
        if new is None or np.abs(target - new.areas).max() >= resid:
            break
        state, resid = new, np.abs(target - new.areas).max()
    trace.final_residual = float(resid) / target.max()
    return state


def _finish(directions, state, trace):
    """The support polyhedron and mesh of `state`'s body, moved so that the
    mesh's vertex centroid is the origin, and the trace."""
    mesh = _hull_mesh(state.edges, state.areas, state.polar, state.corners)
    shift = mesh.centroid
    return (SupportPolyhedron(directions, state.slack - directions @ shift),
            mesh.translate(-shift), trace)


# -- independent oracle: Minkowski's variational problem --------------------

def oracle_solve_small(h: Herisson) -> MeshPolyhedron:
    """Reconstruct a small herisson (k <= 8) by minimising Minkowski's
    functional (`_oracle_solve`): no area Jacobian, Newton step or march."""
    if h.k > 8:
        raise ValueError("oracle is limited to k <= 8 faces")
    return _oracle_solve(h)


def _oracle_solve(h):
    """The body with face areas F, from the minimiser x of Minkowski's convex
    functional Phi(x) = F.x / sum(F) - log Vol(x) (Little 1983; Lachand-Robert
    & Oudet 2005), whose gradient F / sum(F) - A(x) / Vol(x) vanishes where
    the areas A are proportional to F: one L-BFGS-B run from x = 1 (an empty
    body counts as +inf), rescaled by sqrt(sum(F) / sum(A)).  Raises
    OracleFailed when the areas miss F by more than 1e-5 of the largest."""
    from scipy.optimize import minimize
    check_positive_spanning(h.directions)
    weights = h.areas / h.total_area

    def phi(x):
        try:
            edges, slack = _intersect_edges(h.directions, x)
        except DegenerateBody:
            return np.inf, np.zeros(h.k)
        areas = _face_areas(edges, slack)
        vol = areas @ slack / 3.0
        return weights @ x - np.log(vol), weights - areas / vol

    x = minimize(phi, np.ones(h.k), jac=True, method="L-BFGS-B",
                 options={"ftol": 0.0, "gtol": 1e-12}).x
    scale = h.total_area / _intersect_arrays(h.directions, x).face_areas.sum()
    mesh = _intersect_arrays(h.directions, np.sqrt(scale) * x)
    if np.abs(mesh.face_areas - h.areas).max() > 1e-5 * h.areas.max():
        raise OracleFailed(f"minimisation missed the areas for k={h.k}")
    return mesh.translate(-mesh.centroid)
