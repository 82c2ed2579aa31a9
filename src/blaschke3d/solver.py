"""Reconstruction of a convex polyhedron from a herisson.

The target face areas are reached by marching a homotopy parameter t from an
easy instance (all support numbers 1, a body circumscribing the unit sphere)
to the prescribed areas.  Each step predicts a support-number update through
the area Jacobian and corrects it with Newton iterations on the same matrix.
The area Jacobian J needs only the edges (which faces meet, and how long the
edge is), and every Newton iteration reads them afresh off the polar hull of
the half-space intersection, so faces and edges may appear or disappear
freely along the way.  The face areas come from the same matrix: they are
homogeneous of degree 2 in the support numbers h and J kills translations,
so A = 1/2 J (h - D c) for any point c (Minkowski's mixed-volume formula).
The boundary complex (merged vertices, face cycles) is built once per
solve, for the returned body.  J is symmetric, and wherever every face has
positive area its kernel is exactly the three-dimensional space of
translations (Alexandrov's mixed-volume lemma); one LU solve of J plus a
term that pins that kernel gives the update orthogonal to it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateAngle, DegenerateBody, NewtonDivergence,
                     OracleFailed, StepSizeUnderflow)
from .geometry import (EdgeList, MeshPolyhedron, SupportPolyhedron,
                       _edge_arrays, _intersect_arrays, _intersect_edges,
                       check_positive_spanning, intersect_halfspaces)
from .herisson import Herisson

# A face whose area drops below this fraction of the total target area is
# treated as collapsing; the step is retried at half size.
_COLLAPSE_FRACTION = 1e-12


@dataclass(frozen=True)
class ContinuationConfig:
    """Knobs of the homotopy march."""

    dt_initial: float = 0.01
    dt_min: float = 1e-6
    newton_tol: float = 1e-9
    max_newton_iters: int = 20
    max_steps: int = 100000

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
    `final_residual` is the relative area residual of the returned mesh.
    `intersections` and `jacobians` count the half-space intersections and
    area Jacobians computed, over accepted and rejected steps alike;
    `intersections` includes the final build of the returned mesh.
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


def initial_polyhedron(directions):
    """Starting body of the march: all support numbers 1, circumscribing the
    unit sphere, where every face has positive area.  Returns the body and
    its face areas."""
    sp, mesh = _tangent_body(directions)
    return sp, mesh.face_areas.copy()


def _tangent_body(directions):
    """The starting body of `initial_polyhedron` and its mesh."""
    sp = SupportPolyhedron(np.asarray(directions, float),
                           np.ones(len(directions)))
    mesh = intersect_halfspaces(sp)
    if mesh.face_areas.min() <= 0:
        raise DegenerateBody("tangent body lost a face; directions too close")
    return sp, mesh


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
    i, j, lengths, sin, cos = _edge_arrays(p)
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


def _area_state(directions, h, trace):
    """Edge list, area Jacobian and face areas of the body with support
    numbers h, from one half-space intersection: the areas are
    1/2 J (h - D c), as they are homogeneous of degree 2 in h and J kills
    the translations."""
    trace.intersections += 1
    edges, slack = _intersect_edges(directions, h)
    trace.jacobians += 1
    jac = area_jacobian(edges)
    return edges, jac, 0.5 * (jac @ slack)


def _newton_correct(directions, h, target, cfg, total_area, trace):
    """Newton-iterate the support numbers until the face areas match
    `target`.  Every iteration reads the edges off the polar hull and takes
    the areas as 1/2 J (h - D c) (`_area_state`); no boundary complex is
    built.  Returns (cause, h, (edges, jac, areas), relative residual):
    cause is None on convergence, otherwise why the caller should shrink
    the step, one of the `SolveTrace.rejections` keys."""
    floor = _COLLAPSE_FRACTION * total_area
    ceiling = target.max()
    for _ in range(cfg.max_newton_iters + 1):
        try:
            state = _area_state(directions, h, trace)
        except DegenerateBody:
            return "degenerate", h, None, np.inf
        _, jac, areas = state
        if areas.min() < floor:
            return "collapse", h, state, np.inf
        resid = float(np.abs(target - areas).max())
        if resid <= cfg.newton_tol * ceiling:
            return None, h, state, resid / ceiling
        dh = _solve_kernel_free(jac, target - areas, directions)
        if not np.all(np.isfinite(dh)):
            return "diverged", h, state, np.inf
        h = h + dh
    return "stalled", h, state, resid / ceiling


def continuation_solve(h: Herisson, cfg: ContinuationConfig | None = None):
    """March the face areas from the tangent body to the herisson's areas.

    Returns (support polyhedron, mesh, trace); the mesh is recentered so its
    vertex centroid is the origin, and its face areas match the herisson
    within the Newton tolerance.
    """
    if cfg is None:
        cfg = ContinuationConfig()
    directions = h.directions
    target = h.areas
    total_area = h.total_area
    trace = SolveTrace()

    start, mesh = _tangent_body(directions)
    trace.intersections += 1
    areas0 = mesh.face_areas
    hvec = start.support_numbers.copy()

    ceiling = max(target.max(), areas0.max())
    if np.abs(target - areas0).max() <= cfg.newton_tol * ceiling:
        trace.final_residual = float(np.abs(target - areas0).max()) / ceiling
        return _finish(directions, hvec, mesh, trace)

    adjacency = mesh.adjacency()
    trace.jacobians += 1
    jac = area_jacobian(mesh)
    t = 0.0
    dt = cfg.dt_initial
    attempts = 0
    while t < 1.0 - 1e-15:
        attempts += 1
        if attempts > cfg.max_steps:
            raise StepSizeUnderflow("step budget exhausted", trace=trace)
        dt = min(dt, 1.0 - t)
        target_t = (1.0 - (t + dt)) * areas0 + (t + dt) * target

        dh = _solve_kernel_free(jac, dt * (target - areas0), directions)
        predicted = bool(np.all(np.isfinite(dh)))
        cause = "diverged"
        if predicted:
            cause, h_new, state, resid = _newton_correct(
                directions, hvec + dh, target_t, cfg, total_area, trace)

        if cause is None:
            edges, jac, areas = state
            adjacency_new = frozenset(zip(edges.i.tolist(), edges.j.tolist()))
            if adjacency_new != adjacency:
                trace.combinatorial_changes += 1
                adjacency = adjacency_new
            hvec = h_new
            t += dt
            trace.steps_taken += 1
            trace.dt_history.append(dt)
            trace.residual_history.append(resid)
            trace.final_residual = resid
            # the corrector makes large steps safe once the march is going;
            # halving below still handles the hard stretches
            dt = min(dt * 2.0, max(cfg.dt_initial, 0.125))
        else:
            trace.rejections[cause] += 1
            dt *= 0.5
            if dt < cfg.dt_min:
                # a failed predictor is a divergence; a failed corrector
                # means the step is too long
                err = StepSizeUnderflow if predicted else NewtonDivergence
                raise err(f"correction {cause} at t={t:.6f} with step "
                          f"below {cfg.dt_min}", trace=trace)

    # polish: a couple of extra Newton steps push the area residual from the
    # configured tolerance down to rounding level, which the volume based
    # equality verdicts rely on
    hvec = _polish(directions, hvec, jac, areas, target, trace)
    # the one boundary complex of the march: the returned body's.  Its
    # vertex merge moves the areas of faces with edges below the merge
    # tolerance (the edge list drops those edges instead), so the reported
    # residual is taken from its own areas
    trace.intersections += 1
    mesh = _intersect_arrays(directions, hvec)
    trace.final_residual = float(np.abs(target - mesh.face_areas).max()) \
        / target.max()
    return _finish(directions, hvec, mesh, trace)


def _polish(directions, hvec, jac, areas, target, trace):
    """Up to three more Newton steps from the accepted support numbers (with
    area Jacobian `jac` and face areas `areas`), each kept only if it lowers
    the residual, on edge lists as in `_newton_correct`.  Returns the final
    support numbers."""
    resid = np.abs(target - areas).max()
    for _ in range(3):
        dh = _solve_kernel_free(jac, target - areas, directions)
        if not np.all(np.isfinite(dh)):
            break
        try:
            _, jac_new, areas_new = _area_state(directions, hvec + dh, trace)
        except DegenerateBody:
            break
        resid_new = np.abs(target - areas_new).max()
        if resid_new >= resid:
            break
        hvec, jac, areas, resid = hvec + dh, jac_new, areas_new, resid_new
    return hvec


def _finish(directions, hvec, mesh, trace):
    shift = mesh.centroid
    mesh = mesh.translate(-shift)
    hvec = hvec - directions @ shift
    return (SupportPolyhedron(directions, hvec), mesh, trace)


# -- independent small-instance oracle --------------------------------------

_ORACLE_STARTS = 20
_ORACLE_SEED = 1234


def oracle_solve_small(h: Herisson) -> MeshPolyhedron:
    """Reconstruct a small herisson (k <= 8) without the homotopy machinery:
    direct least-squares minimization of the squared area misfit over the
    support vector, multi-start around the tangent body, finite-difference
    Jacobian only."""
    if h.k > 8:
        raise ValueError("oracle is limited to k <= 8 faces")
    from scipy.optimize import least_squares
    directions = h.directions
    target = h.areas
    check_positive_spanning(directions)
    big = 1e6 * target.max()

    def misfit(hvec):
        try:
            mesh = _intersect_arrays(directions, hvec)
        except DegenerateBody:
            return np.full(h.k, big)
        return mesh.face_areas - target

    rng = np.random.default_rng(_ORACLE_SEED)
    accept = 1e-10 * target.max() ** 2
    for trial in range(_ORACLE_STARTS):
        x0 = np.ones(h.k)
        if trial > 0:
            x0 = x0 + 0.25 * (trial / _ORACLE_STARTS) * rng.standard_normal(h.k)
        res = least_squares(misfit, x0, method="trf", jac="3-point",
                            ftol=1e-15, xtol=1e-15, gtol=1e-15, max_nfev=4000)
        if float(np.sum(res.fun ** 2)) <= accept:
            mesh = _intersect_arrays(directions, res.x)
            return mesh.translate(-mesh.centroid)
    raise OracleFailed(
        f"no start reached the acceptance residual for k={h.k}")
