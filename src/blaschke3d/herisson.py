"""Herisson algebra.

A herisson is a finite set of distinct unit directions, not all in one plane
through the origin, carrying positive weights whose weighted direction sum
vanishes.  It is exactly the data of the face normals and face areas of a
bounded convex polyhedron, and adds linearly: matching directions add their
weights, the rest are kept as is.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ClosureViolation, GenerationFailed, NonPositiveArea,
                     NonPositiveScale, RankDeficient)
from .geometry import (MeshPolyhedron, as_unit_rows,
                       check_distinct_directions, match_directions)

# Residual above this fraction of the total area cannot be repaired.
CLOSURE_REPAIR_GATE = 1e-4
# Residual below this fraction is already exact for our purposes; repairing
# it would only churn the last bits.
_NEGLIGIBLE_RESIDUAL = 1e-12


@dataclass(frozen=True)
class Herisson:
    """Directions with positive areas satisfying the closure identity.

    `correction` records the Euclidean size of the least-squares area repair
    applied at validation time (0 when none was needed).
    """

    directions: np.ndarray
    areas: np.ndarray
    correction: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "directions", as_unit_rows(self.directions))
        object.__setattr__(self, "areas",
                           np.asarray(self.areas, float).ravel())

    @property
    def k(self):
        return self.directions.shape[0]

    @property
    def total_area(self):
        return float(self.areas.sum())

    def closure_residual(self):
        return self.areas @ self.directions


def _split_raw(entries_or_directions, areas):
    if areas is not None:
        return (np.atleast_2d(np.asarray(entries_or_directions, float)),
                np.asarray(areas, float).ravel())
    dirs = np.array([np.asarray(d, float) for d, _ in entries_or_directions])
    ars = np.array([float(a) for _, a in entries_or_directions])
    return dirs, ars


def validate_herisson(entries_or_directions, areas=None) -> Herisson:
    """Check the herisson invariants and repair a small closure defect.

    Accepts a list of (direction, area) pairs or separate arrays.  A closure
    residual up to 1e-4 of the total area (as left by truncated decimal
    input) is removed by least-squares projection of the area vector onto
    the closure subspace; a larger residual, or a repair that drives some
    area nonpositive, is an error.
    """
    dirs, ars = _split_raw(entries_or_directions, areas)
    if len(ars) == 0:
        raise NonPositiveArea("empty herisson")
    if np.any(ars <= 0):
        raise NonPositiveArea(
            f"area {float(ars.min())} at entry {int(np.argmin(ars))}")
    dirs = as_unit_rows(dirs)
    if len(dirs) != len(ars):
        raise ValueError("one area per direction required")
    check_distinct_directions(dirs)
    sv = np.linalg.svd(dirs, compute_uv=False)
    if sv[-1] <= 1e-9 * sv[0]:
        raise RankDeficient("all directions lie in a plane through the origin")

    total = float(ars.sum())
    residual = float(np.linalg.norm(ars @ dirs))
    correction = 0.0
    if residual > CLOSURE_REPAIR_GATE * total:
        raise ClosureViolation(
            f"closure residual {residual:.3e} exceeds "
            f"{CLOSURE_REPAIR_GATE:g} of the total area {total:.3e}",
            residual=residual)
    if residual > _NEGLIGIBLE_RESIDUAL * total:
        repaired = _project_closure(dirs, ars)
        if np.any(repaired <= 0):
            raise ClosureViolation(
                "closure repair drives an area nonpositive",
                residual=residual)
        correction = float(np.linalg.norm(repaired - ars))
        ars = repaired
    return Herisson(directions=dirs, areas=ars, correction=correction)


def _project_closure(dirs, ars):
    """Least-squares projection of the area vector onto {sum F_j n_j = 0}."""
    gram = dirs.T @ dirs
    shift = dirs @ np.linalg.solve(gram, ars @ dirs)
    return ars - shift


def herisson_of_mesh(p: MeshPolyhedron) -> Herisson:
    """One entry per positive-area face: (outward normal, face area)."""
    live = p.face_areas > 0
    return Herisson(directions=p.face_normals[live], areas=p.face_areas[live])


def blaschke_add(a: Herisson, b: Herisson) -> Herisson:
    """Union of the direction sets; directions matching within the merge
    tolerance get the sum of the two areas, the rest keep their own."""
    hit = match_directions(b.directions, a.directions)
    new = hit < 0
    areas = a.areas + np.bincount(hit[~new], b.areas[~new], a.k)
    return Herisson(directions=np.vstack([a.directions, b.directions[new]]),
                    areas=np.concatenate([areas, b.areas[new]]))


def blaschke_scale(h: Herisson, t: float) -> Herisson:
    """Multiply every area by t > 0 (the body scales by sqrt(t))."""
    if not t > 0:
        raise NonPositiveScale(f"scale factor must be positive, got {t}")
    return Herisson(directions=h.directions, areas=h.areas * t)


# Random generation: pairwise separation keeps the reconstruction problem
# well conditioned, the floor keeps faces away from degeneracy.
_MIN_SEPARATION = 0.15
_MIN_AREA = 0.1


def random_herisson(k: int, seed: int) -> Herisson:
    """Deterministic random herisson with k faces.

    Directions are drawn uniformly on the sphere, rejecting near-duplicates;
    raw areas uniform in [0.5, 2] are projected onto the closure subspace.
    The whole draw is repeated until every projected area stays above 0.1.
    """
    if k < 4:
        raise ValueError("need k >= 4")
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        dirs = _draw_directions(rng, k)
        if dirs is None:
            continue
        ars = _project_closure(dirs, rng.uniform(0.5, 2.0, size=k))
        if ars.min() < _MIN_AREA:
            continue
        return validate_herisson(dirs, ars)
    raise GenerationFailed(
        f"no valid herisson in 1000 attempts (k={k}, seed={seed})")


def _draw_directions(rng, k):
    dirs = []
    tries = 0
    while len(dirs) < k:
        if tries > 400:
            return None
        tries += 1
        v = rng.standard_normal(3)
        n = np.linalg.norm(v)
        if n < 1e-12:
            continue
        v = v / n
        if dirs and min(np.linalg.norm(np.array(dirs) - v, axis=1)) \
                < _MIN_SEPARATION:
            continue
        dirs.append(v)
    return np.array(dirs)
