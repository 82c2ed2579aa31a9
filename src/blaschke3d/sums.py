"""The two additions on convex bodies.

The Minkowski sum adds points (support functions add); the Blaschke sum adds
face-area data per direction and reconstructs the body.  In 3-space the two
differ: summing a body with a rotated copy of itself can create faces out of
edge pairs, which Blaschke addition never does.
"""
from __future__ import annotations

import numpy as np

from .geometry import MeshPolyhedron, convex_hull
from .herisson import Herisson, blaschke_add, herisson_of_mesh
from .solver import ContinuationConfig, continuation_solve


def _vertex_array(body):
    if isinstance(body, MeshPolyhedron):
        return body.vertices
    return np.atleast_2d(np.asarray(body, float))


def minkowski_sum(p, q) -> MeshPolyhedron:
    """Hull of all pairwise vertex sums.  Either argument may be a mesh or a
    raw point array (a single point translates the other body)."""
    vp = _vertex_array(p)
    vq = _vertex_array(q)
    pts = (vp[:, None, :] + vq[None, :, :]).reshape(-1, 3)
    return convex_hull(pts)


def blaschke_sum_bodies(p: MeshPolyhedron | Herisson,
                        q: MeshPolyhedron | Herisson,
                        cfg: ContinuationConfig | None = None) -> MeshPolyhedron:
    """Body whose per-direction face areas are the sums of the operands',
    each given by its mesh or by its face data (used as is)."""
    p, q = (b if isinstance(b, Herisson) else herisson_of_mesh(b)
            for b in (p, q))
    return continuation_solve(blaschke_add(p, q), cfg)[1]
