"""The two additions on convex bodies.

The Minkowski sum adds points (support functions add); the Blaschke sum adds
face-area data per direction and reconstructs the body, and is the body P#Q
of the pair evaluator that the inequality checks read.  In 3-space the two
differ: summing a body with a rotated copy of itself can create faces out of
edge pairs, which Blaschke addition never does.
"""
from __future__ import annotations

import numpy as np

from .geometry import MeshPolyhedron, _group_sums, _row_blocks, convex_hull
from .herisson import Herisson
from .inequalities import _Pair
from .solver import ContinuationConfig

# Angle (radians) by which two caps may miss and still count as meeting:
# room for the rounding of the face normals and of the angles.
_CAP_SLACK = 1e-6


def _normal_caps(body):
    """The vertices of a body, and per vertex the axis and angular radius
    of a spherical cap that holds its normal cone.

    For a mesh the axis is the mean direction of the normals of the faces
    whose cycles (the mesh's `cycles`) hold the vertex, and the radius
    the largest angle from it to one of them.  A cap under pi/2 is
    geodesically convex, so it holds the cone those normals span.  A wider
    cap, a vertex in no cycle and every point of a raw array get radius pi,
    which holds every direction.
    """
    if not isinstance(body, MeshPolyhedron):
        pts = np.atleast_2d(np.asarray(body, float))
        return pts, np.zeros_like(pts), np.full(len(pts), np.pi)
    n = len(body.vertices)
    _, face, vid = body.cycles
    normals = body.face_normals[face]
    axes = _group_sums(vid, normals, n)
    norm = np.linalg.norm(axes, axis=1)
    axes = axes / np.where(norm > 0.0, norm, 1.0)[:, None]
    cos = np.where(np.bincount(vid, minlength=n) > 0, 1.0, -1.0)
    np.minimum.at(cos, vid, (normals * axes[vid]).sum(axis=1))
    radii = np.arccos(np.clip(cos, -1.0, 1.0))
    radii[radii >= np.pi / 2] = np.pi
    return body.vertices, axes, radii


def minkowski_sum(p, q) -> MeshPolyhedron:
    """Hull of the pairwise vertex sums that can be vertices of P + Q.
    Either argument may be a mesh or a raw point array (a single point
    translates the other body).

    A vertex of P + Q is p + q for the one vertex pair whose normal cones
    share an interior direction (Fukuda 2004), so only the pairs whose
    `_normal_caps` meet, within `_CAP_SLACK`, are hulled.  The kept sums
    hold every vertex of P + Q and lie in it, so their hull is P + Q
    exactly, not an approximation.  The test runs in row blocks: neither
    all pairwise sums nor a matrix over all pairs is ever built.

    Operand contract: a mesh's face cycles are its boundary complex, as for
    every mesh the library builds (`convex_hull`, `intersect_halfspaces`,
    the solver, `import_off`).  A raw point array keeps all of its pairs.
    """
    vp, ap, rp = _normal_caps(p)
    vq, aq, rq = _normal_caps(q)
    kept = [np.empty((0, 3))]
    for rows in _row_blocks(len(vp), len(vq)):
        gap = np.arccos(np.clip(ap[rows] @ aq.T, -1.0, 1.0))
        i, j = np.nonzero(gap <= rp[rows, None] + rq + _CAP_SLACK)
        kept.append(vp[rows][i] + vq[j])
    return convex_hull(np.concatenate(kept))


def blaschke_sum_bodies(p: MeshPolyhedron | Herisson,
                        q: MeshPolyhedron | Herisson,
                        cfg: ContinuationConfig | None = None) -> MeshPolyhedron:
    """Body whose per-direction face areas are the sums of the operands',
    each given by its mesh or by its face data (used as is): the body P#Q
    of the checks' pair evaluator, reconstructed with `cfg`."""
    return _Pair(p, q, cfg).blaschke.mesh
