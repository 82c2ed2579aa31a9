"""Numerical verification of the closed-surface identity on the sphere.

For a domain D on the unit sphere bounded by great-circle arcs, twice the
surface integral of the position vector over D cancels the line integral of
the outward (with respect to D) boundary normal that is tangent to the
sphere:

    2 * integral_D N dsigma + integral_dD n ds = 0.

`spherical_identity_residual` evaluates the surface side by quadrature and
the boundary side exactly, and returns their sum, which tends to zero as
the refinement of the surface quadrature grows.

Conventions.  The polygon's vertices run counterclockwise as seen from
outside the sphere with D on the left of the walk; along each arc the
outward boundary normal is then T x p (tangent direction cross position),
which the hemisphere's closed form pins down.  An empty vertex list means
D is the whole sphere.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidPolygon
from .geometry import unit

# degree-4 symmetric triangle rule (6 points, positive weights); composite
# refinement then converges at fifth order, comfortably above the required
# second order
_TRI_A = 0.445948490915965
_TRI_B = 0.091576213509771
_TRI_WA = 0.223381589678011
_TRI_WB = 0.109951743655322
_TRI_BARY = np.array(
    [[1 - 2 * _TRI_A, _TRI_A, _TRI_A],
     [_TRI_A, 1 - 2 * _TRI_A, _TRI_A],
     [_TRI_A, _TRI_A, 1 - 2 * _TRI_A],
     [1 - 2 * _TRI_B, _TRI_B, _TRI_B],
     [_TRI_B, 1 - 2 * _TRI_B, _TRI_B],
     [_TRI_B, _TRI_B, 1 - 2 * _TRI_B]])
_TRI_W = np.array([_TRI_WA] * 3 + [_TRI_WB] * 3)


@dataclass(frozen=True)
class SphericalPolygon:
    """Boundary of a spherical domain: unit vertices joined by minor arcs,
    counterclockwise around the enclosed domain."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, float)
        if v.size == 0:
            v = v.reshape(0, 3)
        v = np.atleast_2d(v)
        if v.shape[1] != 3:
            raise InvalidPolygon("vertices must be 3-vectors")
        if len(v) in (1, 2):
            raise InvalidPolygon("need at least 3 vertices (or none for the "
                                 "whole sphere)")
        if not np.all(np.abs(np.linalg.norm(v, axis=1) - 1.0) <= 1e-12):
            raise InvalidPolygon("vertices must be unit vectors within 1e-12")
        object.__setattr__(self, "vertices", v)
        if len(v):
            nxt = np.roll(v, -1, axis=0)
            same = np.linalg.norm(v - nxt, axis=1)
            anti = np.linalg.norm(v + nxt, axis=1)
            if same.min() <= 1e-9 or anti.min() <= 1e-9:
                raise InvalidPolygon("consecutive vertices equal or antipodal")
            _check_simple(v)

    @property
    def n(self):
        return len(self.vertices)


def _check_simple(v):
    """Reject polygons whose non-adjacent arcs cross."""
    n = len(v)
    arcs = [(v[i], v[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _arcs_cross(*arcs[i], *arcs[j]):
                raise InvalidPolygon(
                    f"boundary arcs {i} and {j} intersect")


def _arcs_cross(a, b, c, d):
    w1 = np.cross(a, b)
    w2 = np.cross(c, d)
    line = np.cross(w1, w2)
    norm = np.linalg.norm(line)
    if norm < 1e-12:
        return False  # same great circle; overlap treated as non-crossing
    for p in (line / norm, -line / norm):
        if _on_minor_arc(p, a, b) and _on_minor_arc(p, c, d):
            return True
    return False


def _on_minor_arc(p, a, b, tol=1e-9):
    whole = np.arccos(np.clip(a @ b, -1, 1))
    part = (np.arccos(np.clip(a @ p, -1, 1))
            + np.arccos(np.clip(p @ b, -1, 1)))
    return part <= whole + tol


_OCTANT_SIGNS = [(sx, sy, sz) for sx in (1, -1) for sy in (1, -1)
                 for sz in (1, -1)]


def _fan_triangles(poly):
    """Signed flat triangles whose radial projections tile D.

    Uses a fan apex from the winding of the vertex loop; triangles opposite
    in orientation subtract, so the apex need not lie inside D.  The whole
    sphere comes from the eight octants.
    """
    v = poly.vertices
    if len(v) == 0:
        tris = []
        for sx, sy, sz in _OCTANT_SIGNS:
            a = np.array([float(sx), 0.0, 0.0])
            b = np.array([0.0, float(sy), 0.0])
            c = np.array([0.0, 0.0, float(sz)])
            if np.linalg.det(np.stack([a, b, c])) < 0:
                b, c = c, b
            tris.append((a, b, c))
        return tris
    nxt = np.roll(v, -1, axis=0)
    winding = np.cross(v, nxt).sum(axis=0)
    if np.linalg.norm(winding) > 1e-9:
        apex = unit(winding)
    else:
        mean = v.mean(axis=0)
        if np.linalg.norm(mean) < 1e-9:
            raise InvalidPolygon("cannot place a fan apex for this polygon")
        apex = unit(mean)
    if np.abs(v @ apex + 1.0).min() < 1e-6:
        raise InvalidPolygon("fan apex antipodal to a vertex")
    return [(apex, v[i], nxt[i]) for i in range(len(v))]


def _subdivide(tris, depth):
    """Split every flat triangle into 4 at edge midpoints, `depth` times;
    the union is exactly the original flat triangle set."""
    a = np.array([t[0] for t in tris])
    b = np.array([t[1] for t in tris])
    c = np.array([t[2] for t in tris])
    for _ in range(depth):
        ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
        a = np.concatenate([a, ab, ca, ab])
        b = np.concatenate([ab, b, bc, bc])
        c = np.concatenate([ca, bc, c, ca])
    return a, b, c


def _surface_position_integral(poly, refinement):
    """integral_D N dsigma by composite quadrature: each flat sub-triangle is
    pulled back through the radial projection x -> x/|x|, whose area element
    is (x . M) / (2 |x|^3) per unit barycentric area with M the triangle's
    edge cross product; M's sign makes oppositely wound triangles cancel."""
    a, b, c = _subdivide(_fan_triangles(poly), refinement)
    m = np.cross(b - a, c - a)
    total = np.zeros(3)
    for lam, wq in zip(_TRI_BARY, _TRI_W):
        x = lam[0] * a + lam[1] * b + lam[2] * c
        r = np.linalg.norm(x, axis=1)
        coef = wq * (x * m).sum(axis=1) / r ** 4
        total += coef @ x
    return 0.5 * total


def _boundary_normal_integral(poly):
    """integral_dD n ds in closed form: along the arc from a to b the
    normal T x p (T the unit tangent in walk direction) is the constant -w,
    w = unit(a x b), so the arc adds -theta w, theta its length."""
    v = poly.vertices
    nxt = np.roll(v, -1, axis=0)
    cross = np.cross(v, nxt)
    sin = np.linalg.norm(cross, axis=1)
    theta = np.arctan2(sin, (v * nxt).sum(axis=1))
    return -(theta / sin) @ cross


def spherical_identity_residual(poly: SphericalPolygon,
                                refinement: int = 1) -> np.ndarray:
    """Numerical value of 2 * integral_D N dsigma + integral_dD n ds.

    Identically zero for the exact integrals; the boundary side is exact,
    and the returned vector shrinks toward zero at better than second order
    in the refinement depth of the surface quadrature.
    """
    if refinement < 1:
        raise ValueError("refinement must be >= 1")
    if not isinstance(poly, SphericalPolygon):
        poly = SphericalPolygon(np.asarray(poly, float))
    return (2.0 * _surface_position_integral(poly, refinement)
            + _boundary_normal_integral(poly))
