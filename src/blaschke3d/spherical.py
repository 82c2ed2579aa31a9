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
D is the whole sphere.  The polygon must be simple: no two non-adjacent
arcs cross or touch (arcs on one great circle are not compared), which one
array pass over all arc pairs decides.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPolygon
from .geometry import _row_blocks, unit

# the one tolerance of the simple-polygon test, an angle in radians
_ARC_TOL = 1e-9

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
            _check_simple(v, nxt)

    @property
    def n(self):
        return len(self.vertices)

    @property
    def area(self):
        """The area of D, the sum of the signed fan triangles' spherical
        excesses E: tan(E/2) = a.(b x c) / (1 + a.b + b.c + c.a)."""
        a, b, c = _fan_triangles(self)
        dots = 1.0 + ((a * b) + (b * c) + (c * a)).sum(axis=1)
        return float(2.0 * np.arctan2((a * np.cross(b, c)).sum(axis=1),
                                      dots).sum())


def _check_simple(v, nxt):
    """Reject polygons where two non-adjacent arcs cross or touch, naming
    the first pair in (i, j) order; all pairs are tested in row blocks.

    Arc k runs from a_k = v[k] to b_k = nxt[k] about its unit pole w_k.  The
    circles of arcs i and j meet at +-p, p = (w_i x w_j) / g, g = |w_i x w_j|,
    and p lies on arc k iff the sines (a_k x p).w_k and (p x b_k).w_k are
    >= -tol.  For arcs i and j these four sines are a_i.w_j, -b_i.w_j,
    -a_j.w_i and b_j.w_i over g; -p lies on both iff all four are <= tol.
    Arcs with g <= tol lie on one circle and are not compared.
    """
    n = len(v)
    cross = np.cross(v, nxt)
    w = cross / np.linalg.norm(cross, axis=1)[:, None]
    for rows in _row_blocks(n, 3 * n):
        gap = np.linalg.norm(np.cross(w[rows, None], w), axis=2)
        sines = np.stack([v[rows] @ w.T, -(nxt[rows] @ w.T),
                          -(w[rows] @ v.T), w[rows] @ nxt.T])
        tol = _ARC_TOL * gap
        hit = (sines.min(axis=0) >= -tol) | (sines.max(axis=0) <= tol)
        apart = np.arange(n) - np.arange(n)[rows, None]  # j - i
        hit &= (gap > _ARC_TOL) & (apart >= 2) & (apart <= n - 2)
        for i, j in np.argwhere(hit)[:1]:
            raise InvalidPolygon(
                f"boundary arcs {rows.start + i} and {j} intersect")


def _octant_triangles():
    """The whole sphere as eight flat octant triangles (a, b, c), wound
    counterclockwise from outside: b, c swap where det = sign product < 0."""
    tris = []
    for signs in itertools.product((1.0, -1.0), repeat=3):
        a, b, c = np.diag(signs)
        tris.append((a, b, c) if np.prod(signs) > 0 else (a, c, b))
    return tuple(np.array(corner) for corner in zip(*tris))


_OCTANTS = _octant_triangles()


def _fan_triangles(poly):
    """Signed flat triangles, as three (m, 3) corner arrays a, b, c, whose
    radial projections tile D.

    Uses a fan apex from the winding of the vertex loop; triangles opposite
    in orientation subtract, so the apex need not lie inside D.  The whole
    sphere comes from the eight octants.
    """
    v = poly.vertices
    if len(v) == 0:
        return _OCTANTS
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
    return np.broadcast_to(apex, v.shape), v, nxt


def _subdivide(a, b, c, depth):
    """Split every flat triangle into 4 at edge midpoints, `depth` times;
    the union is exactly the original flat triangle set."""
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
    a, b, c = _subdivide(*_fan_triangles(poly), refinement)
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
    return (2.0 * _surface_position_integral(poly, refinement)
            + _boundary_normal_integral(poly))
