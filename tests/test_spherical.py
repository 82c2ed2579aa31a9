import numpy as np
import pytest

from blaschke3d.errors import InvalidPolygon
from blaschke3d.spherical import (SphericalPolygon,
                                  spherical_identity_residual)


def equator_polygon():
    # walking east with the north side enclosed
    return SphericalPolygon(np.array([[1, 0, 0], [0, 1, 0],
                                      [-1, 0, 0], [0, -1, 0]], float))


def cap_vertices(c, rad, angles):
    """Points at angular radius `rad` about the unit vector `c`, at the
    given angles counterclockwise about it."""
    b1 = np.cross(c, [0.0, 0.0, 1.0])
    if np.linalg.norm(b1) < 1e-6:
        b1 = np.cross(c, [0.0, 1.0, 0.0])
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(c, b1)
    return np.cos(rad) * c + np.sin(rad) * (
        np.cos(angles)[:, None] * b1 + np.sin(angles)[:, None] * b2)


def random_cap_centre(rng):
    c = rng.standard_normal(3)
    return c / np.linalg.norm(c)


def small_cap_polygon(seed, radius_lo=0.6, radius_hi=1.0):
    rng = np.random.default_rng(seed)
    c = random_cap_centre(rng)
    n = int(rng.integers(3, 7))
    rad = rng.uniform(radius_lo, radius_hi)
    angles = np.sort(rng.uniform(0, 2 * np.pi, n))
    return SphericalPolygon(cap_vertices(c, rad, angles))


def regular_cap_vertices(n, rad):
    """A regular n-gon at angular radius `rad` about the north pole."""
    return cap_vertices(np.array([0.0, 0.0, 1.0]), rad,
                        2 * np.pi * np.arange(n) / n)


def first_crossing_by_loop(v):
    """Reference for the simple-polygon test, one arc pair at a time: the
    message naming the first crossing pair, or None."""
    n = len(v)
    arcs = [(v[k], v[(k + 1) % n]) for k in range(n)]
    poles = [np.cross(a, b) / np.linalg.norm(np.cross(a, b)) for a, b in arcs]

    def on_arc(p, k):
        (a, b), w = arcs[k], poles[k]
        return np.cross(a, p) @ w >= -1e-9 and np.cross(p, b) @ w >= -1e-9

    for i in range(n):
        for j in range(i + 2, n - (i == 0)):
            line = np.cross(poles[i], poles[j])
            gap = np.linalg.norm(line)
            if gap > 1e-9 and any(on_arc(p, i) and on_arc(p, j)
                                  for p in (line / gap, -line / gap)):
                return f"boundary arcs {i} and {j} intersect"
    return None


class TestValidation:
    def test_non_unit_vertices_rejected(self):
        with pytest.raises(InvalidPolygon):
            SphericalPolygon(np.array([[1.0, 0, 0], [0, 2.0, 0],
                                       [0, 0, 1.0]]))

    def test_antipodal_neighbours_rejected(self):
        with pytest.raises(InvalidPolygon):
            SphericalPolygon(np.array([[1.0, 0, 0], [-1.0, 0, 0],
                                       [0, 0, 1.0]]))

    def test_repeated_neighbours_rejected(self):
        with pytest.raises(InvalidPolygon):
            SphericalPolygon(np.array([[1.0, 0, 0], [1.0, 0, 0],
                                       [0, 0, 1.0]]))

    def test_self_intersecting_rejected(self):
        # bow tie over the north pole
        a = np.array([np.sin(0.5), 0, np.cos(0.5)])
        b = np.array([-np.sin(0.5), 0, np.cos(0.5)])
        c = np.array([0, np.sin(0.5), np.cos(0.5)])
        d = np.array([0, -np.sin(0.5), np.cos(0.5)])
        with pytest.raises(InvalidPolygon):
            SphericalPolygon(np.array([a, b, c, d]))

    def test_pentagram_names_its_first_crossing(self):
        star = regular_cap_vertices(5, 0.7)[[0, 2, 4, 1, 3]]
        with pytest.raises(InvalidPolygon,
                           match="^boundary arcs 0 and 2 intersect$"):
            SphericalPolygon(star)

    @pytest.mark.parametrize("n", [5, 1000])
    def test_regular_polygon_accepted(self, n):
        assert SphericalPolygon(regular_cap_vertices(n, 0.8)).n == n

    def test_first_crossing_in_a_later_row_block(self):
        # vertices 250 and 251 swapped: arcs 249 and 251 cross, and 400
        # arcs take several row blocks
        v = regular_cap_vertices(400, 0.8)[[*range(250), 251, 250,
                                            *range(252, 400)]]
        with pytest.raises(InvalidPolygon,
                           match="^boundary arcs 249 and 251 intersect$"):
            SphericalPolygon(v)

    def test_array_pass_matches_a_loop_over_arc_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(4, 10))
            v = random_cap_centre(rng) + 0.5 * rng.standard_normal((n, 3))
            v /= np.linalg.norm(v, axis=1)[:, None]
            try:
                SphericalPolygon(v)
                found = None
            except InvalidPolygon as err:
                found = str(err)
            assert found == first_crossing_by_loop(v)

    def test_touch_at_an_arc_end_rejected(self):
        # vertex 3 moved onto the middle of arc 0: arcs 2 and 3 touch arc 0
        # at their shared end, which an arccos on-arc test misses
        rng = np.random.default_rng(3)
        for _ in range(400):
            c = random_cap_centre(rng)
            v = cap_vertices(c, rng.uniform(0.3, 1.2),
                             np.sort(rng.uniform(0, 2 * np.pi, 6)))
            v[3] = (v[0] + v[1]) / np.linalg.norm(v[0] + v[1])
            with pytest.raises(InvalidPolygon,
                               match="^boundary arcs 0 and 2 intersect$"):
                SphericalPolygon(v)

    def test_nan_vertex_rejected(self):
        with pytest.raises(InvalidPolygon, match="unit vectors"):
            SphericalPolygon(np.array([[1.0, 0, 0], [0, 1.0, 0],
                                       [0, 0, np.nan]]))

    def test_two_vertices_rejected(self):
        with pytest.raises(InvalidPolygon):
            SphericalPolygon(np.array([[1.0, 0, 0], [0, 1.0, 0]]))


class TestClosedForms:
    def test_hemisphere_pieces(self):
        # 2 * integral over the upper hemisphere of the position vector is
        # 2*pi*e3; the boundary normal along the equator is the constant -e3
        from blaschke3d.spherical import (_boundary_normal_integral,
                                          _surface_position_integral)
        poly = equator_polygon()
        surf = 2.0 * _surface_position_integral(poly, 6)
        line = _boundary_normal_integral(poly)
        assert np.allclose(surf, [0, 0, 2 * np.pi], atol=1e-9)
        assert np.allclose(line, [0, 0, -2 * np.pi], atol=1e-12)

    def test_hemisphere_residual(self):
        res = spherical_identity_residual(equator_polygon(), 6)
        assert np.linalg.norm(res) <= 1e-8

    def test_octant_triangle_residual(self):
        res = spherical_identity_residual(SphericalPolygon(np.eye(3)), 6)
        assert np.linalg.norm(res) <= 1e-6

    def test_tiny_triangle_takes_its_apex_from_the_vertex_mean(self):
        # circumradius 1e-5 rad: the winding vector is 2.6e-10, too short
        # to give the fan apex
        poly = SphericalPolygon(regular_cap_vertices(3, 1e-5))
        res = spherical_identity_residual(poly, 4)
        assert np.all(np.isfinite(res))
        assert np.linalg.norm(res) <= 1e-12

    @pytest.mark.parametrize("vertices, area", [
        (np.zeros((0, 3)), 4 * np.pi), (np.eye(3), np.pi / 2),
        (equator_polygon().vertices, 2 * np.pi)])
    def test_area(self, vertices, area):
        assert SphericalPolygon(vertices).area == pytest.approx(area,
                                                                rel=1e-15)

    def test_whole_sphere(self):
        whole = SphericalPolygon(np.zeros((0, 3)))
        res = spherical_identity_residual(whole, 4)
        assert np.linalg.norm(res) <= 1e-10


class TestConvergence:
    @pytest.mark.parametrize("seed", [1, 2, 5, 8])
    def test_second_order_or_better(self, seed):
        poly = small_cap_polygon(seed)
        resid = [np.linalg.norm(spherical_identity_residual(poly, r))
                 for r in (3, 4, 5, 6)]
        for a, b in zip(resid, resid[1:]):
            assert b <= 0.3 * a

    @pytest.mark.parametrize("seed", [3, 4])
    def test_rotation_equivariance(self, seed):
        poly = small_cap_polygon(seed)
        theta = 0.73
        rot = np.array([[np.cos(theta), -np.sin(theta), 0],
                        [np.sin(theta), np.cos(theta), 0],
                        [0, 0, 1.0]])
        rotated = SphericalPolygon(poly.vertices @ rot.T)
        r0 = spherical_identity_residual(poly, 4)
        r1 = spherical_identity_residual(rotated, 4)
        assert np.allclose(rot @ r0, r1, atol=1e-9)
