import numpy as np
import pytest

from blaschke3d.errors import InvalidPolygon
from blaschke3d.spherical import (SphericalPolygon,
                                  spherical_identity_residual)


def equator_polygon():
    # walking east with the north side enclosed
    return SphericalPolygon(np.array([[1, 0, 0], [0, 1, 0],
                                      [-1, 0, 0], [0, -1, 0]], float))


def small_cap_polygon(seed, radius_lo=0.6, radius_hi=1.0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(3)
    c /= np.linalg.norm(c)
    b1 = np.cross(c, [0.0, 0.0, 1.0])
    if np.linalg.norm(b1) < 1e-6:
        b1 = np.cross(c, [0.0, 1.0, 0.0])
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(c, b1)
    n = int(rng.integers(3, 7))
    rad = rng.uniform(radius_lo, radius_hi)
    angles = np.sort(rng.uniform(0, 2 * np.pi, n))
    pts = [np.cos(rad) * c + np.sin(rad) * (np.cos(a) * b1 + np.sin(a) * b2)
           for a in angles]
    return SphericalPolygon(np.array(pts))


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
