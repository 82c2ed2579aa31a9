import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blaschke3d.bodies import (box_mesh, cube_mesh, icosahedron_directions,
                               icosphere_mesh, tetrahedron_mesh)
from blaschke3d.errors import (DegenerateBody, DuplicateDirection,
                               UnboundedRegion)
from blaschke3d.geometry import (DIRECTION_TOL, MeshPolyhedron,
                                 SupportPolyhedron, _hull_mesh,
                                 _interior_point, _intersect_arrays, _median,
                                 _polar_hull,
                                 check_distinct_directions,
                                 contains_by_translation, convex_hull,
                                 integral_mean_curvature,
                                 intersect_halfspaces, match_directions,
                                 support_value, unit, validate_mesh,
                                 vector_area_residual, volume)

from blaschke3d.herisson import random_herisson
from blaschke3d.solver import area_jacobian
from helpers import (centered, count_linprog, divergence_volume,
                     enumerate_intersection, random_tangent_mesh,
                     vertex_sets_match)

AXES = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                 [0, -1, 0], [0, 0, 1], [0, 0, -1]], float)


def unit_cube():
    return cube_mesh(1.0)


class TestIntersectHalfspaces:
    def test_axis_aligned_cube(self):
        mesh = intersect_halfspaces(SupportPolyhedron(AXES, np.ones(6)))
        assert len(mesh.vertices) == 8
        assert mesh.face_count == 6
        assert np.allclose(mesh.face_areas, 4.0, rtol=1e-12)
        assert len(mesh.edge_lengths) == 12
        for length in mesh.edge_lengths.values():
            assert length == pytest.approx(2.0, rel=1e-12)
        validate_mesh(mesh)

    def test_icosahedral_directions_tangent_body(self):
        mesh = intersect_halfspaces(
            SupportPolyhedron(icosahedron_directions(), np.ones(20)))
        assert mesh.face_count == 20
        assert len(mesh.vertices) == 12
        # all tangent planes at distance 1: equal faces by symmetry
        assert np.ptp(mesh.face_areas) <= 1e-12 * mesh.face_areas.max()
        assert np.allclose(mesh.face_support_numbers(), 1.0)
        validate_mesh(mesh)

    def test_unbounded_directions_rejected(self):
        up = np.array([[1, 0, 0.5], [-1, 0, 0.5], [0, 1, 0.5], [0, -1, 0.5]])
        up = up / np.linalg.norm(up, axis=1)[:, None]
        with pytest.raises(UnboundedRegion):
            SupportPolyhedron(up, np.ones(4))

    def test_empty_intersection_rejected(self):
        with pytest.raises(DegenerateBody):
            from blaschke3d.geometry import _intersect_arrays
            _intersect_arrays(AXES, -np.ones(6))

    def test_point_intersection_rejected(self):
        with pytest.raises(DegenerateBody):
            from blaschke3d.geometry import _intersect_arrays
            _intersect_arrays(AXES, np.zeros(6))

    def test_untouched_plane_keeps_its_index_slot(self):
        from blaschke3d.geometry import unit
        dirs = np.vstack([AXES[:3], [unit((1, 1, 1))], AXES[3:]])
        offsets = np.array([1, 1, 1, 10.0, 1, 1, 1])
        mesh = intersect_halfspaces(SupportPolyhedron(dirs, offsets))
        assert mesh.face_areas[3] == 0.0
        assert mesh.faces[3] == []
        assert mesh.face_count == 6
        assert not any(3 in pair for pair in mesh.edge_lengths)
        assert volume(mesh) == pytest.approx(8.0, rel=1e-12)
        validate_mesh(mesh)

    def test_plane_touching_a_corner_stays_empty(self):
        from blaschke3d.geometry import unit
        dirs = np.vstack([AXES[:3], [unit((1, 1, 1))], AXES[3:]])
        offsets = np.array([1, 1, 1, np.sqrt(3.0), 1, 1, 1])
        mesh = intersect_halfspaces(SupportPolyhedron(dirs, offsets))
        assert mesh.face_areas[3] == 0.0
        assert len(mesh.vertices) == 8
        validate_mesh(mesh)

    def test_plane_slicing_a_corner(self):
        from blaschke3d.geometry import unit
        dirs = np.vstack([AXES[:3], [unit((1, 1, 1))], AXES[3:]])
        offsets = np.array([1, 1, 1, np.sqrt(3.0) - 0.3, 1, 1, 1])
        mesh = intersect_halfspaces(SupportPolyhedron(dirs, offsets))
        assert len(mesh.faces[3]) == 3
        assert (len(mesh.vertices), len(mesh.edge_lengths),
                mesh.face_count) == (10, 15, 7)
        validate_mesh(mesh)

    def test_body_far_from_origin(self):
        center = np.array([10.0, -5.0, 3.0])
        mesh = intersect_halfspaces(SupportPolyhedron(AXES, AXES @ center
                                                      + 0.5))
        assert volume(mesh) == pytest.approx(1.0, rel=1e-9)
        assert np.allclose(mesh.centroid, center, atol=1e-9)
        validate_mesh(mesh)

    def test_scaling_support_numbers(self):
        mesh1 = intersect_halfspaces(SupportPolyhedron(AXES, np.ones(6)))
        lam = 3.7
        mesh2 = intersect_halfspaces(SupportPolyhedron(AXES, lam * np.ones(6)))
        assert np.allclose(mesh2.face_areas, lam ** 2 * mesh1.face_areas,
                           rtol=1e-9)
        assert volume(mesh2) == pytest.approx(lam ** 3 * volume(mesh1),
                                              rel=1e-9)

    @pytest.mark.parametrize("seed", range(12))
    def test_closure_and_volume_oracle_random(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(4, 21))
        mesh = random_tangent_mesh(k, seed, jitter=0.05)
        resid = np.linalg.norm(vector_area_residual(mesh))
        assert resid <= 1e-9 * mesh.face_areas.sum()
        assert volume(mesh) == pytest.approx(divergence_volume(mesh),
                                             rel=1e-9)
        validate_mesh(mesh)

    def test_volume_oracle_on_100_random_bodies(self):
        from blaschke3d.herisson import random_herisson
        for seed in range(100):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(4, 17))
            h = random_herisson(k, seed)
            offsets = rng.uniform(0.8, 1.2, k)
            mesh = intersect_halfspaces(SupportPolyhedron(h.directions,
                                                          offsets))
            assert volume(mesh) == pytest.approx(divergence_volume(mesh),
                                                 rel=1e-9)


def corner_cases():
    """Cube plus a diagonal plane as face 3: one that misses it, touches one
    corner only, slices a corner off, touches an edge only, and sits 1e-12
    inside that edge.  The first would be outside the least-squares point of
    the planes."""
    cases = []
    for normal, offset in [((1, 1, 1), 10.0), ((1, 1, 1), np.sqrt(3.0)),
                           ((1, 1, 1), np.sqrt(3.0) - 0.3),
                           ((1, 1, 0), np.sqrt(2.0)),
                           ((1, 1, 0), np.sqrt(2.0) - 1e-12)]:
        dirs = np.vstack([AXES[:3], [unit(normal)], AXES[3:]])
        cases.append((dirs, np.array([1, 1, 1, offset, 1, 1, 1])))
    return cases


def jittered_case(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(4, 49))
    return random_herisson(k, seed).directions, rng.uniform(0.8, 1.2, k)


def assert_same_mesh(a, b):
    """Same live face slots, areas, edges and vertex set, to 1e-9."""
    live = b.face_areas > 0
    assert np.array_equal(a.face_areas > 0, live)
    assert [bool(c) for c in a.faces] == live.tolist()
    np.testing.assert_allclose(a.face_areas, b.face_areas, rtol=1e-9)
    assert a.edge_lengths.keys() == b.edge_lengths.keys()
    for key, length in b.edge_lengths.items():
        assert a.edge_lengths[key] == pytest.approx(length,
                                                    abs=1e-9 * b.scale)
    assert vertex_sets_match(a, b, 1e-9 * b.scale)


class TestIntersectionAgainstEnumeration:
    """The Qhull path against the triple-plane enumeration reference."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_jittered_bodies(self, seed):
        dirs, offsets = jittered_case(seed)
        assert_same_mesh(_intersect_arrays(dirs, offsets),
                         enumerate_intersection(dirs, offsets))

    @pytest.mark.parametrize("case", range(5))
    def test_untouched_and_corner_planes(self, case):
        dirs, offsets = corner_cases()[case]
        assert_same_mesh(_intersect_arrays(dirs, offsets),
                         enumerate_intersection(dirs, offsets))

    @pytest.mark.parametrize("case", [0, 1, 3, 4])
    def test_plane_without_a_face_stays_empty(self, case):
        # a plane that misses the cube, touches it at a vertex or an edge,
        # or cuts off a sliver below the merge tolerance has no face
        dirs, offsets = corner_cases()[case]
        mesh = _intersect_arrays(dirs, offsets)
        assert mesh.faces[3] == [] and mesh.face_areas[3] == 0.0
        assert (len(mesh.vertices), len(mesh.edge_lengths),
                mesh.face_count) == (8, 12, 6)
        validate_mesh(mesh)

    @pytest.mark.parametrize("case", range(5))
    def test_volume_with_absent_faces(self, case):
        mesh = _intersect_arrays(*corner_cases()[case])
        assert volume(mesh) == pytest.approx(divergence_volume(mesh),
                                             rel=1e-12)
        h = mesh.face_support_numbers()
        for j, cyc in enumerate(mesh.faces):
            if cyc:
                assert h[j] == pytest.approx(
                    mesh.vertices[cyc].mean(axis=0) @ mesh.face_normals[j],
                    rel=1e-12, abs=1e-12 * mesh.scale)
            else:
                assert np.isnan(h[j])

    def test_vertices_split_by_rounding_are_merged(self):
        # five planes meet at each vertex; rounding the normals splits each
        # vertex into nearby copies, as in a .her file written to 10 digits
        dirs = np.round(icosahedron_directions(), 10)
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        mesh = _intersect_arrays(dirs, np.ones(20))
        assert (len(mesh.vertices), len(mesh.edge_lengths)) == (12, 30)
        assert_same_mesh(mesh, enumerate_intersection(dirs, np.ones(20)))

    @staticmethod
    def centre_cases():
        """The jittered cases and every corner case but the untouched plane,
        each with the rule's verdict on the origin (slack = offsets)."""
        cases = [jittered_case(seed) for seed in range(30)]
        cases += corner_cases()[1:]
        for dirs, offsets in cases:
            median = np.median(offsets)
            yield dirs, offsets, median > 0 and offsets.min() > 0.05 * median

    def test_centre_is_the_origin_when_it_passes_the_rule(self):
        for dirs, offsets, origin_passes in self.centre_cases():
            assert origin_passes
            c, slack = _interior_point(dirs, offsets)
            np.testing.assert_array_equal(c, np.zeros(3))
            np.testing.assert_array_equal(slack, offsets)

    def test_centre_is_the_least_squares_point(self):
        # translated by 3 times its scale, each body leaves the origin
        # outside, and the least-squares point of the planes is kept
        for dirs, offsets, _ in self.centre_cases():
            scale = _intersect_arrays(dirs, offsets).scale
            offsets = offsets + dirs @ (3.0 * scale * unit((1.0, -2.0, 0.5)))
            assert offsets.min() < 0
            c, slack = _interior_point(dirs, offsets)
            ref = np.linalg.lstsq(dirs, offsets, rcond=None)[0]
            assert np.abs(c - ref).max() <= 1e-12 * scale
            np.testing.assert_array_equal(slack, offsets - dirs @ c)

    @pytest.mark.parametrize("k", [4, 5, 12, 48])
    def test_partition_median_is_numpys(self, k):
        rng = np.random.default_rng(k)
        for _ in range(200):
            x = rng.uniform(-1.0, 2.0, k) * 10.0 ** rng.uniform(-8, 8)
            assert _median(x) == np.median(x)
        ties = np.repeat(rng.uniform(0.5, 1.5, 2), [k // 2, k - k // 2])
        assert _median(ties) == np.median(ties)

    def test_translated_corner_case_takes_the_chebyshev_centre(self,
                                                              monkeypatch):
        # neither the origin nor the least-squares point is inside
        calls = count_linprog(monkeypatch)
        dirs, offsets = corner_cases()[0]
        shifted = offsets + dirs @ np.array([30.0, -20.0, 10.0])
        c, slack = _interior_point(dirs, shifted)
        assert len(calls) == 1 and slack.min() > 0
        np.testing.assert_array_equal(slack, shifted - dirs @ c)
        assert_same_mesh(_intersect_arrays(dirs, shifted),
                         enumerate_intersection(dirs, shifted))

    def test_a_corner_case_needs_the_chebyshev_centre(self):
        # the least-squares point of the planes lies outside the body
        dirs, offsets = corner_cases()[0]
        c = np.linalg.lstsq(dirs, offsets, rcond=None)[0]
        assert (dirs @ c - offsets).max() > 0


class TestAreasFromTheJacobian:
    """Face areas are homogeneous of degree 2 in the support numbers h and
    the area Jacobian J kills translations, so A = 1/2 J (h - D c) for any
    point c; the solver's Newton loop takes its areas from this."""

    @staticmethod
    def assert_areas_from_jacobian(dirs, offsets):
        mesh = _intersect_arrays(dirs, offsets)
        jac = area_jacobian(mesh)
        inside = _interior_point(dirs, offsets)[0]
        outside = inside + np.array([0.6, -0.8, 0.0]) * mesh.scale
        for c in (inside, outside):
            areas = 0.5 * jac @ (offsets - dirs @ c)
            assert np.abs(areas - mesh.face_areas).max() <= \
                1e-12 * mesh.face_areas.max()

    @pytest.mark.parametrize("seed", range(30))
    def test_jittered_bodies(self, seed):
        self.assert_areas_from_jacobian(*jittered_case(seed))

    @pytest.mark.parametrize("case", range(5))
    def test_corner_cases(self, case):
        self.assert_areas_from_jacobian(*corner_cases()[case])

    def test_large_tangent_body(self):
        dirs = random_herisson(192, 4).directions
        self.assert_areas_from_jacobian(dirs, np.ones(192))


class TestPolarEdgeList:
    """The edge list read off the polar hull against the boundary complex."""

    @staticmethod
    def assert_edges_match_mesh(dirs, offsets):
        mesh = _intersect_arrays(dirs, offsets)
        cut = _polar_hull(dirs, offsets)
        edges, slack = cut.edges, cut.slack
        got = dict(zip(zip(edges.i.tolist(), edges.j.tolist()),
                       edges.lengths.tolist()))
        assert len(got) == len(edges.lengths)
        assert got.keys() == mesh.edge_lengths.keys()
        for key, length in mesh.edge_lengths.items():
            assert abs(got[key] - length) <= 1e-12 * mesh.scale
        np.testing.assert_array_equal(
            slack, offsets - dirs @ _interior_point(dirs, offsets)[0])
        areas = 0.5 * area_jacobian(edges) @ slack
        assert np.abs(areas - mesh.face_areas).max() <= \
            1e-12 * mesh.face_areas.max()

    @pytest.mark.parametrize("seed", range(30))
    def test_jittered_bodies(self, seed):
        self.assert_edges_match_mesh(*jittered_case(seed))

    @pytest.mark.parametrize("case", range(4))
    def test_corner_cases(self, case):
        self.assert_edges_match_mesh(*corner_cases()[case])

    def test_five_faces_at_every_vertex(self):
        # each polar facet is a pentagon split into three triangles, whose
        # two inner edges are body edges of length zero
        self.assert_edges_match_mesh(icosahedron_directions(), np.ones(20))

    def test_sliver_face_below_the_merge_tolerance(self):
        # the plane 1e-12 inside the cube edge x = y = 1 cuts off a strip of
        # length 2 and width w = sqrt(2) (2 - s), s = sqrt(2) h_3.  The
        # boundary complex merges the strip's corners and drops the face;
        # the edge list keeps all four sides of the strip, its two ends
        # (shorter than the merge tolerance) included, and so its true area
        dirs, offsets = corner_cases()[4]
        cut = _polar_hull(dirs, offsets)
        edges, slack = cut.edges, cut.slack
        areas = 0.5 * area_jacobian(edges) @ slack
        width = np.sqrt(2.0) * (2.0 - np.sqrt(2.0) * offsets[3])
        assert areas[3] == pytest.approx(2 * width, rel=1e-3)
        assert _intersect_arrays(dirs, offsets).face_areas[3] == 0.0
        keys = set(zip(edges.i.tolist(), edges.j.tolist()))
        assert {(0, 3), (2, 3)} <= keys and (0, 2) not in keys
        assert {(3, 5), (3, 6)} <= keys
        # either way the face is below the solver's collapse floor
        assert 2 * width < 1e-12 * areas.sum()


class TestScaledCut:
    """`_Cut.scaled(lam)` is the body scaled by lam about its centre, off
    the same hull: the cut of the half-spaces at lam h, up to a shift."""

    @staticmethod
    def edge_dict(cut):
        return dict(zip(zip(cut.edges.i.tolist(), cut.edges.j.tolist()),
                        cut.edges.lengths.tolist()))

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_the_scaled_half_spaces(self, seed):
        dirs, offsets = jittered_case(seed)
        lam = (1e-3, 3.7, 1e3)[seed % 3]
        got = _polar_hull(dirs, offsets).scaled(lam)
        ref = _polar_hull(dirs, lam * offsets)
        mesh, ref_mesh = centered(_hull_mesh(got)), centered(_hull_mesh(ref))
        tol = 1e-12 * ref_mesh.scale
        a, b = self.edge_dict(got), self.edge_dict(ref)
        assert a.keys() == b.keys()
        assert max(abs(a[e] - b[e]) for e in b) <= tol
        assert np.abs(got.slack - ref.slack).max() <= tol
        assert np.abs(got.areas - ref.areas).max() <= \
            1e-12 * ref.areas.max()
        assert np.abs(mesh.face_areas - ref_mesh.face_areas).max() <= \
            1e-12 * ref_mesh.face_areas.max()
        assert mesh.edge_lengths.keys() == ref_mesh.edge_lengths.keys()
        for key, length in ref_mesh.edge_lengths.items():
            assert abs(mesh.edge_lengths[key] - length) <= tol
        assert vertex_sets_match(mesh, ref_mesh, tol)


class TestIntersectionInvariance:
    @pytest.mark.parametrize("seed", range(6))
    def test_translation(self, seed):
        dirs, offsets = jittered_case(seed)
        base = _intersect_arrays(dirs, offsets)
        rng = np.random.default_rng(seed + 500)
        t = rng.standard_normal(3)
        t *= rng.uniform(1.0, 10.0) * base.scale / np.linalg.norm(t)
        moved = _intersect_arrays(dirs, offsets + dirs @ t)
        assert (offsets + dirs @ t).min() < 0  # origin outside the body
        np.testing.assert_allclose(moved.face_areas, base.face_areas,
                                   rtol=1e-9)
        assert moved.edge_lengths.keys() == base.edge_lengths.keys()
        assert vertex_sets_match(moved.translate(-t), base, 1e-9 * base.scale)

    @pytest.mark.parametrize("seed", range(6))
    def test_permutation(self, seed):
        dirs, offsets = jittered_case(seed)
        perm = np.random.default_rng(seed).permutation(len(offsets))
        base = _intersect_arrays(dirs, offsets)
        mesh = _intersect_arrays(dirs[perm], offsets[perm])
        np.testing.assert_allclose(mesh.face_areas, base.face_areas[perm],
                                   rtol=1e-9)
        assert [len(c) for c in mesh.faces] == \
            [len(base.faces[j]) for j in perm]
        inv = np.argsort(perm)
        moved = {tuple(sorted((int(inv[i]), int(inv[j]))))
                 for i, j in base.edge_lengths}
        assert set(mesh.edge_lengths) == moved

    @pytest.mark.parametrize("lam", [1e-6, 3.7, 1e6])
    def test_scale(self, lam):
        dirs, offsets = jittered_case(7)
        base = _intersect_arrays(dirs, offsets)
        mesh = _intersect_arrays(dirs, lam * offsets)
        np.testing.assert_allclose(mesh.face_areas, lam ** 2 * base.face_areas,
                                   rtol=1e-9)
        assert mesh.edge_lengths.keys() == base.edge_lengths.keys()


class TestConvexHull:
    def test_cube_corners(self):
        mesh = convex_hull(unit_cube().vertices)
        assert mesh.face_count == 6
        assert all(len(c) == 4 for c in mesh.faces)

    def test_interior_points_ignored(self):
        pts = np.vstack([unit_cube().vertices, [[0.1, 0.2, 0.1]]])
        mesh = convex_hull(pts)
        assert mesh.face_count == 6
        assert len(mesh.vertices) == 8

    def test_corner_simplex_volume(self):
        mesh = convex_hull(np.array([[0, 0, 0], [1, 0, 0],
                                     [0, 1, 0], [0, 0, 1]], float))
        assert mesh.face_count == 4
        assert all(len(c) == 3 for c in mesh.faces)
        assert volume(mesh) == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_coplanar_input_rejected(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
                        [0.3, 0.4, 0]], float)
        with pytest.raises(DegenerateBody):
            convex_hull(pts)

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_hull_of_vertices_idempotent(self, seed):
        mesh = random_tangent_mesh(10, seed, jitter=0.05)
        again = convex_hull(mesh.vertices)
        assert vertex_sets_match(mesh, again, 1e-12 * mesh.scale)
        assert again.face_count == mesh.face_count
        cycles = {frozenset(c) for c in mesh.faces if c}
        cycles2 = {frozenset(c) for c in again.faces}
        assert cycles == cycles2


class TestMeasurements:
    def test_unit_cube_volume(self):
        assert volume(unit_cube()) == pytest.approx(1.0, rel=1e-12)

    def test_long_box_volume(self):
        assert volume(box_mesh((1, 1, 50))) == pytest.approx(50.0, rel=1e-12)

    def test_volume_translation_invariant(self):
        mesh = random_tangent_mesh(9, 5, jitter=0.05)
        shifted = mesh.translate([13.0, -7.5, 2.25])
        assert volume(shifted) == pytest.approx(volume(mesh), rel=1e-9)

    def test_support_cube_axis(self):
        assert support_value(unit_cube(), [1, 0, 0]) == pytest.approx(0.5)

    def test_support_cube_diagonal(self):
        d = np.array([1, 1, 1]) / np.sqrt(3)
        assert support_value(unit_cube(), d) == \
            pytest.approx(np.sqrt(3) / 2, rel=1e-12)

    def test_vector_area_cube_exact(self):
        assert np.linalg.norm(vector_area_residual(unit_cube())) <= 1e-12

    def test_vector_area_open_box(self):
        cube = unit_cube()
        j = 2
        pruned = MeshPolyhedron(
            vertices=cube.vertices,
            faces=[c for i, c in enumerate(cube.faces) if i != j],
            face_normals=np.delete(cube.face_normals, j, axis=0),
            face_areas=np.delete(cube.face_areas, j),
            edge_lengths={})
        expect = -cube.face_areas[j] * cube.face_normals[j]
        assert np.array_equal(vector_area_residual(pruned), expect)

    def test_mean_curvature_cube(self):
        edge = 1.75
        assert integral_mean_curvature(cube_mesh(edge)) == \
            pytest.approx(3 * np.pi * edge, rel=1e-12)

    def test_mean_curvature_regular_tetrahedron(self):
        expect = 3.0 * (np.pi - np.arccos(1.0 / 3.0))
        assert integral_mean_curvature(tetrahedron_mesh(1.0)) == \
            pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(5.7319, abs=1e-4)

    def test_mean_curvature_ball_limit(self):
        r = 1.3
        mesh = icosphere_mesh(4, r)
        assert integral_mean_curvature(mesh) == \
            pytest.approx(4 * np.pi * r, rel=0.01)


class TestContainment:
    def test_nested_cubes(self):
        res = contains_by_translation(cube_mesh(2.0), cube_mesh(1.0))
        assert res.contained
        t = res.translation
        inner = cube_mesh(1.0).translate(t)
        outer = cube_mesh(2.0)
        h = outer.face_support_numbers()
        for j in range(6):
            assert support_value(inner, outer.face_normals[j]) \
                <= h[j] + 1e-9 * outer.scale

    def test_identity(self):
        mesh = random_tangent_mesh(8, 2, jitter=0.05)
        res = contains_by_translation(mesh, mesh)
        assert res.contained
        assert np.linalg.norm(res.translation) <= 1e-6 * mesh.scale

    def test_long_box_does_not_fit(self):
        res = contains_by_translation(cube_mesh(10.0), box_mesh((1, 1, 50)))
        assert not res.contained
        assert res.certificate is not None
        w = res.certificate["weights"]
        combo = w @ res.certificate["directions"]
        assert np.linalg.norm(combo) <= 1e-9 * w.sum()

    @pytest.mark.parametrize("seed", [1, 4])
    def test_containment_implies_volume_order(self, seed):
        inner = random_tangent_mesh(8, seed, jitter=0.05)
        outer = convex_hull(inner.vertices * 1.4 + np.array([0.3, 0, -0.2]))
        assert contains_by_translation(outer, inner).contained
        assert volume(inner) <= volume(outer)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_any_closed_mesh_has_closed_vector_area(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(4, 16))
    mesh = random_tangent_mesh(k, seed, jitter=0.03)
    resid = np.linalg.norm(vector_area_residual(mesh))
    assert resid <= 1e-10 * mesh.face_areas.sum()


def fibonacci_directions(k):
    """k nearly uniform unit directions on a Fibonacci spiral."""
    i = np.arange(k) + 0.5
    z = 1.0 - 2.0 * i / k
    r = np.sqrt(1.0 - z * z)
    phi = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def turned(d, angle):
    """Unit direction `angle` radians away from unit direction d."""
    side = unit(np.cross(d, [0.3, -0.5, 0.8]))
    return np.cos(angle) * d + np.sin(angle) * side


class TestDirectionMatching:
    def test_nearest_row_within_tolerance(self):
        b = fibonacci_directions(50)
        a = np.vstack([turned(b[7], 0.1 * DIRECTION_TOL),
                       turned(b[7], 10 * DIRECTION_TOL), b[49], -b[0]])
        assert match_directions(a, b).tolist() == [7, -1, 49, -1]

    def test_agrees_with_the_nearest_row_loop(self):
        # the per-row argmin loop the matcher replaced, as the reference
        rng = np.random.default_rng(11)
        b = fibonacci_directions(60)
        a = np.array([turned(b[j], rng.choice([0.3, 3.0]) * DIRECTION_TOL)
                      for j in rng.integers(0, 60, 40)])
        expect = []
        for d in a:
            gap = np.linalg.norm(b - d, axis=1)
            hit = int(np.argmin(gap))
            expect.append(hit if gap[hit] <= DIRECTION_TOL else -1)
        assert match_directions(a, b).tolist() == expect
        assert 0 < expect.count(-1) < len(expect)

    def test_follows_a_permutation_of_the_rows(self):
        b = fibonacci_directions(40)
        perm = np.random.default_rng(3).permutation(40)
        assert np.array_equal(perm[match_directions(b, b[perm])],
                              np.arange(40))

    def test_planted_duplicate_among_3072_directions_is_named(self):
        d = fibonacci_directions(3072)
        check_distinct_directions(d)
        d = np.vstack([d, turned(d[1234], 1e-10)])
        with pytest.raises(DuplicateDirection,
                           match=r"directions 1234 and 3072 "):
            check_distinct_directions(d)

    def test_directions_one_tolerance_apart_are_distinct(self):
        d = np.vstack([AXES, turned(AXES[2], 2 * DIRECTION_TOL)])
        check_distinct_directions(d)
