from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from blaschke3d import geometry
from blaschke3d.bodies import (box_mesh, cube_mesh, grunbaum_herisson,
                               icosahedron_directions, icosphere_mesh,
                               tetrahedron_mesh)
from blaschke3d.errors import (DegenerateBody, DuplicateDirection,
                               UnboundedRegion)
from blaschke3d.geometry import (DIRECTION_TOL, MERGE_TOL, SupportPolyhedron,
                                 _adjacency, _area_norms, _area_vectors,
                                 _certify_convex, _deepest_point, _extent,
                                 _hull_mesh, _interior_point, _median,
                                 _polar_hull, _row_blocks, _row_order,
                                 _support_values,
                                 as_unit_rows, check_distinct_directions,
                                 contains_by_translation, convex_hull,
                                 integral_mean_curvature,
                                 intersect_halfspaces, match_directions,
                                 support_value, unit, validate_mesh,
                                 vector_area_residual, volume)
from blaschke3d.fileio import parse_herisson_file
from blaschke3d.herisson import random_herisson
from blaschke3d.solver import (_newton_solve, area_jacobian,
                               continuation_solve)
from blaschke3d.sums import minkowski_sum
from helpers import (assembly_checked, centered, count_deepest_point,
                     cycle_arrays, deepest_point_checked, divergence_volume,
                     double_octahedron, edge_dict, enumerate_intersection,
                     intersect, merge_close_reference, mesh_of,
                     positively_spanning_reference, random_tangent_mesh,
                     support_values_reference, vertex_sets_match)

AXES = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                 [0, -1, 0], [0, 0, 1], [0, 0, -1]], float)
# four directions 27 degrees above the horizontal: they bound no body
UP = np.array([[1, 0, 0.5], [-1, 0, 0.5], [0, 1, 0.5], [0, -1, 0.5]])
DATA = Path(__file__).resolve().parent.parent / "data"


def unit_cube():
    return cube_mesh(1.0)


class TestIntersectHalfspaces:
    def test_axis_aligned_cube(self):
        mesh = intersect_halfspaces(SupportPolyhedron(AXES, np.ones(6)))
        assert len(mesh.vertices) == 8
        assert mesh.face_count == 6
        assert np.allclose(mesh.face_areas, 4.0, rtol=1e-12)
        assert len(mesh.edges.i) == 12
        for length in mesh.edges.lengths:
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
        # the support polyhedron is built; its cut finds it unbounded
        up = UP / np.linalg.norm(UP, axis=1)[:, None]
        with pytest.raises(UnboundedRegion):
            intersect(up, np.ones(4))

    def test_empty_intersection_rejected(self):
        with pytest.raises(DegenerateBody):
            intersect(AXES, -np.ones(6))

    def test_point_intersection_rejected(self):
        with pytest.raises(DegenerateBody):
            intersect(AXES, np.zeros(6))

    @pytest.mark.parametrize("j", [-480, 480])
    def test_a_power_of_two_scales_the_body_exactly(self, j):
        # the corners and edge lengths are taken at Qhull's unit
        D = icosahedron_directions()
        base = intersect_halfspaces(SupportPolyhedron(D, np.ones(20)))
        got = intersect_halfspaces(SupportPolyhedron(D, np.full(20, 2.0 ** j)))
        assert got.face_count == 20
        np.testing.assert_array_equal(got.vertices,
                                      np.ldexp(base.vertices, j))
        np.testing.assert_array_equal(got.face_areas,
                                      np.ldexp(base.face_areas, 2 * j))

    @pytest.mark.parametrize("s", [1e-200, 1e-165, 1e155, 1e200])
    def test_a_body_outside_the_hull_extents_is_named(self, s):
        # its face areas would be subnormal, zero or infinite
        with pytest.raises(DegenerateBody,
                           match=r"^body extent .* is outside 1e-150 to "):
            intersect_halfspaces(
                SupportPolyhedron(icosahedron_directions(), np.full(20, s)))

    def test_untouched_plane_keeps_its_index_slot(self):
        from blaschke3d.geometry import unit
        dirs = np.vstack([AXES[:3], [unit((1, 1, 1))], AXES[3:]])
        offsets = np.array([1, 1, 1, 10.0, 1, 1, 1])
        mesh = intersect_halfspaces(SupportPolyhedron(dirs, offsets))
        assert mesh.face_areas[3] == 0.0
        assert mesh.cycles[0][3] == 0
        assert mesh.face_count == 6
        assert not any(3 in pair for pair in _adjacency(mesh.edges))
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
        assert mesh.cycles[0][3] == 3
        assert (len(mesh.vertices), len(mesh.edges.i),
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


def cap_directions(k, rng):
    """k random unit directions with z >= 0.01: no bounded body has them."""
    z = rng.uniform(0.01, 1.0, k)
    phi = rng.uniform(0.0, 2.0 * np.pi, k)
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def plane_directions(k, rng):
    """k distinct unit directions in a random plane through the origin."""
    phi = 2.0 * np.pi * (np.arange(k) + rng.uniform(0.0, 0.5, k)) / k
    rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    return np.stack([np.cos(phi), np.sin(phi), 0.0 * phi], axis=1) \
        @ rotation.T


class TestBoundedness:
    """The cut of the half-spaces decides boundedness: `intersect_halfspaces`
    raises UnboundedRegion exactly when the directions' own hull leaves the
    origin within 1e-10 of its boundary or outside it, the rule that
    `SupportPolyhedron` applied at construction before."""

    # the cube's directions less -z: the origin is on the hull's boundary
    FIVE = AXES[:5]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(["herisson", "cap",
                                                    "plane"]),
           st.booleans())
    def test_refused_exactly_where_the_reference_refuses(self, seed, kind,
                                                        lp_centre):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(4, 40))
        dirs = {"herisson": lambda: random_herisson(k, seed).directions,
                "cap": lambda: cap_directions(k, rng),
                "plane": lambda: plane_directions(k, rng)}[kind]()
        # uniform offsets keep the origin as the centre; one offset at 1e-3
        # of the rest moves it to the linear program's
        offsets = np.full(k, 10.0 ** rng.uniform(-3, 3))
        if lp_centre:
            offsets[rng.integers(k)] *= 1e-3
        try:
            intersect(dirs, offsets)
            refused = False
        except UnboundedRegion:
            refused = True
        assert refused == (not positively_spanning_reference(dirs))

    @pytest.mark.parametrize("dirs, small, message", [
        (UP, None, "directions do not positively span"),
        (FIVE, None, "origin is not strictly inside"),
        (FIVE, 0, "origin is not strictly inside"),
        (UP, 0, "normals do not positively span"),
        (AXES[[0, 1, 2, 3]], None, "directions do not positively span"),
        (AXES[[0, 1, 2, 3]], 0, "directions lie in a plane")],
        ids=["coplanar-polar-points", "margin", "margin-lp-centre",
             "lp", "plane", "plane-lp-centre"])
    def test_each_path_raises(self, dirs, small, message):
        # the Qhull of the polar points, the margin rule on its facets, the
        # linear program's artificial bound and the singular least-squares
        # centre
        dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]
        offsets = np.ones(len(dirs))
        if small is not None:
            offsets[small] = 1e-3
        sp = SupportPolyhedron(dirs, offsets)
        with pytest.raises(UnboundedRegion, match=message):
            intersect_halfspaces(sp)

    def test_construction_still_checks_rows(self):
        # and raises DuplicateDirection (test_solver's hand-built case)
        with pytest.raises(ValueError, match="at least 4"):
            SupportPolyhedron(AXES[:3], np.ones(3))
        with pytest.raises(ValueError, match="one support number"):
            SupportPolyhedron(AXES, np.ones(5))
        with pytest.raises(ValueError, match="unit vectors"):
            SupportPolyhedron(2.0 * AXES, np.ones(6))


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
    assert np.array_equal(a.cycles[0] > 0, live)
    np.testing.assert_allclose(a.face_areas, b.face_areas, rtol=1e-9)
    got, ref = edge_dict(a.edges), edge_dict(b.edges)
    assert got.keys() == ref.keys()
    for key, length in ref.items():
        assert got[key] == pytest.approx(length, abs=1e-9 * b.scale)
    assert vertex_sets_match(a, b, 1e-9 * b.scale)


class TestIntersectionAgainstEnumeration:
    """The Qhull path against the triple-plane enumeration reference."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_jittered_bodies(self, seed):
        dirs, offsets = jittered_case(seed)
        assert_same_mesh(intersect(dirs, offsets),
                         enumerate_intersection(dirs, offsets))

    @pytest.mark.parametrize("case", range(5))
    def test_untouched_and_corner_planes(self, case):
        dirs, offsets = corner_cases()[case]
        assert_same_mesh(intersect(dirs, offsets),
                         enumerate_intersection(dirs, offsets))

    @pytest.mark.parametrize("case", [0, 1, 3, 4])
    def test_plane_without_a_face_stays_empty(self, case):
        # a plane that misses the cube, touches it at a vertex or an edge,
        # or cuts off a sliver below the merge tolerance has no face
        dirs, offsets = corner_cases()[case]
        mesh = intersect(dirs, offsets)
        assert mesh.cycles[0][3] == 0 and mesh.face_areas[3] == 0.0
        assert (len(mesh.vertices), len(mesh.edges.i),
                mesh.face_count) == (8, 12, 6)
        validate_mesh(mesh)

    @pytest.mark.parametrize("case", range(5))
    def test_volume_with_absent_faces(self, case):
        mesh = intersect(*corner_cases()[case])
        assert volume(mesh) == pytest.approx(divergence_volume(mesh),
                                             rel=1e-12)
        h = mesh.face_support_numbers()
        for j, cyc in enumerate(cycle_arrays(mesh)):
            if len(cyc):
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
        mesh = intersect(dirs, np.ones(20))
        assert (len(mesh.vertices), len(mesh.edges.i)) == (12, 30)
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

    def test_centre_is_chebyshev_otherwise(self, monkeypatch):
        # translated by 3 times its scale, each body leaves the origin
        # outside, and one linear program gives the centre
        calls = count_deepest_point(monkeypatch)
        for dirs, offsets, _ in self.centre_cases():
            scale = intersect(dirs, offsets).scale
            offsets = offsets + dirs @ (3.0 * scale * unit((1.0, -2.0, 0.5)))
            assert offsets.min() < 0
            del calls[:]
            c, slack = _interior_point(dirs, offsets)
            assert len(calls) == 1 and slack.min() > 0
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
        # the origin is outside, and so is the least-squares point
        calls = count_deepest_point(monkeypatch)
        dirs, offsets = corner_cases()[0]
        shifted = offsets + dirs @ np.array([30.0, -20.0, 10.0])
        c, slack = _interior_point(dirs, shifted)
        assert len(calls) == 1 and slack.min() > 0
        np.testing.assert_array_equal(slack, shifted - dirs @ c)
        assert_same_mesh(intersect(dirs, shifted),
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
        mesh = intersect(dirs, offsets)
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
        mesh = intersect(dirs, offsets)
        cut = _polar_hull(dirs, offsets)
        edges, slack = cut.edges, cut.slack
        got, ref = edge_dict(edges), edge_dict(mesh.edges)
        assert len(got) == len(edges.lengths)
        assert got.keys() == ref.keys()
        for key, length in ref.items():
            assert abs(got[key] - length) <= 1e-12 * mesh.scale
        np.testing.assert_array_equal(
            slack, offsets - dirs @ _interior_point(dirs, offsets)[0])
        areas = 0.5 * area_jacobian(cut) @ slack
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
        areas = 0.5 * area_jacobian(cut) @ slack
        width = np.sqrt(2.0) * (2.0 - np.sqrt(2.0) * offsets[3])
        assert areas[3] == pytest.approx(2 * width, rel=1e-3)
        assert intersect(dirs, offsets).face_areas[3] == 0.0
        keys = set(zip(edges.i.tolist(), edges.j.tolist()))
        assert {(0, 3), (2, 3)} <= keys and (0, 2) not in keys
        assert {(3, 5), (3, 6)} <= keys
        # either way the face is below the solver's collapse floor
        assert 2 * width < 1e-12 * areas.sum()


class TestScaledCut:
    """`_Cut.scaled(lam)` is the body scaled by lam about its centre, off
    the same hull: the cut of the half-spaces at lam h, up to a shift."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_the_scaled_half_spaces(self, seed):
        dirs, offsets = jittered_case(seed)
        lam = (1e-3, 3.7, 1e3)[seed % 3]
        got = _polar_hull(dirs, offsets).scaled(lam)
        ref = _polar_hull(dirs, lam * offsets)
        mesh, ref_mesh = centered(_hull_mesh(got)), centered(_hull_mesh(ref))
        tol = 1e-12 * ref_mesh.scale
        a, b = edge_dict(got.edges), edge_dict(ref.edges)
        assert a.keys() == b.keys()
        assert max(abs(a[e] - b[e]) for e in b) <= tol
        assert np.abs(got.slack - ref.slack).max() <= tol
        assert np.abs(got.areas - ref.areas).max() <= \
            1e-12 * ref.areas.max()
        assert np.abs(mesh.face_areas - ref_mesh.face_areas).max() <= \
            1e-12 * ref_mesh.face_areas.max()
        a, b = edge_dict(mesh.edges), edge_dict(ref_mesh.edges)
        assert a.keys() == b.keys()
        for key, length in b.items():
            assert abs(a[key] - length) <= tol
        assert vertex_sets_match(mesh, ref_mesh, tol)


def assert_same_cut(got, ref):
    """Two cuts of one body about one centre: the same edge pairs, edge
    lengths, areas and slack within 1e-12 relative, and the same corners
    as sets."""
    a, b = edge_dict(got.edges), edge_dict(ref.edges)
    assert a.keys() == b.keys()
    assert max(abs(a[e] - b[e]) for e in b) <= 1e-12 * max(b.values())
    np.testing.assert_array_equal(got.c, ref.c)
    assert np.abs(got.slack - ref.slack).max() <= 1e-12 * ref.slack.max()
    assert np.abs(got.areas - ref.areas).max() <= 1e-12 * ref.areas.max()
    gap = np.linalg.norm(got.corners[:, None] - ref.corners[None], axis=2)
    tol = 1e-12 * np.ptp(ref.corners, axis=0).max()
    assert gap.min(axis=0).max() <= tol and gap.min(axis=1).max() <= tol


class TestAreaNorms:
    """`_area_norms` is np.linalg.norm taken at the power of two of the
    largest entry: the same bits where the squares are normal floats, and
    scaled exactly by any power of two beyond."""

    def test_plain_norm_bits(self):
        vecs = np.random.default_rng(3).standard_normal((40, 3)) * 7.5
        assert _area_norms(vecs) == np.linalg.norm(vecs)
        np.testing.assert_array_equal(_area_norms(vecs, axis=1),
                                      np.linalg.norm(vecs, axis=1))

    @pytest.mark.parametrize("j", [-1000, -600, 600, 1000])
    def test_power_of_two_scales_exactly(self, j):
        vecs = np.random.default_rng(4).standard_normal((40, 3))
        got = _area_norms(np.ldexp(vecs, j), axis=1)
        np.testing.assert_array_equal(
            got, np.ldexp(np.linalg.norm(vecs, axis=1), j))

    def test_zero_vectors(self):
        assert _area_norms(np.zeros(3)) == 0.0
        assert _area_norms(np.zeros((0, 3))) == 0.0


class TestExtent:
    """`_extent`, the bounding-box diagonal every tolerance reads, is the
    plain norm's bits where its squares are normal floats, and finite past
    the square root of the float range."""

    @pytest.mark.parametrize("s", [1e-100, 1e-20, 1.0, 3.0, 1e20, 1e100])
    def test_plain_norm_bits(self, s):
        pts = icosphere_mesh(1).vertices * [s, 2 * s, s / 3]
        assert _extent(pts) == np.linalg.norm(pts.max(axis=0)
                                              - pts.min(axis=0))

    def test_mesh_scale_at_extent_1e200(self):
        base = icosphere_mesh(1)
        mesh = replace(base, vertices=np.ldexp(base.vertices, 664))
        assert mesh.scale == np.ldexp(base.scale, 664) < np.inf


def shipped_herisson(name):
    return parse_herisson_file((DATA / f"{name}.her").read_text())


def msum_pair(depths, seed):
    """The Minkowski sum of two icospheres, each rotated and scaled along
    its axes by a seeded draw, like the pairs of the `msum` benchmark."""
    rng = np.random.default_rng([seed, 1])
    bodies = []
    for d in depths:
        turn = Rotation.from_euler("xyz", rng.uniform(-np.pi, np.pi, 3))
        bodies.append(convex_hull(icosphere_mesh(d).vertices
                                  @ np.diag(rng.uniform(0.5, 2.0, 3))
                                  @ turn.as_matrix().T))
    return minkowski_sum(*bodies)


class TestMergeAlongSides:
    """`convex_hull` merges its plane rows, and `_hull_mesh` its corners,
    along the sides of Qhull's triangulation (`geometry._merge`), and both
    give the labels of the k-d tree rule they replaced: every pair of rows
    or corners within the tolerance, whether or not the hull joins them
    (`merge_close_reference`)."""

    @staticmethod
    def merged(monkeypatch, build):
        """The points and labels of the one `_merge` that `build` runs."""
        seen, merge = [], geometry._merge
        def spy(points, i, j):
            out = merge(points, i, j)
            seen.append((points, out[1]))
            return out
        with monkeypatch.context() as patch:
            patch.setattr(geometry, "_merge", spy)
            build()
        (points, label), = seen
        return points, label

    HULLS = {
        "cube": lambda: cube_mesh(1.0).vertices,
        "box": lambda: box_mesh((1.0, 2.5, 0.3)).vertices,
        "tetrahedron": lambda: tetrahedron_mesh(1.0).vertices,
        "icosphere-3": lambda: icosphere_mesh(3).vertices,
        **{f"{name}.her": lambda name=name: continuation_solve(
            shipped_herisson(name))[1].vertices
           for name in ("cube", "dodecahedron", "grunbaum", "icosahedron")},
        "msum-1-2": lambda: msum_pair((1, 2), 0).vertices,
        "msum-2-2": lambda: msum_pair((2, 2), 1).vertices,
        "msum-1-3": lambda: msum_pair((1, 3), 2).vertices,
        "cloud": lambda: np.random.default_rng(8).standard_normal((500, 3))}

    @pytest.mark.parametrize("case", sorted(HULLS))
    @pytest.mark.parametrize("k", [0, -480, 480])
    def test_hull_rows(self, monkeypatch, case, k):
        pts = np.ldexp(self.HULLS[case](), k)
        rows, label = self.merged(monkeypatch, lambda: convex_hull(pts))
        np.testing.assert_array_equal(label,
                                      merge_close_reference(rows, 1e-9))

    @pytest.mark.parametrize("name", ["icosahedron", "grunbaum"])
    @pytest.mark.parametrize("k", [0, -500, 500])
    def test_solved_cut_corners(self, monkeypatch, name, k):
        cut = _newton_solve(shipped_herisson(name))[0].scaled(2.0 ** k)
        corners, label = self.merged(monkeypatch, lambda: _hull_mesh(cut))
        assert corners is cut.corners
        np.testing.assert_array_equal(label, merge_close_reference(
            corners, MERGE_TOL * _extent(corners)))
        # the icosahedron's five faces at every vertex make three facets
        if name == "icosahedron":
            assert (len(corners), label.max() + 1) == (36, 12)


class TestWarmCut:
    """A cut with `prev` is read off `prev`'s triangulation exactly when
    every edge keeps a positive length there (h in `prev`'s type cone), and
    is then the cold cut of the same support numbers; otherwise Qhull runs
    as without `prev`."""

    @pytest.mark.parametrize("k", [6, 12, 24, 48])
    def test_random_steps_from_accepted_states(self, k):
        from blaschke3d import solver
        warm = 0
        for s in range(3):
            h = random_herisson(k, s)
            D, target, trace = h.directions, h.areas, solver.SolveTrace()
            state = solver._tangent_state(D, trace)
            state = state.scaled(np.sqrt(h.areas.sum() / state.areas.sum()))
            rng = np.random.default_rng([k, s])
            for _ in range(6):
                dh = solver._solve_kernel_free(
                    area_jacobian(state), target - state.areas, D)
                for alpha in [1.0, 0.5, *rng.uniform(0.0, 1.0, 4)]:
                    step = state.slack + alpha * dh
                    if step.min() <= 0:
                        continue
                    try:
                        cold = _polar_hull(D, step)
                    except (DegenerateBody, UnboundedRegion):
                        continue
                    got = _polar_hull(D, step, state)
                    if not got.hulled:
                        warm += 1
                        assert got.simplices is state.simplices
                        assert got.edges.lengths.min() > 0
                        assert_same_cut(got, cold)
                    elif state.warm is not None and not cold.c.any():
                        # declined: the step crossed a wall of the type
                        assert _adjacency(cold.edges) != \
                            _adjacency(state.edges)
                _, new = solver._damped_step(
                    D, state, target, solver._LENGTHS, 0.0, trace)
                if new is None:
                    break
                state = new
        assert warm > 0

    @staticmethod
    def cold_cases():
        """Jittered bodies, and random herissons' tangent bodies with their
        support numbers as they are and jittered by up to 30%."""
        cases = [jittered_case(seed) for seed in range(30)]
        for k in (6, 12, 24, 48):
            for s in range(3):
                D = random_herisson(k, s).directions
                rng = np.random.default_rng([k, s])
                cases += [(D, np.ones(k)), (D, rng.uniform(0.7, 1.3, k))]
        return cases

    def test_inverses_invert_the_facet_matrices(self):
        # the side crosses over det D[s] are the columns of D[s]'s inverse
        simple = 0
        for D, h in self.cold_cases():
            cut = _polar_hull(D, h)
            if cut.warm is None:
                continue
            simple += 1
            inverses, units, planes = cut.warm
            np.testing.assert_array_equal(planes, D[cut.simplices])
            assert np.abs(inverses @ planes - np.eye(3)).max() <= 1e-12
            np.testing.assert_allclose(np.linalg.norm(units, axis=1), 1.0,
                                       rtol=1e-15)
        assert simple >= 15

    @staticmethod
    def facet_count_cases():
        rng = np.random.default_rng(11)
        cases = [(icosahedron_directions(), np.ones(20)), corner_cases()[0]]
        for s in range(12):
            cases.append((random_herisson(24, s).directions,
                          rng.uniform(0.6, 1.4, 24)))
        return cases

    def test_facet_count_tells_whether_every_plane_is_a_vertex(self):
        # a triangulated sphere on k points has 2k - 4 facets: the count
        # agrees with the vertex set on the icosahedron's tangent body (not
        # simple), on a plane that misses the cube, and on random support
        # numbers, some of which miss a plane
        every_seen = set()
        for D, h in self.facet_count_cases():
            cut = _polar_hull(D, h)
            every = len(np.unique(cut.simplices)) == len(D)
            assert (len(cut.simplices) == 2 * len(D) - 4) == every
            simple = len(cut.edges.i) == len(cut.sides[0])
            assert (cut.warm is not None) == (simple and every)
            every_seen.add(every)
        assert every_seen == {True, False}
        assert _polar_hull(*corner_cases()[0]).warm is None
        assert _polar_hull(icosahedron_directions(), np.ones(20)).warm is None

    def test_declines_on_a_zero_length_edge(self):
        # the icosahedron's tangent body has five faces at every vertex: its
        # polar facets are split pentagons with inner edges of length zero
        dirs = icosahedron_directions()
        prev = _polar_hull(dirs, np.ones(20))
        assert prev.warm is None and prev.edges.lengths.min() > 0
        step = 1.0 + 0.01 * np.random.default_rng(3).uniform(-1, 1, 20)
        got = _polar_hull(dirs, step, prev)
        assert got.hulled
        assert_same_cut(got, _polar_hull(dirs, step))

    def test_declines_off_the_origin(self):
        # one support number below _CENTRE_SLACK times the median: the
        # centre is the Chebyshev centre, though the box keeps its type
        prev = _polar_hull(AXES, np.ones(6))
        assert prev.warm is not None
        step = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.01])
        got = _polar_hull(AXES, step, prev)
        assert got.hulled and got.c.any()
        assert_same_cut(got, _polar_hull(AXES, step))

    def test_declines_across_a_wall(self):
        # the cube [-1, 1]^3 with its corner (1, 1, 1) cut off by a plane
        # at distance t: a triangle for 1/sqrt(3) < t < sqrt(3), a hexagon
        # below, which is another type
        dirs = np.vstack([AXES, np.full(3, 3 ** -0.5)])
        prev = _polar_hull(dirs, np.r_[np.ones(6), 1.2])
        assert prev.warm is not None
        near = _polar_hull(dirs, np.r_[np.ones(6), 0.9], prev)
        assert not near.hulled
        step = np.r_[np.ones(6), 0.3]
        got = _polar_hull(dirs, step, prev)
        cold = _polar_hull(dirs, step)
        assert got.hulled and not got.c.any()
        assert _adjacency(cold.edges) != _adjacency(prev.edges)
        assert_same_cut(got, cold)


class TestIntersectionInvariance:
    @pytest.mark.parametrize("seed", range(6))
    def test_translation(self, seed):
        dirs, offsets = jittered_case(seed)
        base = intersect(dirs, offsets)
        rng = np.random.default_rng(seed + 500)
        t = rng.standard_normal(3)
        t *= rng.uniform(1.0, 10.0) * base.scale / np.linalg.norm(t)
        moved = intersect(dirs, offsets + dirs @ t)
        assert (offsets + dirs @ t).min() < 0  # origin outside the body
        np.testing.assert_allclose(moved.face_areas, base.face_areas,
                                   rtol=1e-9)
        assert _adjacency(moved.edges) == _adjacency(base.edges)
        assert vertex_sets_match(moved.translate(-t), base, 1e-9 * base.scale)

    @pytest.mark.parametrize("size", [1e3, 1e6])
    @pytest.mark.parametrize("seed", range(6))
    def test_far_translation(self, seed, size):
        # so far out that the centre is the linear program's; the rounding
        # grows with the distance |t|, about 1e-14 |t| at most
        dirs, offsets = jittered_case(seed)
        base = intersect(dirs, offsets)
        rng = np.random.default_rng(seed + 500)
        t = rng.standard_normal(3)
        t *= size * base.scale / np.linalg.norm(t)
        tol = 1e-13 * np.linalg.norm(t)
        moved = intersect(dirs, offsets + dirs @ t)
        assert np.abs(moved.face_areas - base.face_areas).max() <= \
            tol / base.scale * base.face_areas.max()
        assert _adjacency(moved.edges) == _adjacency(base.edges)
        assert vertex_sets_match(moved.translate(-t), base, tol)

    @pytest.mark.parametrize("seed", range(6))
    def test_permutation(self, seed):
        dirs, offsets = jittered_case(seed)
        perm = np.random.default_rng(seed).permutation(len(offsets))
        base = intersect(dirs, offsets)
        mesh = intersect(dirs[perm], offsets[perm])
        np.testing.assert_allclose(mesh.face_areas, base.face_areas[perm],
                                   rtol=1e-9)
        assert mesh.cycles[0].tolist() == base.cycles[0][perm].tolist()
        inv = np.argsort(perm)
        moved = {tuple(sorted((int(inv[i]), int(inv[j]))))
                 for i, j in _adjacency(base.edges)}
        assert _adjacency(mesh.edges) == moved

    @pytest.mark.parametrize("lam", [1e-6, 3.7, 1e6])
    def test_scale(self, lam):
        dirs, offsets = jittered_case(7)
        base = intersect(dirs, offsets)
        mesh = intersect(dirs, lam * offsets)
        np.testing.assert_allclose(mesh.face_areas, lam ** 2 * base.face_areas,
                                   rtol=1e-9)
        assert _adjacency(mesh.edges) == _adjacency(base.edges)


class TestConvexHull:
    def test_cube_corners(self):
        mesh = convex_hull(unit_cube().vertices)
        assert mesh.face_count == 6
        assert np.all(mesh.cycles[0] == 4)

    def test_interior_points_ignored(self):
        pts = np.vstack([unit_cube().vertices, [[0.1, 0.2, 0.1]]])
        mesh = convex_hull(pts)
        assert mesh.face_count == 6
        assert len(mesh.vertices) == 8

    def test_corner_simplex_volume(self):
        mesh = convex_hull(np.array([[0, 0, 0], [1, 0, 0],
                                     [0, 1, 0], [0, 0, 1]], float))
        assert mesh.face_count == 4
        assert np.all(mesh.cycles[0] == 3)
        assert volume(mesh) == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_coplanar_input_rejected(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
                        [0.3, 0.4, 0]], float)
        with pytest.raises(DegenerateBody):
            convex_hull(pts)

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_rejected(self, x):
        pts = unit_cube().vertices.copy()
        pts[2, 1] = x
        with pytest.raises(DegenerateBody) as err:
            convex_hull(pts)
        assert str(err.value) == "non-finite point coordinates"

    @pytest.mark.parametrize("k", [-480, -100, -40, -8, 8, 40, 100, 480])
    def test_a_power_of_two_scales_the_hull_bit_for_bit(self, k):
        # Qhull sees the points at one scale whatever the unit of length
        pts = icosphere_mesh(2).vertices * [1.0, 2.0, 0.5]
        base, got = convex_hull(pts), convex_hull(np.ldexp(pts, k))
        np.testing.assert_array_equal(got.vertices,
                                      np.ldexp(base.vertices, k))
        np.testing.assert_array_equal(got.face_areas,
                                      np.ldexp(base.face_areas, 2 * k))
        np.testing.assert_array_equal(got.face_normals, base.face_normals)
        for a, b in zip(got.cycles, base.cycles):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("s", [1e-140, 1e-100, 1e80, 1e120])
    def test_cube_at_extreme_scales(self, s):
        mesh = convex_hull(unit_cube().vertices * s)
        assert mesh.face_count == 6 and len(mesh.vertices) == 8
        np.testing.assert_allclose(mesh.face_areas, s * s, rtol=1e-12)
        np.testing.assert_allclose(mesh.edges.lengths, s, rtol=1e-12)

    @pytest.mark.parametrize("s", [1e-150, 1e-100, 1e90, 1e140])
    def test_hull_at_an_extreme_extent_validates(self, s):
        # the closure of the vector area is a 2-norm of area vectors, whose
        # squares overflowed from an extent of about 1e78
        mesh = convex_hull(icosphere_mesh(1).vertices * s)
        assert validate_mesh(mesh) is mesh and mesh.face_count == 80

    @pytest.mark.parametrize("s", [1e-200, 1e-160, 1e151, 1e153])
    def test_extent_beyond_the_float_range_of_areas(self, s):
        with pytest.raises(DegenerateBody, match="point extent .* is "
                           "outside 1e-150 to 1e[+]150"):
            convex_hull(unit_cube().vertices * s)

    @pytest.mark.parametrize("spread", [True, False],
                             ids=["span", "centre"])
    def test_overflowing_coordinates_rejected(self, spread):
        # finite coordinates whose bounding box or centre overflows: the
        # error names the overflow, and no RuntimeWarning (an error under
        # the suite's filter) escapes on the way
        pts = unit_cube().vertices.copy()
        if spread:
            pts[0, 1], pts[-1, 1] = -1e308, 1e308
        else:
            pts[:, 1] += 1e308
        with pytest.raises(DegenerateBody) as err:
            convex_hull(pts)
        assert str(err.value) == "point coordinates overflow the float range"

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_hull_of_vertices_idempotent(self, seed):
        mesh = random_tangent_mesh(10, seed, jitter=0.05)
        again = convex_hull(mesh.vertices)
        assert vertex_sets_match(mesh, again, 1e-12 * mesh.scale)
        assert again.face_count == mesh.face_count
        cycles = {frozenset(c.tolist()) for c in cycle_arrays(mesh) if len(c)}
        cycles2 = {frozenset(c.tolist()) for c in cycle_arrays(again)}
        assert cycles == cycles2


class TestRowOrder:
    """`_row_order` is the lexsort of the plane rows, ties in index order."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lexsort(self, seed):
        # few distinct entries, so first entries tie in runs whose rows
        # differ, rows repeat, and -0.0 ties with 0.0
        rng = np.random.default_rng(seed)
        rows = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=(200, 4))
        rows[rng.integers(0, 200, 40)] = rows[rng.integers(0, 200, 40)]
        np.testing.assert_array_equal(_row_order(rows),
                                      np.lexsort(rows.T[::-1]))

    def test_distinct_first_entries_need_one_sort(self):
        rows = np.random.default_rng(1).normal(size=(300, 4))
        np.testing.assert_array_equal(_row_order(rows),
                                      np.lexsort(rows.T[::-1]))


def certified(mesh):
    return _certify_convex(mesh.vertices, mesh.cycles, mesh.face_normals)


class TestCertifyConvex:
    @pytest.mark.parametrize("make", [
        cube_mesh, lambda: icosphere_mesh(2), lambda: box_mesh((0.3, 1, 7)),
        lambda: convex_hull(icosphere_mesh(1).vertices * 1e-150),
        lambda: solved_mesh(), lambda: summed_mesh()],
        ids=["cube", "icosphere", "box", "tiny", "solver", "minkowski"])
    def test_convex_meshes_are_certified(self, make):
        assert certified(make())

    def test_a_cube_with_a_corner_pulled_out_is_not(self):
        # the certificate reads the vertices and cycles alone: the edge
        # and area faults are left to `validate_mesh`'s other checks
        assert not certified(broken_cube("vertex"))

    def test_a_surface_winding_twice_is_not(self):
        verts, faces = double_octahedron()
        count = np.full(len(faces), 3)
        cycles = (count, np.repeat(np.arange(len(faces)), 3),
                  np.concatenate(faces))
        area = _area_vectors(verts, cycles)
        normals = area / _area_norms(area, axis=1)[:, None]
        assert not _certify_convex(verts, cycles, normals)

    def test_a_certified_mesh_skips_the_support_pass(self, monkeypatch):
        calls, real = [], geometry._support_values

        def counted(*args):
            calls.append(1)
            return real(*args)
        monkeypatch.setattr(geometry, "_support_values", counted)
        validate_mesh(icosphere_mesh(2))
        assert not calls
        with pytest.raises(ValueError):
            validate_mesh(broken_cube("vertex"))
        assert calls


class TestFaceAssembly:
    """`_assemble_faces` sorts integer keys; its cycles and edges are those
    of `assemble_faces_reference` array for array, on hulls with merged
    coplanar facets and on bodies with degenerate vertices."""

    @pytest.mark.parametrize("make", [
        lambda: cube_mesh(1.0), lambda: box_mesh((1.0, 2.5, 0.3)),
        lambda: box_mesh((3.0, 1.0, 7.0), center=(1.0, -2.0, 0.5)),
        lambda: continuation_solve(grunbaum_herisson())[1]],
        ids=["cube", "box", "moved-box", "grunbaum"])
    def test_bodies(self, make):
        with assembly_checked() as calls:
            make()
        assert calls

    @settings(max_examples=25, deadline=None)
    @given(st.tuples(*[st.integers(1, 4)] * 3), st.floats(0.1, 10.0),
           st.integers(0, 10_000))
    def test_gridded_boxes(self, cells, spacing, seed):
        # every point of a grid filling the box, many of them on its faces
        # and edges: the hull keeps the 8 corners and merges 12 triangles
        # into 6 rectangles, axis-aligned or turned
        grid = np.stack(np.meshgrid(*[np.arange(n + 1) for n in cells],
                                    indexing="ij"), -1).reshape(-1, 3)
        turn = np.linalg.qr(np.random.default_rng(seed)
                            .standard_normal((3, 3)))[0]
        for pts in (spacing * grid, spacing * grid @ turn.T):
            with assembly_checked() as calls:
                convex_hull(pts)
            assert calls

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 200), st.integers(0, 10_000))
    def test_random_point_clouds(self, n, seed):
        pts = np.random.default_rng(seed).standard_normal((n, 3))
        with assembly_checked() as calls:
            convex_hull(pts)
        assert calls

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(["box", "cloud"]),
           st.sampled_from(["face", "edge"]), st.integers(0, 10_000))
    def test_point_near_a_face_or_an_edge_is_no_vertex(self, body, near,
                                                      seed):
        # one more point at most 1e-12 * scale off the inside of a face or
        # of an edge: Qhull may keep it, on fewer than 3 merged faces
        rng = np.random.default_rng(seed)
        if body == "box":
            turn = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            pts = box_mesh(rng.uniform(0.2, 5.0, 3)).vertices @ turn.T
        else:
            pts = rng.standard_normal((rng.integers(8, 40), 3))
        clean = convex_hull(pts)
        faces = [c for c in cycle_arrays(clean) if len(c)]
        ring = clean.vertices[faces[rng.integers(len(faces))]]
        if near == "edge":
            k, t = rng.integers(len(ring)), rng.uniform(0.2, 0.8)
            x = t * ring[k] + (1.0 - t) * ring[(k + 1) % len(ring)]
        else:
            w = rng.uniform(0.2, 1.0, len(ring))
            x = w @ ring / w.sum()
        off = rng.standard_normal(3)
        x += rng.uniform(0.0, 1e-12) * clean.scale * off / np.linalg.norm(off)
        with assembly_checked() as calls:
            mesh = convex_hull(np.vstack([pts, x]))
        assert calls
        assert len(mesh.vertices) == len(clean.vertices)
        assert mesh.face_count == clean.face_count
        assert np.isfinite(mesh.face_normals).all()
        validate_mesh(mesh)


class TestMeasurements:
    def test_unit_cube_volume(self):
        assert volume(unit_cube()) == pytest.approx(1.0, rel=1e-12)

    def test_long_box_volume(self):
        assert volume(box_mesh((1, 1, 50))) == pytest.approx(50.0, rel=1e-12)

    @pytest.mark.parametrize("s", [1e-100, 1e100])
    def test_volume_at_an_extreme_extent(self, s):
        mesh = convex_hull(cube_mesh(1).vertices * s)
        assert volume(mesh) == pytest.approx(s ** 3, rel=1e-12)

    @pytest.mark.parametrize("s", [1e-120, 1e110])
    def test_volume_outside_the_float_range_is_named(self, s):
        mesh = convex_hull(cube_mesh(1).vertices * s)
        with pytest.raises(DegenerateBody,
                           match="^volume .* is outside the float range$"):
            volume(mesh)

    def test_volume_translation_invariant(self):
        mesh = random_tangent_mesh(9, 5, jitter=0.05)
        shifted = mesh.translate([13.0, -7.5, 2.25])
        assert volume(shifted) == pytest.approx(volume(mesh), rel=1e-9)

    @pytest.mark.parametrize("d", [1e7, 1e12])
    def test_volume_far_from_the_origin(self, d):
        # the face heights are taken about the vertex centroid, not as
        # offsets in the caller's frame minus n . centroid, which cancel
        far = icosphere_mesh(2).translate(d * np.array([1.0, -0.7, 0.3]))
        assert volume(far) == pytest.approx(
            volume(far.translate(-far.centroid)), rel=1e-12)

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
        pruned = mesh_of(cube.vertices,
                         [c for i, c in enumerate(cycle_arrays(cube))
                          if i != j],
                         np.delete(cube.face_normals, j, axis=0),
                         np.delete(cube.face_areas, j), {})
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

    def test_support_values_match_one_product(self):
        # 2,000 points x 500 normals make 8 row blocks of 65 normals or
        # fewer; a NaN normal row gives a NaN support value in either.
        # Coordinates are multiples of 1/16 and 1/8, so every dot product
        # is exact whatever order the matrix product sums it in, and the
        # two agree bit for bit
        rng = np.random.default_rng(4)
        points = rng.integers(-64, 65, (2000, 3)) / 16.0
        normals = rng.integers(-16, 17, (500, 3)) / 8.0
        normals[[0, 131, 499]] = np.nan
        assert len(_row_blocks(500, 2000)) == 8
        np.testing.assert_array_equal(_support_values(points, normals),
                                      support_values_reference(points,
                                                               normals))


def broken_cube(fault):
    """`cube_mesh()` with one fault that `validate_mesh` must reject."""
    cube = cube_mesh()
    faces, normals, areas = (cycle_arrays(cube), cube.face_normals,
                             cube.face_areas)
    edges = edge_dict(cube.edges)
    if fault == "vertex":
        vertices = cube.vertices.copy()
        vertices[0] *= 1.5
        return replace(cube, vertices=vertices)
    if fault == "area":
        return replace(cube, face_areas=cube.face_areas * [2, 1, 1, 1, 1, 1])
    if fault == "dropped":
        edges.popitem()
    elif fault == "zero":
        edges[next(iter(edges))] = 0.0
    else:  # the last edge, (4, 5), moved onto an empty seventh face slot
        (i, _), length = edges.popitem()
        edges[(i, 6)] = length
        faces, normals, areas = (faces + [[]], np.vstack([normals, AXES[4]]),
                                 np.append(areas, 0.0))
    return mesh_of(cube.vertices, faces, normals, areas, edges)


class TestValidateMesh:
    @pytest.mark.parametrize("fault, message", [
        ("vertex", "vertex beyond plane of face 0"),
        ("dropped", "Euler characteristic V-E+F = 3 != 2"),
        ("area", "vector area of the surface does not close up"),
        ("zero", "non-positive edge length for faces 0,1"),
        ("absent", "edge between absent faces 4,6")])
    def test_rejects(self, fault, message):
        with pytest.raises(ValueError) as err:
            validate_mesh(broken_cube(fault))
        assert str(err.value) == message

    def test_far_from_the_origin(self):
        # planes are measured about the vertex centroid, so the check does
        # not depend on where the body sits
        mesh = icosphere_mesh(2).translate(1e7 * np.array([1.0, -0.7, 0.3]))
        assert validate_mesh(mesh) is mesh

    def test_rounded_far_from_the_origin(self):
        # moved by 1e8 the vertices round by about 1e-8, beyond 1e-9 of the
        # scale off the planes of the unmoved normals
        mesh = icosphere_mesh(2).translate(1e8 * np.array([1.0, -0.7, 0.3]))
        with pytest.raises(ValueError, match="vertex beyond plane of face"):
            validate_mesh(mesh)


def solved_mesh():
    return continuation_solve(random_herisson(24, 3))[1]


def summed_mesh():
    return minkowski_sum(tetrahedron_mesh(),
                         icosphere_mesh(1).translate([0.5, 0.0, 0.0]))


class TestMeshViews:
    """A mesh is its arrays: flat cycles in face order, and edges whose
    angles and normals agree with the mesh's."""

    @pytest.mark.parametrize("make", [cube_mesh, solved_mesh, summed_mesh],
                             ids=["cube", "solver", "minkowski"])
    def test_views_follow_the_fields(self, make):
        mesh = make()
        edges = mesh.edges
        assert np.all(edges.i < edges.j) and np.all(edges.lengths > 0)
        ni, nj = mesh.face_normals[edges.i], mesh.face_normals[edges.j]
        np.testing.assert_allclose(
            edges.sin, np.linalg.norm(np.cross(ni, nj), axis=1), atol=1e-15)
        np.testing.assert_allclose(edges.cos, (ni * nj).sum(axis=1),
                                   atol=1e-15)
        assert np.array_equal(edges.face_normals, mesh.face_normals)
        count, face, vid = mesh.cycles
        assert len(count) == len(mesh.face_normals)
        assert face.tolist() == np.repeat(np.arange(len(count)),
                                          count).tolist()
        assert len(vid) == count.sum() and np.all(count[count > 0] >= 3)

    def test_translate_keeps_the_views(self):
        mesh = solved_mesh()
        moved = mesh.translate([3.0, -1.0, 0.5])
        for a, b in zip(moved.cycles + moved.edges, mesh.cycles + mesh.edges):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", range(30))
    def test_jacobian_of_the_cut_and_of_its_mesh(self, seed):
        # the edge keys of the two match (`TestPolarEdgeList`)
        cut = _polar_hull(*jittered_case(seed))
        jac = area_jacobian(cut)
        assert np.abs(jac - area_jacobian(_hull_mesh(cut))).max() <= \
            1e-12 * np.abs(jac).max()


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
        # the certificate weighs outer's face constraints: weights >= 0 that
        # sum to 1, a zero normal sum and a total slack equal to the margin
        outer, inner = cube_mesh(10.0), box_mesh((1, 1, 50))
        res = contains_by_translation(outer, inner)
        assert not res.contained and res.translation is None
        cert = res.certificate
        w, dirs = cert["weights"], cert["directions"]
        assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-12
        assert np.abs(w @ dirs).max() <= 1e-12
        offsets = outer.face_support_numbers() \
            - np.array([support_value(inner, n) for n in dirs])
        assert abs(w @ offsets - res.margin) <= 1e-12 * outer.scale
        assert cert["deficit"] == res.margin < 0.0

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("far", [1e6, 1e7, 3e7])
    def test_translate_of_itself_far_apart(self, depth, far):
        # both bodies are measured about their vertex centroids, so a body
        # fits in a translate of itself wherever the two sit
        shift = far * np.array([1.0, -0.7, 0.3])
        body = icosphere_mesh(depth)
        outer, inner = body.translate(shift), body.translate(-shift)
        res = contains_by_translation(outer, inner)
        tol = 1e-9 * outer.scale
        assert res.contained and res.margin >= -tol
        # inner + translation, measured about outer's centroid
        c = outer.centroid
        moved = (inner.vertices - inner.centroid) \
            + (res.translation - (c - inner.centroid))
        h = outer.translate(-c).face_support_numbers()
        assert np.all(moved @ outer.face_normals.T <= h + tol)

    @pytest.mark.parametrize("seed", [1, 4])
    def test_containment_implies_volume_order(self, seed):
        inner = random_tangent_mesh(8, seed, jitter=0.05)
        outer = convex_hull(inner.vertices * 1.4 + np.array([0.3, 0, -0.2]))
        assert contains_by_translation(outer, inner).contained
        assert volume(inner) <= volume(outer)


class TestDeepestPoint:
    """`_deepest_point` against SciPy's HiGHS (`deepest_point_checked`): the
    same depth s to 1e-12 of the offsets' scale, reached by its t, and
    certified by its weights."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_spanning_normals(self, seed):
        # a herisson's directions positively span 3-space; offsets of
        # either sign and any scale, so that s has either sign
        rng = np.random.default_rng(seed)
        k = int(rng.integers(4, 80))
        offsets = rng.uniform(-1.0, 2.0, k) * 10.0 ** rng.uniform(-6, 6)
        normals = random_herisson(k, seed).directions
        deepest_point_checked(normals, offsets,
                              1e-12 * np.abs(offsets).max())

    @pytest.mark.parametrize("case", range(5))
    @pytest.mark.parametrize("shift", [(0, 0, 0), (30.0, -20.0, 10.0)])
    def test_corner_cases(self, case, shift):
        dirs, offsets = corner_cases()[case]
        offsets = offsets + dirs @ np.array(shift, float)
        deepest_point_checked(dirs, offsets, 1e-12 * np.abs(offsets).max())

    @pytest.mark.parametrize("seed", range(20))
    def test_cube_in_cube_ties(self, seed):
        # boxes of integer extents, each face row repeated up to 3 times:
        # many rows tie for most violated and many weights tie at 0
        rng = np.random.default_rng(seed)
        outer, inner = rng.integers(1, 5, 3), rng.integers(1, 5, 3)
        offsets = np.tile(outer - inner, 2) / 2.0
        if not offsets.any():
            offsets[0] = 1.0
        reps = int(rng.integers(1, 4))
        order = rng.permutation(6 * reps)
        dirs, offsets = np.tile(AXES, (reps, 1))[order], \
            np.tile(offsets, reps)[order]
        deepest_point_checked(dirs, offsets, 1e-12 * np.abs(offsets).max())

    def test_normals_in_a_half_space_raise(self):
        # every normal points up, so moving t down deepens every half-space
        # without bound: s is unbounded
        tilted = np.array([[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]])
        scattered = np.random.default_rng(0).standard_normal((20, 3))
        scattered[:, 2] = np.abs(scattered[:, 2]) + 0.01
        for dirs in (tilted, scattered):
            dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]
            with pytest.raises(UnboundedRegion,
                               match="do not positively span"):
                _deepest_point(dirs, np.ones(len(dirs)))


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

    def test_a_nan_row_is_not_a_unit_row(self):
        d = np.vstack([AXES, [np.nan, 0.0, 1.0]])
        with pytest.raises(ValueError, match="unit vectors"):
            as_unit_rows(d)
