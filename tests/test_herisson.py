import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blaschke3d.bodies import (cube_herisson, cube_mesh,
                               dodecahedron_herisson, grunbaum_herisson,
                               icosahedron_herisson)
from blaschke3d.errors import (ClosureViolation, DuplicateDirection,
                               NonPositiveArea, NonPositiveScale,
                               RankDeficient)
from blaschke3d.geometry import unit
from blaschke3d.herisson import (Herisson, blaschke_add, blaschke_scale,
                                 herisson_of_mesh, random_herisson,
                                 validate_herisson)

from helpers import random_tangent_mesh

AXES = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                 [0, -1, 0], [0, 0, 1], [0, 0, -1]], float)


class TestValidate:
    def test_grunbaum_data_is_valid(self):
        h = grunbaum_herisson()
        assert h.k == 10
        resid = np.linalg.norm(h.closure_residual())
        assert resid <= 1e-6 * h.total_area

    def test_truncated_decimal_data_gets_repaired(self):
        # same shape as the exact one, but weights truncated to 10 decimals
        tilted = [unit(v) for v in ((1, 1, 0), (0, 1, 1), (1, 0, 1))]
        diag = [unit((sx, sy, sz))
                for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)
                if (sx, sy, sz) != (1, 1, 1)]
        dirs = np.array(tilted + diag)
        areas = np.array([2.0412414523] * 3 + [5.0] * 7)
        before = np.linalg.norm(areas @ dirs)
        assert 0 < before <= 1e-6 * areas.sum()
        h = validate_herisson(dirs, areas)
        assert h.correction > 0
        assert np.linalg.norm(h.closure_residual()) <= 1e-8 * h.total_area

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            validate_herisson(np.array([[1.0, 0, 0], [-1.0, 0, 0]]),
                              np.ones(2))

    def test_prism_side_normals_rejected(self):
        ang = np.linspace(0, 2 * np.pi, 6, endpoint=False)
        sides = np.stack([np.cos(ang), np.sin(ang), np.zeros(6)], axis=1)
        with pytest.raises(RankDeficient):
            validate_herisson(sides, np.ones(6))

    def test_large_imbalance_rejected(self):
        areas = np.array([1.0, 2.0, 1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ClosureViolation) as err:
            validate_herisson(AXES, areas)
        assert err.value.residual == pytest.approx(1.0)

    def test_nonpositive_area(self):
        with pytest.raises(NonPositiveArea):
            validate_herisson(AXES, np.array([1, 1, 1, 1, 1, 0.0]))

    def test_duplicate_direction(self):
        dirs = np.vstack([AXES, [[1, 0, 0]]])
        with pytest.raises(DuplicateDirection):
            validate_herisson(dirs, np.ones(7))

    def test_pairs_input_form(self):
        h = validate_herisson([(d, 1.0) for d in AXES])
        assert h.k == 6


class TestOfMesh:
    def test_unit_cube(self):
        h = herisson_of_mesh(cube_mesh(1.0))
        assert h.k == 6
        assert np.allclose(h.areas, 1.0, rtol=1e-12)
        for d in AXES:
            assert np.linalg.norm(h.directions - d, axis=1).min() <= 1e-12

    @pytest.mark.parametrize("seed", [0, 5])
    def test_mesh_face_data_always_validates(self, seed):
        mesh = random_tangent_mesh(11, seed, jitter=0.05)
        h = herisson_of_mesh(mesh)
        validate_herisson(h.directions, h.areas)


class TestBlaschkeAdd:
    def test_cube_plus_itself(self):
        c = cube_herisson(1.0)
        s = blaschke_add(c, c)
        assert s.k == 6
        assert np.allclose(s.areas, 2.0)

    def test_dodecahedron_plus_icosahedron(self):
        s = blaschke_add(dodecahedron_herisson(), icosahedron_herisson())
        assert s.k == 32
        assert sorted(np.round(s.areas, 9)) == [3.0] * 12 + [5.0] * 20

    def test_disjoint_direction_counts_add(self):
        a = random_herisson(6, 1)
        b = random_herisson(9, 2)
        assert blaschke_add(a, b).k == 15

    def test_closure_preserved_exactly(self):
        a = random_herisson(7, 3)
        b = random_herisson(8, 4)
        s = blaschke_add(a, b)
        expect = a.closure_residual() + b.closure_residual()
        assert np.linalg.norm(s.closure_residual() - expect) <= 1e-14

    def test_matching_directions_merge(self):
        a = cube_herisson(1.0)
        b = blaschke_scale(a, 3.0)
        s = blaschke_add(a, b)
        assert s.k == 6
        assert np.allclose(s.areas, 4.0)

    def test_permuting_the_second_operand(self):
        # b carries all of a's directions and six new ones
        a = random_herisson(8, 21)
        b = blaschke_add(random_herisson(6, 22), blaschke_scale(a, 2.0))
        perm = np.random.default_rng(5).permutation(b.k)
        shuffled = Herisson(b.directions[perm], b.areas[perm])
        s, t = blaschke_add(a, b), blaschke_add(a, shuffled)
        assert s.k == t.k == 14
        key = np.lexsort(s.directions.T)
        again = np.lexsort(t.directions.T)
        assert np.array_equal(s.directions[key], t.directions[again])
        assert np.array_equal(s.areas[key], t.areas[again])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_blaschke_add_commutative(seed_a, seed_b):
    a = random_herisson(5 + seed_a % 4, seed_a)
    b = random_herisson(5 + seed_b % 4, seed_b)
    ab, ba = blaschke_add(a, b), blaschke_add(b, a)
    assert ab.k == ba.k
    for d, f in zip(ab.directions, ab.areas):
        gap = np.linalg.norm(ba.directions - d, axis=1)
        hit = int(np.argmin(gap))
        assert gap[hit] <= 1e-12
        assert abs(ba.areas[hit] - f) <= 1e-12 * max(1.0, f)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_blaschke_add_associative(seed):
    a = random_herisson(5, seed)
    b = random_herisson(6, seed + 1)
    c = random_herisson(7, seed + 2)
    left = blaschke_add(blaschke_add(a, b), c)
    right = blaschke_add(a, blaschke_add(b, c))
    assert left.k == right.k
    for d, f in zip(left.directions, left.areas):
        gap = np.linalg.norm(right.directions - d, axis=1)
        hit = int(np.argmin(gap))
        assert gap[hit] <= 1e-12
        assert abs(right.areas[hit] - f) <= 1e-12 * max(1.0, f)


class TestBlaschkeScale:
    def test_identity_scale(self):
        h = random_herisson(6, 11)
        s = blaschke_scale(h, 1.0)
        assert np.array_equal(s.areas, h.areas)
        assert np.array_equal(s.directions, h.directions)

    def test_nonpositive_scale(self):
        with pytest.raises(NonPositiveScale):
            blaschke_scale(cube_herisson(), 0.0)
        with pytest.raises(NonPositiveScale):
            blaschke_scale(cube_herisson(), -2.0)

    def test_closure_scales_exactly(self):
        h = random_herisson(9, 12)
        s = blaschke_scale(h, 2.5)
        assert np.linalg.norm(s.closure_residual()) <= 1e-15 * s.total_area


class TestRandomHerisson:
    def test_deterministic(self):
        a = random_herisson(6, 1)
        b = random_herisson(6, 1)
        assert np.array_equal(a.directions, b.directions)
        assert np.array_equal(a.areas, b.areas)

    def test_minimum_face_count(self):
        with pytest.raises(ValueError):
            random_herisson(3, 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_four_faces_span(self, seed):
        h = random_herisson(4, seed)
        sv = np.linalg.svd(h.directions, compute_uv=False)
        assert sv[-1] > 1e-6
        assert h.areas.min() >= 0.1

    def test_large_instance_is_tight(self):
        h = random_herisson(40, 7)
        validate_herisson(h.directions, h.areas)
        resid = np.linalg.norm(h.closure_residual())
        assert resid <= 1e-12 * h.total_area
