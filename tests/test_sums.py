from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import ConvexHull
from scipy.spatial.transform import Rotation

import blaschke3d.sums as sums
from blaschke3d.bodies import (cube_herisson, cube_mesh,
                               dodecahedron_herisson, elongated_herisson,
                               grunbaum_herisson, icosahedron_herisson,
                               icosphere_mesh, near_duplicate_herisson,
                               rotated_tetrahedron_pair)
from blaschke3d.errors import DegenerateBody
from blaschke3d.fileio import export_off, import_off, parse_herisson_file
from blaschke3d.geometry import (convex_hull, support_value, validate_mesh,
                                 volume)
from blaschke3d.herisson import (blaschke_add, herisson_of_mesh,
                                 random_herisson)
from blaschke3d.solver import continuation_solve
from blaschke3d.sums import blaschke_sum_bodies, minkowski_sum

from helpers import (assembly_checked, centered, deepest_point_checked,
                     diameter, mesh_of, random_tangent_mesh,
                     vertex_sets_match)


def sample_directions(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


class TestMinkowskiSum:
    def test_two_unit_cubes(self):
        s = minkowski_sum(cube_mesh(1.0), cube_mesh(1.0))
        assert s.face_count == 6
        assert volume(s) == pytest.approx(8.0, rel=1e-12)

    def test_rotated_tetrahedra_make_fourteen_faces(self):
        t1, t2 = rotated_tetrahedron_pair(1.0)
        s = minkowski_sum(t1, t2)
        assert s.face_count == 14
        validate_mesh(s)

    def test_single_point_translates(self):
        mesh = random_tangent_mesh(8, 1, jitter=0.05)
        t = np.array([[0.5, -1.0, 2.0]])
        s = minkowski_sum(mesh, t)
        assert vertex_sets_match(s, mesh.translate(t[0]), 1e-12 * mesh.scale)

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, x):
        with pytest.raises(DegenerateBody) as err:
            minkowski_sum(cube_mesh(1.0), [[x, 0.0, 0.0]])
        assert str(err.value) == "non-finite point coordinates"

    @pytest.mark.parametrize("seed", range(5))
    def test_support_additivity(self, seed):
        p = random_tangent_mesh(7, seed, jitter=0.05)
        q = random_tangent_mesh(9, seed + 100, jitter=0.05)
        s = minkowski_sum(p, q)
        for d in sample_directions(100, seed):
            expect = support_value(p, d) + support_value(q, d)
            assert support_value(s, d) == \
                pytest.approx(expect, abs=1e-9 * s.scale)

    def test_commutative(self):
        p = random_tangent_mesh(7, 2, jitter=0.05)
        q = random_tangent_mesh(8, 3, jitter=0.05)
        a, b = minkowski_sum(p, q), minkowski_sum(q, p)
        assert vertex_sets_match(centered(a), centered(b),
                                 1e-6 * diameter(a))

    @pytest.mark.parametrize("seed", [4, 5])
    def test_face_normals_come_from_operands_or_edge_pairs(self, seed):
        p = random_tangent_mesh(6, seed, jitter=0.05)
        q = random_tangent_mesh(7, seed + 50, jitter=0.05)
        s = minkowski_sum(p, q)
        candidates = [p.face_normals, q.face_normals]
        for mesh_a, mesh_b in ((p, q),):
            for i, j in zip(mesh_a.edges.i, mesh_a.edges.j):
                for u, v in zip(mesh_b.edges.i, mesh_b.edges.j):
                    ea = np.cross(mesh_a.face_normals[i],
                                  mesh_a.face_normals[j])
                    eb = np.cross(mesh_b.face_normals[u],
                                  mesh_b.face_normals[v])
                    cr = np.cross(ea, eb)
                    n = np.linalg.norm(cr)
                    if n > 1e-12:
                        candidates.append((cr / n)[None, :])
                        candidates.append((-cr / n)[None, :])
        pool = np.vstack(candidates)
        for n in s.face_normals:
            assert np.linalg.norm(pool - n, axis=1).min() <= 1e-7


def turned(mesh, seed, stretch=(1.0, 1.0, 1.0)):
    """A mesh rotated at random (seeded) after scaling its axes by
    `stretch`, its faces and normals carried along."""
    m = Rotation.random(random_state=seed).as_matrix() @ np.diag(stretch)
    normals = mesh.face_normals @ np.linalg.inv(m)
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    return replace(mesh, vertices=mesh.vertices @ m.T, face_normals=normals)


def solved(h):
    return continuation_solve(h)[1]


DATA = Path(__file__).resolve().parent.parent / "data"


def shipped(name):
    """The mesh that `msum` makes of a shipped `.her` file."""
    return solved(parse_herisson_file((DATA / name).read_text()))


def pairwise_hull(p, q):
    """The reference sum: the hull of every pairwise vertex sum."""
    vp, vq = (np.atleast_2d(getattr(b, "vertices", b)) for b in (p, q))
    return convex_hull((vp[:, None, :] + vq[None, :, :]).reshape(-1, 3))


def elongated_mesh(r):
    pts = np.random.default_rng(7).standard_normal((60, 3))
    return convex_hull(pts * (r, 1.0, r ** -0.5))


_CUBE = cube_mesh(1.0)
SUM_CASES = {
    "ico1+ico2": lambda: (turned(icosphere_mesh(1), 1, (0.6, 1.0, 1.9)),
                          turned(icosphere_mesh(2), 2, (1.7, 0.8, 0.5))),
    "ico2+ico2": lambda: (turned(icosphere_mesh(2), 3, (1.2, 0.5, 2.0)),
                          turned(icosphere_mesh(2), 4, (0.7, 1.5, 1.0))),
    "ico1+ico3": lambda: (turned(icosphere_mesh(1), 5, (2.0, 0.9, 0.6)),
                          turned(icosphere_mesh(3), 6, (0.5, 1.1, 1.6))),
    "ico3+ico3": lambda: (icosphere_mesh(3), icosphere_mesh(3)),
    "cube+cube": lambda: (_CUBE, _CUBE),
    "tetrahedra": lambda: rotated_tetrahedron_pair(1.0),
    "k6+k12": lambda: (solved(random_herisson(6, 0)),
                       solved(random_herisson(12, 0))),
    "k12+k12": lambda: (solved(random_herisson(12, 1)),
                        turned(solved(random_herisson(12, 1)), 7)),
    "k48+k48": lambda: (solved(random_herisson(48, 0)),) * 2,
    "k192+ico2": lambda: (solved(random_herisson(192, 0)),
                          turned(icosphere_mesh(2), 8)),
    "grunbaum+k48": lambda: (solved(grunbaum_herisson()),
                             solved(random_herisson(48, 1))),
    "grunbaum+grunbaum": lambda: (solved(grunbaum_herisson()),) * 2,
    "elongated-r30": lambda: (solved(elongated_herisson(30, 7)),
                              icosphere_mesh(1)),
    "elongated-r1000": lambda: (solved(elongated_herisson(1000, 7)),
                                solved(elongated_herisson(100, 7))),
    "elongated-hulls": lambda: (elongated_mesh(1000.0),
                                turned(elongated_mesh(300.0), 9)),
    "near-duplicate": lambda: (solved(near_duplicate_herisson(1e-7)),) * 2,
    "near-duplicate+k12": lambda: (solved(near_duplicate_herisson(1e-7)),
                                   solved(random_herisson(12, 2))),
    "cloud+k12": lambda: (np.random.default_rng(3).standard_normal((50, 3)),
                          solved(random_herisson(12, 0))),
    "k48+point": lambda: (solved(random_herisson(48, 0)),
                          np.array([[0.5, -1.0, 2.0]])),
    "faceless+k12": lambda: (
        mesh_of(_CUBE.vertices, [], np.zeros((0, 3)), [], {}),
        solved(random_herisson(12, 0))),
    # Qhull keeps 6 pair sums that rounding puts off a face's plane, each
    # inside a face or an edge; `grunbaum_herisson()` rounds otherwise and
    # its sum has none
    "grunbaum.her+icosahedron.her": lambda: (shipped("grunbaum.her"),
                                             shipped("icosahedron.her")),
}


@pytest.mark.parametrize("name", SUM_CASES)
def test_face_assembly_matches_the_reference(name):
    # the operands (solves of random herissons at k = 6 to 192, Gruenbaum's
    # body, turned icospheres) and the sum, every hull and every solve's mesh
    with assembly_checked() as calls:
        minkowski_sum(*SUM_CASES[name]())
    assert calls


@pytest.mark.parametrize("name", SUM_CASES)
def test_sum_is_a_mesh_that_reads_back(name):
    total = minkowski_sum(*SUM_CASES[name]())
    validate_mesh(total)
    assert import_off(export_off(total)).face_count == total.face_count


def test_shipped_grunbaum_and_icosahedron():
    # 62 hull triangles on 26 planes, and 33 hull points of which 6 lie on
    # fewer than 3 faces
    total = minkowski_sum(*SUM_CASES["grunbaum.her+icosahedron.her"]())
    assert (total.face_count, len(total.vertices)) == (26, 27)
    assert volume(total) == \
        pytest.approx(ConvexHull(total.vertices).volume, rel=1e-12)


@pytest.mark.parametrize("name", ["ico1+ico2", "ico2+ico2", "ico1+ico3"])
def test_deepest_point_matches_the_presolved_program(name):
    # the translate-inside programs of a sum and its operands, both ways
    # round, against HiGHS with presolve
    p, q = SUM_CASES[name]()
    total, unique = minkowski_sum(p, q), 0
    for outer, inner in ((total, p), (total, q), (p, total)):
        live = outer.face_areas > 0
        normals = outer.face_normals[live]
        rhs = outer.face_support_numbers()[live] \
            - (inner.vertices @ normals.T).max(axis=0)
        tol = 1e-12 * outer.scale
        got, weights, want = deepest_point_checked(normals, rhs, tol)
        fits = [x[3] >= -1e-9 * outer.scale for x in (got, want.x)]
        assert fits[0] == fits[1] == (inner is not total)
        # a row with weight in either solver's certificate is tight at every
        # optimum: where those normals span 3-space the optimal t is unique,
        # and elsewhere (such as in every program of the sum in an operand)
        # the two solvers may reach different points of a set
        tight = (weights > 0) | (-want.ineqlin.marginals > 1e-12)
        if np.linalg.matrix_rank(normals[tight]) == 3:
            unique += 1
            assert np.abs(got[:3] - want.x[:3]).max() <= tol
    assert unique >= 1


class TestOutputSensitiveSum:
    """`minkowski_sum` hulls only the pairs whose normal caps meet; the
    result is the hull of all pairwise sums."""

    @pytest.mark.parametrize("name", SUM_CASES)
    def test_matches_the_hull_of_all_pairwise_sums(self, name):
        p, q = SUM_CASES[name]()
        ref, got = pairwise_hull(p, q), minkowski_sum(p, q)
        assert vertex_sets_match(got, ref, 1e-12 * ref.scale)
        assert got.face_count == ref.face_count
        assert len(got.edges.i) == len(ref.edges.i)
        assert volume(got) == pytest.approx(volume(ref), rel=1e-12)

    def test_needle_ends_keep_every_pair(self):
        # a cap of pi/2 or more is not convex: such a vertex meets all
        _, _, radii = sums._normal_caps(elongated_mesh(1000.0))
        assert np.count_nonzero(radii == np.pi) >= 2
        assert radii[radii < np.pi].max() < np.pi / 2

    def test_hulls_few_of_the_pairwise_sums(self, monkeypatch):
        sizes = []
        real = sums.convex_hull

        def counted(points):
            sizes.append(len(points))
            return real(points)
        monkeypatch.setattr(sums, "convex_hull", counted)
        sphere = icosphere_mesh(3)
        minkowski_sum(sphere, sphere)
        assert len(sphere.vertices) ** 2 == 412_164
        assert sizes[0] <= 0.02 * 412_164


    def test_a_warm_pass_flattens_only_the_new_sums(self, monkeypatch):
        # a mesh is built with its cycles and edges as arrays, so no pass
        # flattens a Python list or dict: no np.fromiter call
        from blaschke3d import brunn_minkowski_check, contains_by_translation
        from blaschke3d.geometry import integral_mean_curvature
        turn = Rotation.from_rotvec([0.3, -0.2, 0.5]).as_matrix()
        p = convex_hull(icosphere_mesh(1).vertices)
        q = convex_hull(1.7 * icosphere_mesh(2).vertices @ turn.T)

        def one_pass():
            total = minkowski_sum(p, q)
            volume(total), integral_mean_curvature(total)
            brunn_minkowski_check(p, q)
            contains_by_translation(total, p)
        one_pass()
        calls = []
        real = np.fromiter

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        monkeypatch.setattr(np, "fromiter", counted)
        one_pass()
        assert len(calls) == 0


class TestBlaschkeSumBodies:
    def test_cube_with_itself_scales_by_sqrt2(self):
        c = cube_mesh(1.0)
        s = blaschke_sum_bodies(c, c)
        assert s.face_count == 6
        assert np.allclose(herisson_of_mesh(s).areas, 2.0, rtol=1e-9)
        assert volume(s) == pytest.approx(2 ** 1.5, rel=1e-9)

    def test_dodecahedron_icosahedron_football(self):
        _, dod, _ = continuation_solve(dodecahedron_herisson())
        _, ico, _ = continuation_solve(icosahedron_herisson())
        s = blaschke_sum_bodies(dod, ico)
        assert s.face_count == 32
        count = s.cycles[0]
        pent = np.count_nonzero(count == 5)
        hexa = np.count_nonzero(count == 6)
        assert (pent, hexa) == (12, 20)
        validate_mesh(s)

    def test_cube_icosahedron_face_count(self):
        _, cube2, _ = continuation_solve(cube_herisson(2.0))
        _, ico, _ = continuation_solve(icosahedron_herisson())
        s = blaschke_sum_bodies(cube2, ico)
        assert s.face_count == 26
        validate_mesh(s)

    @pytest.mark.parametrize("seed", [0, 6])
    def test_face_data_adds_per_direction(self, seed):
        p = random_tangent_mesh(7, seed, jitter=0.05)
        q = random_tangent_mesh(8, seed + 500, jitter=0.05)
        s = blaschke_sum_bodies(p, q)
        expect = blaschke_add(herisson_of_mesh(p), herisson_of_mesh(q))
        got = herisson_of_mesh(s)
        assert got.k == expect.k
        for d, f in zip(expect.directions, expect.areas):
            gap = np.linalg.norm(got.directions - d, axis=1)
            hit = int(np.argmin(gap))
            assert gap[hit] <= 1e-9
            assert got.areas[hit] == pytest.approx(f, rel=1e-6)

    def test_commutative(self):
        p = random_tangent_mesh(6, 7, jitter=0.05)
        q = random_tangent_mesh(7, 8, jitter=0.05)
        a = blaschke_sum_bodies(p, q)
        b = blaschke_sum_bodies(q, p)
        assert vertex_sets_match(centered(a), centered(b),
                                 1e-6 * diameter(a))

    def test_blaschke_volume_never_beats_minkowski(self):
        t1, t2 = rotated_tetrahedron_pair(1.0)
        blas = blaschke_sum_bodies(t1, t2)
        assert blas.face_count == 8  # opposite normals stay separate faces
        assert volume(blas) <= volume(minkowski_sum(t1, t2))
