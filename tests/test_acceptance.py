"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

The random campaigns use fixed seeds; everything here completes in well
under two minutes on an ordinary laptop.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from blaschke3d.bodies import (PHI, box_herisson, box_mesh, cube_herisson,
                               cube_mesh, rotated_tetrahedron_pair)
from blaschke3d.cli import main
from blaschke3d.fileio import import_off, parse_herisson_file
from blaschke3d.geometry import (_adjacency, contains_by_translation,
                                 intersect_halfspaces,
                                 vector_area_residual, volume)
from blaschke3d.herisson import blaschke_add, herisson_of_mesh, \
    random_herisson
from blaschke3d.inequalities import (FuzzConfig, exponent_check,
                                     fuzz_campaign, kneser_suss_check,
                                     monotonicity_check)
from blaschke3d.solver import (area_jacobian, continuation_solve,
                               initial_polyhedron, oracle_solve_small)
from blaschke3d.sums import minkowski_sum

from helpers import (centered, diameter, intersect, mesh_of,
                     random_tangent_mesh, vertex_sets_match)

DATA = Path(__file__).resolve().parent.parent / "data"

#: meshes produced by the pipelines exercised here, re-checked in criterion 12
_PIPELINE_MESHES = []


def _register(mesh, label):
    _PIPELINE_MESHES.append((label, mesh))
    return mesh


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


@pytest.fixture(scope="module")
def fuzz200():
    cfg = FuzzConfig(trials=200, faces_min=6, faces_max=12, seed=2024,
                     checks=("thm75", "ks"))
    return fuzz_campaign(cfg)


def test_criterion_01_icosahedron_reconstruction(tmp_path):
    out = tmp_path / "ico.off"
    t0 = time.perf_counter()
    code = main(["construct", str(DATA / "icosahedron.her"), "-o", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    mesh = _register(import_off(out.read_text()), "construct icosahedron")
    assert mesh.face_count == 20
    assert np.abs(mesh.face_areas - 5.0).max() <= 1e-6 * 5.0

    # the regular icosahedron carrying these normals: vertices at the cyclic
    # permutations of (0, +-PHI, +-1), edge 2, scaled to face area 5
    canonical = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            v = (0.0, s1 * PHI, s2 * 1.0)
            canonical += [v, (v[2], v[0], v[1]), (v[1], v[2], v[0])]
    canonical = np.array(canonical) * np.sqrt(5.0 / np.sqrt(3.0))
    got = centered(mesh)
    ref = mesh_of(canonical, [], np.zeros((0, 3)), np.zeros(0), {})
    assert vertex_sets_match(got, ref, 1e-5 * diameter(got))
    assert elapsed < 1.0
    _report(1, f"icosahedron rebuilt: 20 faces of area 5 (max rel err "
               f"{np.abs(mesh.face_areas - 5).max() / 5:.1e}), matches the "
               f"regular body, {elapsed:.2f}s < 1s")


def test_criterion_02_grunbaum_combinatorial_change(tmp_path, capsys):
    herisson = parse_herisson_file((DATA / "grunbaum.her").read_text())
    out = tmp_path / "g.off"
    code = main(["construct", str(DATA / "grunbaum.her"), "-o", str(out),
                 "--trace"])
    assert code == 0
    trace = json.loads(capsys.readouterr().out)
    mesh = _register(import_off(out.read_text()), "construct grunbaum")
    assert mesh.face_count == 10

    got = herisson_of_mesh(mesh)
    for d, f in zip(herisson.directions, herisson.areas):
        gap = np.linalg.norm(got.directions - d, axis=1)
        hit = int(np.argmin(gap))
        assert gap[hit] <= 1e-9
        assert abs(got.areas[hit] - f) <= 1e-6 * f

    start_sp, _ = initial_polyhedron(herisson.directions)
    start = intersect_halfspaces(start_sp)
    _, solved, _ = continuation_solve(herisson)
    assert _adjacency(start.edges) != _adjacency(solved.edges)
    assert trace["combinatorial_changes"] >= 1
    _report(2, "10-face body rebuilt with areas to 1e-6; face adjacency "
               f"changed en route ({trace['combinatorial_changes']} times)")


def test_criterion_03_blaschke_sum_face_counts(tmp_path):
    ico = parse_herisson_file((DATA / "icosahedron.her").read_text())
    dod = parse_herisson_file((DATA / "dodecahedron.her").read_text())
    cube = parse_herisson_file((DATA / "cube.her").read_text())

    ball = tmp_path / "ball.off"
    code = main(["bsum", str(DATA / "dodecahedron.her"),
                 str(DATA / "icosahedron.her"), "-o", str(ball)])
    assert code == 0
    football = _register(import_off(ball.read_text()), "bsum dodeca icosa")
    assert football.face_count == 32

    mixed = tmp_path / "mixed.off"
    code = main(["bsum", str(DATA / "cube.her"),
                 str(DATA / "icosahedron.her"), "-o", str(mixed)])
    assert code == 0
    cube_ico = _register(import_off(mixed.read_text()), "bsum cube icosa")
    assert cube_ico.face_count == 26

    for mesh, expect in ((football, blaschke_add(dod, ico)),
                         (cube_ico, blaschke_add(cube, ico))):
        got = herisson_of_mesh(mesh)
        for d, f in zip(expect.directions, expect.areas):
            gap = np.linalg.norm(got.directions - d, axis=1)
            hit = int(np.argmin(gap))
            assert gap[hit] <= 1e-9
            assert abs(got.areas[hit] - f) <= 1e-6 * f
    _report(3, "dodecahedron#icosahedron has 32 faces, cube#icosahedron 26, "
               "areas add per direction to 1e-6")


def test_criterion_04_minkowski_tetrahedra_faces():
    t1, t2 = rotated_tetrahedron_pair(1.0)
    s = _register(minkowski_sum(t1, t2), "msum rotated tetrahedra")
    assert s.face_count == 14
    _report(4, "Minkowski sum of the quarter-turned regular tetrahedra has "
               "exactly 14 faces")


def test_criterion_05_volume_monotonicity_without_containment():
    hk = box_herisson((1.0, 1.0, 50.0))
    hl = cube_herisson(100.0)
    rep = monotonicity_check(hk, hl)
    assert rep.verdict == "holds"
    assert rep.rhs == pytest.approx(50.0, rel=1e-9)
    assert rep.lhs == pytest.approx(1000.0, rel=1e-9)
    fit = contains_by_translation(cube_mesh(10.0), box_mesh((1.0, 1.0, 50.0)))
    assert fit.contained is False
    _report(5, "face data of the 1x1x50 box is dominated by the 10-cube's, "
               "volumes 50 <= 1000, yet no translate of the box fits inside")


def test_criterion_06_blaschke_never_beats_minkowski(fuzz200):
    entry = fuzz200["checks"]["thm75"]
    assert entry["fails"] == 0
    assert entry["holds"] + entry["equality"] == 200
    _report(6, "Vol(P#Q) <= Vol(P+Q) on 200 seeded random pairs "
               f"(worst relative margin {entry['worst_residual']:.2e})")


def test_criterion_07_kneser_suss_with_equality_cases(fuzz200):
    entry = fuzz200["checks"]["ks"]
    assert entry["fails"] == 0
    assert fuzz200["ks_equality_mismatches"] == 0
    rep = kneser_suss_check(cube_mesh(1.0), cube_mesh(2.0))
    assert rep.diagnosis["homothetic"]
    assert abs(rep.residual) <= 1e-9 * max(rep.lhs, rep.rhs)
    _report(7, "Kneser-Suss holds on the same 200 pairs, equality verdicts "
               "match the homothety detector, homothetic cubes saturate to "
               "1e-9")


def test_criterion_08_exponent_grid():
    for a in (1.0, 1.5, 2.0, 3.0):
        summary = fuzz_campaign(FuzzConfig(trials=50, faces_min=6,
                                           faces_max=12, seed=31337,
                                           checks=("thm81",), a=a))
        assert summary["checks"]["thm81"]["fails"] == 0, f"a={a}"
    rep4, _ = exponent_check(cube_mesh(1.0), cube_mesh(1.0), 0.5)
    assert rep4.verdict == "fails"
    assert abs(rep4.lhs - np.sqrt(2.0)) <= 1e-12
    assert abs(rep4.rhs - 2.0) <= 1e-12
    _report(8, "powered inequalities hold for a in {1, 1.5, 2, 3} on 50 "
               "pairs each; a=0.5 on the cube pair fails with sqrt(2) < 2 "
               "matched to 1e-12")


def test_criterion_09_jacobian_against_finite_differences():
    worst_fd = 0.0
    worst_kernel = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(6, 13))
        mesh = random_tangent_mesh(k, seed, jitter=0.05)
        jac = area_jacobian(mesh)
        scale = np.abs(jac).max()

        offsets = mesh.face_support_numbers()
        eps = 1e-6
        for j in range(k):
            hp, hm = offsets.copy(), offsets.copy()
            hp[j] += eps
            hm[j] -= eps
            col = (intersect(mesh.face_normals, hp).face_areas
                   - intersect(mesh.face_normals, hm).face_areas) \
                / (2 * eps)
            err = np.abs(col - jac[:, j])
            rel = err / np.maximum(np.abs(jac[:, j]), 1e-3 * scale)
            worst_fd = max(worst_fd, float(rel.max()))
        for v in np.eye(3):
            u = mesh.face_normals @ v
            resid = np.linalg.norm(jac @ u) / (np.linalg.norm(jac)
                                               * np.linalg.norm(u))
            worst_kernel = max(worst_kernel, float(resid))
    assert worst_fd <= 1e-5
    assert worst_kernel <= 1e-8
    _report(9, f"area Jacobian matches central differences (worst rel "
               f"{worst_fd:.1e} <= 1e-5) and kills all translation vectors "
               f"(worst {worst_kernel:.1e} <= 1e-8) on 20 random meshes")


def test_criterion_10_oracle_equivalence():
    worst_vol = 0.0
    worst_vertex = 0.0
    for i in range(20):
        k = 4 + i % 5
        h = random_herisson(k, 9000 + i)
        _, mesh, _ = continuation_solve(h)
        oracle = oracle_solve_small(h)
        vol_gap = abs(volume(oracle) - volume(mesh)) / volume(mesh)
        worst_vol = max(worst_vol, vol_gap)
        tol = 1e-5 * diameter(mesh)
        assert vertex_sets_match(centered(mesh), centered(oracle), tol)
        from scipy.spatial.distance import cdist
        d = cdist(centered(mesh).vertices, centered(oracle).vertices)
        worst_vertex = max(worst_vertex,
                           float(d.min(axis=1).max()) / diameter(mesh))
    assert worst_vol <= 1e-6
    _report(10, "Newton solver and direct-minimization oracle agree on 20 "
                f"random bodies with k in 4..8 (worst volume gap "
                f"{worst_vol:.1e}, worst vertex gap {worst_vertex:.1e} of "
                "the diameter)")


def test_criterion_11_spherical_identity():
    from blaschke3d.spherical import (SphericalPolygon,
                                      spherical_identity_residual)
    equator = SphericalPolygon(np.array([[1, 0, 0], [0, 1, 0],
                                         [-1, 0, 0], [0, -1, 0]], float))
    hemi = np.linalg.norm(spherical_identity_residual(equator, 6))
    assert hemi <= 1e-8
    octant = np.linalg.norm(
        spherical_identity_residual(SphericalPolygon(np.eye(3)), 6))
    assert octant <= 1e-6

    worst_ratio = 0.0
    for seed in (1, 2, 5):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(3)
        c /= np.linalg.norm(c)
        b1 = np.cross(c, [0.0, 0.0, 1.0])
        b1 /= np.linalg.norm(b1)
        b2 = np.cross(c, b1)
        rad = rng.uniform(0.6, 1.0)
        angs = np.sort(rng.uniform(0, 2 * np.pi, int(rng.integers(3, 7))))
        poly = SphericalPolygon(np.array(
            [np.cos(rad) * c + np.sin(rad) * (np.cos(a) * b1
                                              + np.sin(a) * b2)
             for a in angs]))
        resid = [np.linalg.norm(spherical_identity_residual(poly, r))
                 for r in (3, 4, 5, 6)]
        for a, b in zip(resid, resid[1:]):
            worst_ratio = max(worst_ratio, b / a)
    assert worst_ratio <= 0.3
    _report(11, f"spherical identity: hemisphere residual {hemi:.1e} <= "
                f"1e-8, octant {octant:.1e} <= 1e-6, convergence factor "
                f"{worst_ratio:.2f} <= 0.3 per refinement")


def test_criterion_12_every_pipeline_mesh_closes_up():
    # a few extra pipeline products beyond the ones registered above
    _register(minkowski_sum(cube_mesh(1.0), cube_mesh(1.0)), "msum cubes")
    _, mesh, _ = continuation_solve(random_herisson(15, 77))
    _register(mesh, "construct random 15-face body")
    assert len(_PIPELINE_MESHES) >= 6
    worst = 0.0
    for label, mesh in _PIPELINE_MESHES:
        resid = float(np.linalg.norm(vector_area_residual(mesh)))
        bound = 1e-9 * float(mesh.face_areas.sum())
        assert resid <= bound, label
        worst = max(worst, resid / float(mesh.face_areas.sum()))
    _report(12, f"vector area closes up on all {len(_PIPELINE_MESHES)} "
                f"pipeline meshes (worst residual {worst:.1e} of total "
                "area, bound 1e-9)")
