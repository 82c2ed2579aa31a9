import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from blaschke3d.bodies import (cube_herisson, elongated_herisson,
                               grunbaum_herisson, icosahedron_directions,
                               icosahedron_herisson, near_duplicate_herisson,
                               tetrahedron_mesh)
from blaschke3d.errors import (DegenerateAngle, DegenerateBody,
                               NewtonDivergence, OracleFailed,
                               StepSizeUnderflow, ToolkitError,
                               UnboundedRegion)
from blaschke3d.fileio import parse_herisson_file
from blaschke3d.geometry import (SupportPolyhedron, _adjacency, convex_hull,
                                 intersect_halfspaces, validate_mesh, volume)
from blaschke3d.herisson import (Herisson, blaschke_add, blaschke_scale,
                                 herisson_of_mesh, random_herisson)
from blaschke3d.solver import (ContinuationConfig, _newton_solve,
                               _oracle_solve, _solve_kernel_free,
                               area_jacobian, continuation_solve,
                               initial_polyhedron, oracle_solve_small)

from helpers import (centered, count_deepest_point, diameter, intersect,
                     mesh_of, random_tangent_mesh, vertex_sets_match)
from test_geometry import UP, corner_cases

AXES = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                 [0, -1, 0], [0, 0, 1], [0, 0, -1]], float)

DATA = Path(__file__).resolve().parent.parent / "data"


def fd_jacobian(directions, offsets, eps=1e-6):
    k = len(offsets)
    jac = np.empty((k, k))
    for j in range(k):
        hp, hm = offsets.copy(), offsets.copy()
        hp[j] += eps
        hm[j] -= eps
        jac[:, j] = (intersect(directions, hp).face_areas
                     - intersect(directions, hm).face_areas) \
            / (2 * eps)
    return jac


class TestInitialPolyhedron:
    def test_cube_directions(self):
        sp, areas0 = initial_polyhedron(AXES)
        assert np.allclose(sp.support_numbers, 1.0)
        assert np.allclose(areas0, 4.0, rtol=1e-12)

    def test_icosahedron_symmetry(self):
        _, areas0 = initial_polyhedron(icosahedron_directions())
        assert np.ptp(areas0) <= 1e-12 * areas0.max()

    def test_starting_combinatorics_differ_from_target(self):
        h = grunbaum_herisson()
        sp, _ = initial_polyhedron(h.directions)
        start = intersect_halfspaces(sp)
        _, solved, _ = continuation_solve(h)
        assert start.face_count == solved.face_count == 10
        assert _adjacency(start.edges) != _adjacency(solved.edges)


class TestAreaJacobian:
    def test_cube_closed_form(self):
        mesh = intersect_halfspaces(SupportPolyhedron(AXES, np.ones(6)))
        jac = area_jacobian(mesh)
        assert np.allclose(np.diag(jac), 0.0, atol=1e-12)
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                expect = 0.0 if np.allclose(AXES[i], -AXES[j]) else 2.0
                assert jac[i, j] == pytest.approx(expect, abs=1e-12)
        # uniform dilation moves each face area like d/de of 4(1+e)^2
        assert np.allclose(jac.sum(axis=1), 8.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(6, 14))
        mesh = random_tangent_mesh(k, seed, jitter=0.05)
        jac = area_jacobian(mesh)
        fd = fd_jacobian(mesh.face_normals, mesh.face_support_numbers())
        assert np.allclose(jac, fd, rtol=1e-5, atol=1e-7 * np.abs(jac).max())

    @pytest.mark.parametrize("seed", range(4))
    def test_kills_translation_kernel(self, seed):
        mesh = random_tangent_mesh(10, seed, jitter=0.05)
        jac = area_jacobian(mesh)
        jn = np.linalg.norm(jac)
        for v in np.eye(3):
            u = mesh.face_normals @ v
            assert np.linalg.norm(jac @ u) <= 1e-8 * jn * np.linalg.norm(u)

    def test_translated_solution_still_solves(self):
        mesh = random_tangent_mesh(9, 3, jitter=0.05)
        jac = area_jacobian(mesh)
        rhs = np.sin(np.arange(9))
        rhs -= jac @ np.linalg.lstsq(jac, jac @ np.zeros(9), rcond=None)[0]
        rhs = jac @ np.linalg.lstsq(jac, rhs, rcond=1e-10)[0]  # feasible rhs
        sol = np.linalg.lstsq(jac, rhs, rcond=1e-10)[0]
        shifted = sol + mesh.face_normals @ np.array([0.3, -0.1, 0.7])
        assert np.linalg.norm(jac @ shifted - rhs) <= \
            1e-8 * max(1.0, np.linalg.norm(rhs))

    def test_parallel_adjacent_normals_raise(self):
        tilt = 5e-10
        normals = np.array([[0.0, 0.0, 1.0],
                            [np.sin(tilt), 0.0, np.cos(tilt)]])
        body = mesh_of(np.zeros((1, 3)), [[], []], normals, np.zeros(2),
                       {(0, 1): 1.0})
        with pytest.raises(DegenerateAngle, match="faces 0,1 are parallel"):
            area_jacobian(body)


def closed_rhs(directions, seed):
    """A random right-hand side with zero vector sum, sum_j r_j n_j = 0."""
    r = np.random.default_rng(seed).standard_normal(len(directions))
    return r - directions @ np.linalg.solve(directions.T @ directions,
                                            directions.T @ r)


class TestSolveKernelFree:
    @pytest.mark.parametrize("k", [6, 12, 48])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_minimum_norm_least_squares(self, k, seed):
        mesh = random_tangent_mesh(k, seed, jitter=0.05)
        jac, d = area_jacobian(mesh), mesh.face_normals
        rhs = closed_rhs(d, seed)
        sol = _solve_kernel_free(jac, rhs, d)
        ref = np.linalg.lstsq(jac, rhs, rcond=1e-10)[0]
        assert np.linalg.norm(sol - ref) <= 1e-10 * np.linalg.norm(ref)
        # orthogonal to the translations
        assert np.abs(d.T @ sol).max() <= 1e-12 * np.abs(sol).max()

    @pytest.mark.parametrize("s", [1e-12, 1.0, 1e12])
    def test_scale_equivariant(self, s):
        mesh = random_tangent_mesh(12, 5, jitter=0.05)
        jac, d = area_jacobian(mesh), mesh.face_normals
        rhs = closed_rhs(d, 5)
        sol = _solve_kernel_free(jac, rhs, d)
        np.testing.assert_allclose(_solve_kernel_free(s * jac, rhs, d),
                                   sol / s, rtol=1e-12)

    def test_singular_system_gives_nan(self):
        # a Jacobian with zero rows (here all: a body without edges) leaves
        # the pinned matrix singular; the caller sees a non-finite update
        d = random_tangent_mesh(6, 0).face_normals
        sol = _solve_kernel_free(np.zeros((6, 6)), closed_rhs(d, 0), d)
        assert sol.shape == (6,) and not np.isfinite(sol).any()


    def test_singular_pinned_sum_gives_nan(self):
        # every row of -D D^T is nonzero, but the pinning term max|D D^T|
        # D D^T = D D^T cancels it exactly: LU finds the sum singular
        jac = -AXES @ AXES.T
        assert jac.any(axis=1).all()
        assert not (jac + np.abs(jac).max() * (AXES @ AXES.T)).any()
        sol = _solve_kernel_free(jac, closed_rhs(AXES, 0), AXES)
        assert sol.shape == (6,) and np.isnan(sol).all()

    @pytest.mark.parametrize("case", [0, 1, 3, 4])
    def test_absent_face_gives_nan(self, case):
        # a plane without a face has a zero Jacobian row, a fourth kernel
        # direction the pinning term does not reach
        dirs, offsets = corner_cases()[case]
        jac = area_jacobian(intersect(dirs, offsets))
        assert not jac[3].any()
        sol = _solve_kernel_free(jac, closed_rhs(dirs, case), dirs)
        assert not np.isfinite(sol).any()

    def test_corner_slice_stays_finite(self):
        dirs, offsets = corner_cases()[2]
        jac = area_jacobian(intersect(dirs, offsets))
        sol = _solve_kernel_free(jac, closed_rhs(dirs, 2), dirs)
        assert np.isfinite(sol).all()


class TestContinuationSolve:
    def test_cube_is_a_fixed_point(self):
        sp, mesh, trace = continuation_solve(cube_herisson(4.0))
        assert trace.steps_taken == 0
        assert np.allclose(mesh.face_areas, 4.0, rtol=1e-12)
        assert volume(mesh) == pytest.approx(8.0, rel=1e-9)

    def test_own_tangent_body_takes_one_intersection(self):
        _, _, trace = continuation_solve(cube_herisson(4.0))
        assert (trace.steps_taken, trace.intersections,
                trace.jacobians) == (0, 1, 0)

    def test_counters_cover_every_step(self):
        _, _, trace = continuation_solve(grunbaum_herisson())
        # after the tangent body, each accepted step costs one Jacobian and
        # at least one intersection
        assert trace.jacobians >= trace.steps_taken > 0
        assert trace.intersections >= trace.steps_taken + 1

    @pytest.mark.parametrize("herisson, gap", [
        (random_herisson(48, 0), 1e-12), (random_herisson(48, 1), 1e-12),
        (random_herisson(48, 2), 1e-12), (grunbaum_herisson(), 1e-12)],
        ids=["k48-s0", "k48-s1", "k48-s2", "grunbaum"])
    def test_final_residual_matches_the_returned_mesh(self, herisson, gap):
        # the solve reads its areas as 1/2 J (h - D c) off edge lists; the
        # residual it reports must still be the returned mesh's own
        from blaschke3d.geometry import _polar_hull
        sp, mesh, trace = continuation_solve(herisson)
        resid = np.abs(herisson.areas - mesh.face_areas).max() \
            / herisson.areas.max()
        assert trace.final_residual == resid
        cut = _polar_hull(sp.directions, sp.support_numbers)
        edges, slack = cut.edges, cut.slack
        areas = 0.5 * area_jacobian(cut) @ slack
        assert np.abs(areas - mesh.face_areas).max() \
            <= gap * mesh.face_areas.max()

    def test_icosahedron_reconstruction(self):
        from helpers import divergence_volume
        h = icosahedron_herisson(5.0)
        sp, mesh, trace = continuation_solve(h)
        assert mesh.face_count == 20
        assert np.abs(mesh.face_areas - 5.0).max() <= 1e-6 * 5.0
        assert trace.final_residual <= 1e-9
        assert volume(mesh) == pytest.approx(divergence_volume(mesh),
                                             rel=1e-9)
        validate_mesh(mesh)

    def test_large_k_reconstruction(self):
        cfg = ContinuationConfig()
        _, mesh, trace = continuation_solve(random_herisson(192, 1), cfg)
        assert mesh.face_count == 192
        assert trace.final_residual <= cfg.newton_tol
        validate_mesh(mesh)

    def test_grunbaum_combinatorial_change(self):
        h = grunbaum_herisson()
        sp, mesh, trace = continuation_solve(h)
        assert mesh.face_count == 10
        assert np.abs(mesh.face_areas - h.areas).max() <= 1e-6 * h.areas.max()
        assert trace.combinatorial_changes >= 1
        # the tilted triple forms a cap: its faces are pairwise adjacent,
        # unlike in the tangent starting body
        adj = _adjacency(mesh.edges)
        assert {(0, 1), (0, 2), (1, 2)} <= adj
        validate_mesh(mesh)

    def test_four_face_data_solves_to_tetrahedron(self):
        _, mesh, _ = continuation_solve(random_herisson(4, 19))
        assert mesh.face_count == 4
        assert len(mesh.vertices) == 4
        validate_mesh(mesh)

    def test_cube_areas_times_four_doubles_the_edge(self):
        _, small, _ = continuation_solve(cube_herisson(1.0))
        _, big, _ = continuation_solve(blaschke_scale(cube_herisson(1.0),
                                                      4.0))
        assert volume(big) == pytest.approx(8.0 * volume(small), rel=1e-9)
        assert big.scale == pytest.approx(2.0 * small.scale, rel=1e-9)

    def test_output_centered(self):
        _, mesh, _ = continuation_solve(random_herisson(8, 21))
        assert np.linalg.norm(mesh.centroid) <= 1e-9 * mesh.scale

    def test_round_trip_face_data(self):
        h = random_herisson(10, 31)
        _, mesh, _ = continuation_solve(h)
        back = herisson_of_mesh(mesh)
        assert back.k == h.k
        for d, f in zip(h.directions, h.areas):
            gap = np.linalg.norm(back.directions - d, axis=1)
            hit = int(np.argmin(gap))
            assert gap[hit] <= 1e-9
            assert back.areas[hit] == pytest.approx(f, rel=1e-6)

    def test_scaled_areas_scale_volume(self):
        h = random_herisson(9, 41)
        _, mesh1, _ = continuation_solve(h)
        _, mesh2, _ = continuation_solve(blaschke_scale(h, 2.0))
        assert volume(mesh2) == pytest.approx(2 ** 1.5 * volume(mesh1),
                                              rel=1e-6)

    def test_path_independence_of_result(self):
        # the solve lands on the translate class of the oracle's minimiser
        # of Minkowski's functional, which takes no Newton step at all
        h = random_herisson(11, 51)
        _, mesh, _ = continuation_solve(h)
        oracle = _oracle_solve(h)
        assert abs(volume(oracle) - volume(mesh)) <= 1e-6 * volume(mesh)
        assert vertex_sets_match(centered(mesh), centered(oracle),
                                 1e-5 * diameter(mesh))

    def test_monotone_trace_residual(self):
        # every accepted step of length alpha lowers |F - A|_2 by 1 - alpha/2
        cfg = ContinuationConfig(newton_tol=1e-9)
        _, _, trace = continuation_solve(random_herisson(9, 61), cfg)
        assert trace.final_residual <= cfg.newton_tol
        assert len(trace.residual_history) == trace.steps_taken
        assert len(trace.alpha_history) == trace.steps_taken
        history = trace.residual_history
        for before, after, alpha in zip(history, history[1:],
                                        trace.alpha_history[1:]):
            assert after <= (1.0 - alpha / 2.0) * before

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # NaN would never trip the final residual check, and inf would take
        # the scaled tangent body, 0 steps in, as converged
        with pytest.raises(ValueError,
                           match="newton_tol must be positive and finite"):
            ContinuationConfig(newton_tol=tol)

    def test_step_size_underflow(self):
        # a tolerance below rounding level cannot be reached: the last step
        # is halved below 2^-30 without lowering the residual
        cfg = ContinuationConfig(newton_tol=1e-30)
        with pytest.raises(StepSizeUnderflow) as err:
            continuation_solve(random_herisson(8, 71), cfg)
        assert err.value.trace is not None
        assert "relative residual" in str(err.value)

    def test_rejections_count_every_rejected_attempt(self, monkeypatch):
        # an update pointing away from the target fails at every length, so
        # each of the lengths 1 down to 2^-30 was rejected once, and the
        # error names the cause of the last
        import blaschke3d.solver as solver
        real = solver._solve_kernel_free
        monkeypatch.setattr(solver, "_solve_kernel_free",
                            lambda jac, rhs, d: -real(jac, rhs, d))
        with pytest.raises(StepSizeUnderflow) as err:
            continuation_solve(random_herisson(8, 71))
        trace = err.value.trace
        assert set(trace.rejections) == {"diverged", "stalled", "collapse",
                                         "degenerate"}
        assert sum(trace.rejections.values()) == len(solver._LENGTHS)
        assert trace.steps_taken == 0
        assert trace.intersections <= 1 + len(solver._LENGTHS)
        assert any(f"the last rejected as {cause}:" in str(err.value)
                   for cause, n in trace.rejections.items() if n)

    def test_step_budget(self, monkeypatch):
        # one accepted step leaves Gruenbaum's residual far above tolerance
        import blaschke3d.solver as solver
        monkeypatch.setattr(solver, "_MAX_STEPS", 1)
        h = parse_herisson_file((DATA / "grunbaum.her").read_text())
        with pytest.raises(StepSizeUnderflow) as err:
            continuation_solve(h)
        trace = err.value.trace
        assert str(err.value).startswith(
            "no convergence within the step budget: relative residual ")
        assert str(err.value).endswith(" after 1 steps")
        assert trace.steps_taken == len(trace.alpha_history) == 1
        assert trace.final_residual > ContinuationConfig().newton_tol

    def test_every_refused_cut_is_degenerate(self, monkeypatch):
        # past the tangent body every cut raises UnboundedRegion, so each of
        # the 31 step lengths of the first step is rejected as degenerate
        import blaschke3d.solver as solver
        calls, real = [], solver._polar_hull

        def refused(*args):
            calls.append(1)
            if len(calls) > 1:
                raise UnboundedRegion("forced refusal")
            return real(*args)
        monkeypatch.setattr(solver, "_polar_hull", refused)
        h = parse_herisson_file((DATA / "grunbaum.her").read_text())
        with pytest.raises(StepSizeUnderflow) as err:
            continuation_solve(h)
        trace = err.value.trace
        assert str(err.value).startswith(
            "step length below 2^-30, the last rejected as degenerate: ")
        assert trace.rejections == {"diverged": 0, "stalled": 0,
                                    "collapse": 0, "degenerate": 31}
        assert trace.steps_taken == 0 and trace.jacobians == 1
        assert trace.intersections == len(calls)


# the shipped inputs and a random 48-face herisson, one solve each
SOLVED = pytest.mark.parametrize("h", [
    *(parse_herisson_file(p.read_text()) for p in sorted(DATA.glob("*.her"))),
    random_herisson(48, 0)],
    ids=[*(p.name for p in sorted(DATA.glob("*.her"))), "k48-s0"])


class TestOneSolveState:
    """One state runs through a solve: every body is one `_polar_hull`, from
    the tangent body to the returned mesh, which is read off the last
    accepted hull instead of a second intersection."""

    @SOLVED
    def test_every_body_is_one_counted_polar_hull(self, h, monkeypatch):
        import blaschke3d.geometry as geometry
        import blaschke3d.solver as solver

        def refuse(*args, **kwargs):
            raise AssertionError("the solve intersected outside its state")
        for module in (geometry, solver):
            monkeypatch.setattr(module, "intersect_halfspaces", refuse,
                                raising=False)
        calls, real = [], solver._polar_hull

        def counted(*args):
            calls.append(1)
            return real(*args)
        monkeypatch.setattr(solver, "_polar_hull", counted)
        _, mesh, trace = continuation_solve(h)
        assert len(calls) == trace.intersections
        assert trace.final_residual <= 1e-12
        validate_mesh(mesh)

    @SOLVED
    def test_one_qhull_per_intersection(self, h, monkeypatch, request):
        # the tangent body's cut also decides that the directions bound a
        # body, so the solve hulls nothing else.  A step that keeps the
        # last body's combinatorial type is read off its triangulation: the
        # shipped inputs change type at every step or start at a body that
        # is not simple, a random 48-face herisson keeps it on some steps
        import blaschke3d.geometry as geometry
        calls, real = [], geometry._Qhull

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        monkeypatch.setattr(geometry, "_Qhull", counted)
        _, _, trace = continuation_solve(h)
        assert len(calls) == trace.hulls <= trace.intersections
        if request.node.callspec.id == "k48-s0":
            assert trace.hulls < trace.intersections
        else:
            assert trace.hulls == trace.intersections

    @pytest.mark.parametrize("name, least, most", [
        ("cube.her", 0, 0), ("dodecahedron.her", 0, 0),
        ("icosahedron.her", 0, 0), ("grunbaum.her", 1, None)])
    def test_combinatorial_changes_follow_the_mesh(self, name, least, most):
        # the tangent bodies of the regular herissons are their solutions up
        # to scale; the icosahedron's five-face vertices carry edges of about
        # 5e-11 times the longest, which the mesh merges away and which are
        # no change of adjacency
        h = parse_herisson_file((DATA / name).read_text())
        _, _, trace = continuation_solve(h)
        assert trace.combinatorial_changes >= least
        assert most is None or trace.combinatorial_changes <= most

    def test_non_finite_update_raises_newton_divergence(self, monkeypatch):
        import blaschke3d.solver as solver
        monkeypatch.setattr(solver, "_solve_kernel_free",
                            lambda jac, rhs, d: np.full(len(rhs), np.nan))
        with pytest.raises(NewtonDivergence) as err:
            continuation_solve(random_herisson(8, 71))
        trace = err.value.trace
        assert trace is not None and trace.steps_taken == 0
        assert trace.rejections["diverged"] >= 1
        assert str(err.value).startswith("Newton update not finite: "
                                         "relative residual")


class TestDirectionsCheckedOnce:
    """A solve checks its directions for distinctness once, in the support
    polyhedron it returns, which reuses them; one built by hand still runs
    the check.  The tangent body's cut decides that they bound a body."""

    CHECKS = ("check_distinct_directions",)

    def count_checks(self, monkeypatch):
        import blaschke3d.geometry as geometry
        calls = dict.fromkeys(self.CHECKS, 0)
        for name in self.CHECKS:
            def counted(*args, _name=name, _real=getattr(geometry, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(geometry, name, counted)
        return calls

    @pytest.mark.parametrize("h", [grunbaum_herisson(),
                                   random_herisson(48, 0)],
                             ids=["grunbaum", "k48-s0"])
    def test_one_check_of_each_per_solve(self, h, monkeypatch):
        calls = self.count_checks(monkeypatch)
        sp, mesh, _ = continuation_solve(h)
        assert calls == dict.fromkeys(self.CHECKS, 1)
        assert sp.directions is h.directions
        assert np.allclose(sp.support_numbers, mesh.face_support_numbers(),
                           rtol=0.0, atol=1e-12 * mesh.scale)

    @pytest.mark.parametrize("row", [0, 5])
    def test_a_duplicated_row_is_a_named_error(self, row):
        # a `Herisson` built by hand is not validated: its duplicated
        # direction ends the solve in a `ToolkitError` before the returned
        # support polyhedron's check (the tangent body loses a face, or two
        # neighbours are parallel)
        h = random_herisson(8, 1)
        d = np.vstack([h.directions, h.directions[row:row + 1]])
        a = np.concatenate([h.areas, h.areas[row:row + 1]])
        with pytest.raises(ToolkitError) as err:
            continuation_solve(Herisson(d, a))
        assert isinstance(err.value, (DegenerateBody, DegenerateAngle))

    def test_a_support_polyhedron_built_by_hand_runs_the_check(
            self, monkeypatch):
        calls = self.count_checks(monkeypatch)
        SupportPolyhedron(AXES, np.ones(6))
        assert calls == dict.fromkeys(self.CHECKS, 1)
        with pytest.raises(ToolkitError):
            SupportPolyhedron(AXES[[0, 1, 2, 3, 4, 4]], np.ones(6))


class TestUnboundedDirections:
    """Directions that bound no body raise UnboundedRegion from the first
    cut of every solve: its tangent body's."""

    @pytest.mark.parametrize("dirs", [UP, AXES[:5], AXES[[0, 1, 2, 3]]],
                             ids=["coplanar-polar-points", "margin", "plane"])
    @pytest.mark.parametrize("solve", [
        continuation_solve, lambda h: initial_polyhedron(h.directions),
        _oracle_solve], ids=["continuation", "initial", "oracle"])
    def test_raise_unbounded_region(self, dirs, solve):
        dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]
        with pytest.raises(UnboundedRegion):
            solve(Herisson(dirs, np.ones(len(dirs))))


class TestExactAreas:
    """The solve and the returned mesh take their face areas from one exact
    formula, 1/2 J (h - D c) on the polar hull's edge list, so every solve
    ends at rounding level, whatever the unit of area."""

    @pytest.mark.parametrize("path", sorted(DATA.glob("*.her")),
                             ids=lambda path: path.name)
    def test_shipped_inputs_solve_to_rounding_level(self, path):
        h = parse_herisson_file(path.read_text())
        _, mesh, trace = continuation_solve(h)
        assert trace.final_residual <= 1e-12
        assert np.abs(h.areas - mesh.face_areas).max() <= 1e-12 * h.areas.max()

    @pytest.mark.parametrize("s", [1e-12, 1e-6, 1e6, 1e12])
    def test_grunbaum_at_any_unit_of_area(self, s):
        h = grunbaum_herisson()
        _, base, _ = continuation_solve(h)
        _, mesh, trace = continuation_solve(blaschke_scale(h, s))
        assert trace.final_residual <= 1e-12
        assert abs(volume(mesh) / (s ** 1.5 * volume(base)) - 1) <= 1e-12


class TestScaleFreeMarch:
    """The solve starts from the tangent body scaled to the target's total
    area, so the unit of area changes neither the result nor the work."""

    def test_grunbaum_takes_the_same_march_at_any_unit_of_area(self):
        work = set()
        for s in (1e-12, 1e-6, 1.0, 1e6, 1e12):
            _, _, trace = continuation_solve(
                blaschke_scale(grunbaum_herisson(), s))
            work.add((trace.steps_taken, trace.combinatorial_changes,
                      trace.intersections))
        assert len(work) == 1
        assert work.pop()[1] >= 1
        # at a power-of-four unit every step scales exactly: the vertices
        # by 2^j, the areas by 4^j, and the trace is the same
        base = continuation_solve(grunbaum_herisson())
        for j in (-250, -100, 1, 100, 250):
            sp, mesh, trace = continuation_solve(
                blaschke_scale(grunbaum_herisson(), 4.0 ** j))
            np.testing.assert_array_equal(mesh.vertices,
                                          np.ldexp(base[1].vertices, j))
            np.testing.assert_array_equal(mesh.face_areas,
                                          np.ldexp(base[1].face_areas, 2 * j))
            np.testing.assert_array_equal(sp.support_numbers,
                                          np.ldexp(base[0].support_numbers, j))
            assert trace == base[2]

    def test_total_area_near_the_float_limit(self):
        # these areas sum to 2.7e308, past the float range; the solve
        # divides them by a power of four once, at entry, and sums them there
        h = blaschke_scale(random_herisson(24, 1), 1e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cut, trace = _newton_solve(h)
        assert trace.final_residual <= ContinuationConfig().newton_tol
        assert np.abs(cut.areas - h.areas).max() <= 1e-12 * h.areas.max()

    def test_mesh_near_the_float_limit(self):
        # corners near 1e153: the mesh's reference length and merge take no
        # plain 2-norm, and its closure bound sums no total past the range
        h = blaschke_scale(random_herisson(24, 1), 1e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, mesh, _ = continuation_solve(h)
            assert validate_mesh(mesh) is mesh
        tol = ContinuationConfig().newton_tol
        assert np.abs(mesh.face_areas - h.areas).max() <= tol * h.areas.max()

    @pytest.mark.parametrize("s", [1e200, 1e280])
    def test_residual_norms_at_a_huge_unit_of_area(self, s):
        # the 2-norms of area vectors square no area: they are taken in
        # units of a power of two near the largest target area
        h = blaschke_scale(random_herisson(12, 0), s)
        _, _, trace = continuation_solve(h)
        assert trace.steps_taken > 0 and trace.final_residual <= 1e-12
        assert np.all(np.isfinite(trace.residual_history))

    @pytest.mark.parametrize("s", [1e-200, 1e290, 1e300])
    def test_grunbaum_at_an_extreme_unit_of_area(self, s):
        # the polar points, of magnitude 1/slack, reach Qhull scaled by a
        # power of two to unit magnitude
        _, mesh, trace = continuation_solve(
            blaschke_scale(grunbaum_herisson(), s))
        assert trace.final_residual <= 1e-12
        assert mesh.face_count == grunbaum_herisson().k

    def test_polar_points_near_the_float_limit(self):
        # areas of 1e-310 give slack near 1e-155 and polar points near
        # 1e155, whose squares overflowed inside Qhull and killed the
        # process with SIGSEGV; run in a child so a crash fails this test
        # only
        code = """if True:
            from blaschke3d.errors import ToolkitError
            from blaschke3d.herisson import blaschke_scale, random_herisson
            from blaschke3d.solver import continuation_solve
            h = blaschke_scale(random_herisson(24, 1), 1e-310)
            try:
                print("solved", continuation_solve(h)[2].final_residual)
            except ToolkitError as exc:
                print("refused", type(exc).__name__, exc)
        """
        env = {**os.environ, "PYTHONPATH": str(DATA.parent / "src")}
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        verdict, *rest = done.stdout.split()
        assert verdict == "refused" or (
            verdict == "solved"
            and float(rest[0]) <= ContinuationConfig().newton_tol), rest

    @pytest.mark.parametrize("s", [1e-6, 16.0, 1e6])
    def test_scaled_cube_takes_one_intersection(self, s):
        _, mesh, trace = continuation_solve(
            blaschke_scale(cube_herisson(1.0), s))
        assert (trace.steps_taken, trace.intersections,
                trace.jacobians) == (0, 1, 0)
        assert np.abs(mesh.face_areas - s).max() <= 1e-14 * s


class TestPolish:
    """Within the Newton tolerance the solve takes full steps until the
    residual is at rounding level, and not beyond."""

    @pytest.mark.parametrize("name, most", [
        ("cube.her", 0), ("icosahedron.her", 3)])
    def test_stops_at_rounding_level(self, name, most):
        # both targets are their scaled tangent bodies within the Newton
        # tolerance, so every step the solve takes is a full one
        h = parse_herisson_file((DATA / name).read_text())
        _, mesh, trace = continuation_solve(h)
        assert trace.steps_taken <= most
        assert set(trace.alpha_history) <= {1.0}
        assert trace.final_residual <= 1e-14
        assert np.abs(h.areas - mesh.face_areas).max() <= 1e-14 * h.areas.max()


@pytest.mark.parametrize("h", [grunbaum_herisson(), random_herisson(48, 0)],
                         ids=["grunbaum", "k48-s0"])
class TestSolveInvariance:
    """The solved body does not depend on the order of the input or on a
    rotation of it."""

    def test_permuted_input_permutes_the_faces(self, h):
        perm = np.random.default_rng(3).permutation(h.k)
        _, base, _ = continuation_solve(h)
        _, mesh, _ = continuation_solve(Herisson(h.directions[perm],
                                                 h.areas[perm]))
        assert np.abs(mesh.face_areas - base.face_areas[perm]).max() \
            <= 1e-12 * base.face_areas.max()
        assert vertex_sets_match(mesh, base, 1e-9 * base.scale)
        assert volume(mesh) == pytest.approx(volume(base), rel=1e-12)

    def test_rotated_input_rotates_the_body(self, h):
        rot = Rotation.from_rotvec([0.3, -1.1, 0.7]).as_matrix()
        dirs = h.directions @ rot.T
        _, base, _ = continuation_solve(h)
        _, mesh, _ = continuation_solve(Herisson(
            dirs / np.linalg.norm(dirs, axis=1)[:, None], h.areas))
        turned = replace(base, vertices=base.vertices @ rot.T)
        assert vertex_sets_match(mesh, turned, 1e-9 * base.scale)
        assert volume(mesh) == pytest.approx(volume(base), rel=1e-12)


class TestCentreCarriedOn:
    """The solve carries each body's slack on as its support numbers, so the
    origin, its last interior point, centres the next intersection and the
    Chebyshev-centre linear program runs at most once per solve."""

    def test_elongated_body(self, monkeypatch):
        # the hull of 60 Gaussian points scaled by (100, 1, 0.1): with the
        # least-squares point as every centre, 205 of its 268 intersections
        # needed the linear program
        pts = np.random.default_rng(7).standard_normal((60, 3))
        h = herisson_of_mesh(convex_hull(pts * (100.0, 1.0, 0.1)))
        calls = count_deepest_point(monkeypatch)
        _, mesh, trace = continuation_solve(h)
        assert len(calls) <= 1
        assert trace.final_residual <= 1e-9
        assert np.abs(mesh.face_areas - h.areas).max() <= 1e-9 * h.areas.max()

    def test_fuzz_pair(self, monkeypatch):
        # trial 32 of `fuzz --seed 0`: the second body needed the linear
        # program in 8 of its 13 intersections
        hp, hq = random_herisson(7, 545), random_herisson(8, 546)
        calls = count_deepest_point(monkeypatch)
        for h in (hp, hq, blaschke_add(hp, hq)):
            calls.clear()
            _, _, trace = continuation_solve(h)
            assert len(calls) <= 1
            assert trace.final_residual <= 1e-9


class TestHardInputs:
    """Needle-like hulls and a near-duplicate normal pair: each solves to
    the Newton tolerance or raises a named error within a budget of 150
    intersections; none stalls in silence."""

    @pytest.mark.parametrize("h, must_solve", [
        (elongated_herisson(100, 7), True),
        (elongated_herisson(1000, 7), True),
        (elongated_herisson(1e4, 7), False),
        (elongated_herisson(1e5, 7), False),
        (near_duplicate_herisson(1e-7), True),
        (near_duplicate_herisson(1e-8), True),
        (near_duplicate_herisson(1.5e-9), False)],
        ids=["r1e2", "r1e3", "r1e4", "r1e5", "eps1e-7", "eps1e-8",
             "eps1.5e-9"])
    def test_solves_or_names_the_failure(self, h, must_solve):
        cfg = ContinuationConfig()
        try:
            _, mesh, trace = continuation_solve(h, cfg)
        except ToolkitError as err:
            assert not must_solve, str(err)
            assert err.trace.intersections <= 150
            assert "relative residual" in str(err)
        else:
            assert trace.intersections <= 150
            assert np.abs(mesh.face_areas - h.areas).max() \
                <= cfg.newton_tol * h.areas.max()
            validate_mesh(mesh)

    def test_generators(self):
        pts = np.random.default_rng(7).standard_normal((60, 3))
        h = herisson_of_mesh(convex_hull(pts * (100.0, 1.0, 0.1)))
        g = elongated_herisson(100, 7)
        assert np.array_equal(g.directions, h.directions)
        assert np.array_equal(g.areas, h.areas)
        d = near_duplicate_herisson(1e-8)
        assert d.k == 21
        gap = np.linalg.norm(d.directions[0] - d.directions[20])
        assert gap == pytest.approx(1e-8, rel=1e-6)
        assert d.areas[[0, 20]] == pytest.approx([4.95, 0.05], rel=1e-9)
        assert np.abs(d.closure_residual()).max() <= 1e-12 * d.areas.sum()


class TestOracle:
    def test_cube(self):
        mesh = oracle_solve_small(cube_herisson(4.0))
        assert volume(mesh) == pytest.approx(8.0, rel=1e-8)

    def test_areas_near_the_float_limit(self):
        # these areas sum past the float range; the oracle weighs them
        # relative to the largest
        h = blaschke_scale(random_herisson(24, 1), 1e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mesh = _oracle_solve(h)
        assert np.abs(mesh.face_areas - h.areas).max() <= 1e-5 * h.areas.max()

    def test_rejects_large_instances(self):
        with pytest.raises(ValueError):
            oracle_solve_small(random_herisson(9, 1))

    def test_matches_continuation_on_random_input(self):
        h = random_herisson(5, 3)
        _, mesh, _ = continuation_solve(h)
        oracle = oracle_solve_small(h)
        assert volume(oracle) == pytest.approx(volume(mesh), rel=1e-6)

    @pytest.mark.parametrize("k", [48, 192])
    def test_uncapped_core_matches_the_march(self, k):
        # criterion 10's tolerances, far beyond the public k <= 8 cap
        h = random_herisson(k, 1)
        _, mesh, _ = continuation_solve(h)
        oracle = _oracle_solve(h)
        assert abs(volume(oracle) - volume(mesh)) <= 1e-6 * volume(mesh)
        assert vertex_sets_match(centered(mesh), centered(oracle),
                                 1e-5 * diameter(mesh))

    def test_independent_of_the_solver_under_test(self, monkeypatch):
        import blaschke3d.solver as solver
        h = random_herisson(8, 3)
        _, mesh, _ = continuation_solve(h)

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle used the solver under test")
        for name in ("area_jacobian", "_solve_kernel_free",
                     "continuation_solve"):
            monkeypatch.setattr(solver, name, refuse)
        oracle = oracle_solve_small(h)
        assert volume(oracle) == pytest.approx(volume(mesh), rel=1e-6)

    def test_recovers_from_empty_bodies(self, monkeypatch):
        # the 3rd and 4th evaluations meet an empty body, which ends
        # L-BFGS-B's line search; the oracle runs on from its last point
        import blaschke3d.solver as solver
        h = random_herisson(8, 3)
        _, mesh, _ = continuation_solve(h)
        calls, real = [], solver._polar_hull

        def forced(*args):
            calls.append(1)
            if len(calls) in (3, 4):
                raise DegenerateBody("forced empty body")
            return real(*args)
        monkeypatch.setattr(solver, "_polar_hull", forced)
        oracle = oracle_solve_small(h)
        assert len(calls) > 4
        assert abs(volume(oracle) - volume(mesh)) <= 1e-6 * volume(mesh)
        assert vertex_sets_match(centered(mesh), centered(oracle),
                                 1e-5 * diameter(mesh))

    def test_one_hull_and_one_mesh_after_the_minimisation(self,
                                                          monkeypatch):
        import scipy.optimize

        import blaschke3d.solver as solver
        events = []
        for name in ("_polar_hull", "_hull_mesh"):
            def counted(*args, _real=getattr(solver, name), _name=name):
                events.append(_name)
                return _real(*args)
            monkeypatch.setattr(solver, name, counted)
        real_minimize = scipy.optimize.minimize

        def marked(*args, **kwargs):
            res = real_minimize(*args, **kwargs)
            events.append("minimize")
            return res
        monkeypatch.setattr(scipy.optimize, "minimize", marked)
        oracle_solve_small(random_herisson(8, 3))
        last = len(events) - events[::-1].index("minimize")
        assert events[last:] == ["_polar_hull", "_hull_mesh"]

    def test_missed_areas_raise(self, monkeypatch):
        # a minimiser stuck at its start x = 1 leaves the tangent body,
        # whose areas are not the herisson's
        import scipy.optimize
        monkeypatch.setattr(scipy.optimize, "minimize",
                            lambda fun, x0, **kwargs:
                            SimpleNamespace(x=np.ones(len(x0))))
        with pytest.raises(OracleFailed, match="missed the areas"):
            oracle_solve_small(random_herisson(8, 3))

    def test_tetrahedron_round_trip(self):
        h = herisson_of_mesh(tetrahedron_mesh(1.3))
        mesh = oracle_solve_small(h)
        assert mesh.face_count == 4
        back = herisson_of_mesh(mesh)
        for d, f in zip(h.directions, h.areas):
            gap = np.linalg.norm(back.directions - d, axis=1)
            hit = int(np.argmin(gap))
            assert gap[hit] <= 1e-9
            assert back.areas[hit] == pytest.approx(f, rel=1e-7)
