import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blaschke3d.bodies import (box_herisson, box_mesh, cube_herisson,
                               cube_mesh, dodecahedron_herisson,
                               icosahedron_herisson, rotated_tetrahedron_pair)
from blaschke3d import inequalities
from blaschke3d.errors import PremiseViolated
from blaschke3d.geometry import volume
from blaschke3d.herisson import (Herisson, blaschke_add, blaschke_scale,
                                 random_herisson)
from blaschke3d.inequalities import (FuzzConfig, InequalityReport,
                                     brunn_minkowski_check, exponent_check,
                                     fuzz_campaign, homothety_ratio,
                                     kneser_suss_check, lemma_inequality,
                                     monotonicity_check, sum_comparison_check)
from blaschke3d.solver import ContinuationConfig, continuation_solve

FAST = ContinuationConfig(dt_initial=0.5)


def shuffled(h, seed):
    """The same face data with the rows in a random order."""
    perm = np.random.default_rng(seed).permutation(h.k)
    return Herisson(h.directions[perm], h.areas[perm])


class TestReportRules:
    def test_clear_hold(self):
        rep = InequalityReport("x", lhs=2.0, rhs=1.0)
        assert rep.verdict == "holds" and rep.ok
        assert rep.residual == 1.0

    def test_clear_fail(self):
        rep = InequalityReport("x", lhs=1.0, rhs=2.0)
        assert rep.verdict == "fails" and not rep.ok

    def test_equality_band(self):
        rep = InequalityReport("x", lhs=1.0, rhs=1.0 + 1e-12)
        assert rep.verdict == "equality" and rep.ok

    @given(st.floats(0.1, 1e6), st.floats(0.1, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_verdict_trichotomy(self, lhs, rhs):
        rep = InequalityReport("x", lhs=lhs, rhs=rhs)
        band = rep.equality_tol * max(abs(lhs), abs(rhs))
        if abs(lhs - rhs) <= band:
            assert rep.verdict == "equality"
        elif lhs > rhs:
            assert rep.verdict == "holds"
        else:
            assert rep.verdict == "fails"


class TestBrunnMinkowski:
    def test_homothetic_cubes_saturate(self):
        rep = brunn_minkowski_check(cube_mesh(1.0), cube_mesh(1.0))
        assert rep.verdict == "equality"
        assert rep.lhs == pytest.approx(2.0, rel=1e-12)

    def test_rotated_tetrahedra_strict(self):
        t1, t2 = rotated_tetrahedron_pair(1.0)
        rep = brunn_minkowski_check(t1, t2)
        assert rep.verdict == "holds"

    def test_random_pairs_hold(self):
        summary = fuzz_campaign(FuzzConfig(trials=15, seed=5, checks=("bm",)))
        assert summary["checks"]["bm"]["fails"] == 0


class TestKneserSuss:
    def test_homothetic_cubes_saturate(self):
        rep = kneser_suss_check(cube_mesh(1.0), cube_mesh(2.0))
        assert rep.verdict == "equality"
        assert rep.diagnosis["homothetic"]
        assert rep.lhs == pytest.approx(5.0, rel=1e-12)
        assert rep.rhs == pytest.approx(5.0, rel=1e-12)

    def test_platonic_pair_strict(self):
        _, dod, _ = continuation_solve(dodecahedron_herisson())
        _, ico, _ = continuation_solve(icosahedron_herisson())
        rep = kneser_suss_check(dod, ico)
        assert rep.verdict == "holds"
        assert not rep.diagnosis["homothetic"]

    def test_homothety_detector(self):
        h = random_herisson(8, 3)
        assert homothety_ratio(h, blaschke_scale(h, 2.5)) == \
            pytest.approx(2.5, rel=1e-12)
        assert homothety_ratio(h, random_herisson(8, 4)) is None

    def test_homothety_detector_ignores_row_order(self):
        h = random_herisson(9, 5)
        assert homothety_ratio(h, shuffled(blaschke_scale(h, 0.4), 1)) == \
            pytest.approx(0.4, rel=1e-12)
        assert homothety_ratio(shuffled(h, 2), h) == pytest.approx(1.0)

    def test_her_operands_use_their_own_face_data(self):
        h = random_herisson(8, 3)
        rep = kneser_suss_check(h, blaschke_scale(h, 4.0), FAST)
        assert rep.verdict == "equality"
        assert rep.diagnosis["area_ratio"] == pytest.approx(4.0, rel=1e-15)

    def test_equality_iff_homothety_on_random_pairs(self):
        summary = fuzz_campaign(FuzzConfig(trials=15, seed=6, checks=("ks",)))
        assert summary["checks"]["ks"]["fails"] == 0
        assert summary["ks_equality_mismatches"] == 0


class TestMonotonicity:
    def test_equal_data_gives_equality(self):
        h = random_herisson(7, 9)
        rep = monotonicity_check(h, h, FAST)
        assert rep.verdict == "equality"

    def test_long_box_versus_cube(self):
        rep = monotonicity_check(box_herisson((1, 1, 50)),
                                 cube_herisson(100.0), FAST)
        assert rep.verdict == "holds"
        assert rep.lhs == pytest.approx(1000.0, rel=1e-9)
        assert rep.rhs == pytest.approx(50.0, rel=1e-9)
        # volumes are ordered even though no translate of the box fits
        assert rep.diagnosis["contains_by_translation"] is False

    def test_premise_violation_detected(self):
        hk = cube_herisson(4.0)
        hl = cube_herisson(2.0)
        with pytest.raises(PremiseViolated) as err:
            monotonicity_check(hk, hl, FAST)
        assert err.value.direction is not None

    def test_premise_ignores_row_order(self):
        hk = random_herisson(7, 9)
        hl = blaschke_add(hk, random_herisson(5, 10))
        rep = monotonicity_check(hk, hl, FAST)
        again = monotonicity_check(hk, shuffled(hl, 3), FAST)
        assert again.verdict == rep.verdict == "holds"
        assert again.rhs == rep.rhs
        assert again.lhs == pytest.approx(rep.lhs, rel=1e-9)
        with pytest.raises(PremiseViolated) as err:
            monotonicity_check(hl, shuffled(hk, 4), FAST)
        assert err.value.direction is not None

    def test_blaschke_construction_recipe(self):
        summary = fuzz_campaign(FuzzConfig(trials=15, seed=7,
                                           checks=("thm71",)))
        assert summary["checks"]["thm71"]["fails"] == 0

    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
    def test_shrunken_data_premise_auto_satisfied(self, t):
        hl = random_herisson(8, 13)
        rep = monotonicity_check(blaschke_scale(hl, t), hl, FAST)
        assert rep.ok
        # areas scale by t so volume scales by t^(3/2)
        assert rep.rhs == pytest.approx(t ** 1.5 * rep.lhs, rel=1e-6)


class TestSumComparison:
    def test_cube_pair_closed_forms(self):
        rep = sum_comparison_check(cube_mesh(1.0), cube_mesh(1.0))
        assert rep.lhs == pytest.approx(8.0, rel=1e-9)
        assert rep.rhs == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-9)
        assert rep.verdict == "holds"

    def test_rotated_tetrahedra(self):
        t1, t2 = rotated_tetrahedron_pair(1.0)
        assert sum_comparison_check(t1, t2).verdict == "holds"

    def test_random_pairs_hold(self):
        summary = fuzz_campaign(FuzzConfig(trials=15, seed=8,
                                           checks=("thm75",)))
        assert summary["checks"]["thm75"]["fails"] == 0


class TestExponent:
    def test_reduces_to_base_inequalities_at_one(self):
        p = cube_mesh(1.0)
        q = cube_mesh(1.5)
        rep4, rep5 = exponent_check(p, q, 1.0)
        bm = brunn_minkowski_check(p, q)
        ks = kneser_suss_check(p, q)
        assert rep4.lhs == pytest.approx(bm.lhs, rel=1e-14)
        assert rep4.rhs == pytest.approx(bm.rhs, rel=1e-14)
        assert rep5.lhs == pytest.approx(ks.lhs, rel=1e-14)
        assert rep5.rhs == pytest.approx(ks.rhs, rel=1e-14)

    def test_a2_cubes(self):
        rep4, _ = exponent_check(cube_mesh(1.0), cube_mesh(1.0), 2.0)
        assert rep4.lhs == pytest.approx(4.0, rel=1e-12)
        assert rep4.rhs == pytest.approx(2.0, rel=1e-12)
        assert rep4.verdict == "holds"

    def test_a_half_cubes_fail_with_sqrt2(self):
        rep4, rep5 = exponent_check(cube_mesh(1.0), cube_mesh(1.0), 0.5)
        assert rep4.verdict == "fails"
        assert rep4.lhs == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert rep4.rhs == pytest.approx(2.0, abs=1e-12)
        assert rep5.verdict == "fails"

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            exponent_check(cube_mesh(1.0), cube_mesh(1.0), 0.0)


class TestLemma:
    def test_examples(self):
        assert lemma_inequality(2.0, 1.0)
        assert lemma_inequality(1.0, 0.37)
        assert not lemma_inequality(0.5, 1.0)

    @given(st.floats(1.0, 50.0), st.floats(1e-6, 1e6))
    @settings(max_examples=80, deadline=None)
    def test_holds_for_a_at_least_one(self, a, x):
        assert lemma_inequality(a, x)

    @given(st.floats(0.01, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_breaks_below_one_at_x_equals_one(self, a):
        # (1+1)^a = 2^a < 2 = 1 + 1^a whenever a < 1
        assert not lemma_inequality(a, 1.0)


class TestFuzzCampaign:
    def test_deterministic(self):
        cfg = FuzzConfig(trials=3, seed=17)
        assert fuzz_campaign(cfg) == fuzz_campaign(cfg)

    def test_all_checks_clean(self):
        summary = fuzz_campaign(FuzzConfig(trials=10, seed=42, a=1.5))
        for name, entry in summary["checks"].items():
            assert entry["fails"] == 0, name
        assert summary["unexpected_failures"] == []

    def test_forced_homothets_fail_below_one_as_expected(self):
        summary = fuzz_campaign(FuzzConfig(trials=5, seed=11,
                                           checks=("thm81",), a=0.5,
                                           homothetic_pairs=True))
        assert summary["checks"]["thm81"]["fails"] == 5
        assert summary["unexpected_failures"] == []
        assert len(summary["checks"]["thm81"]["failure_seeds"]) == 5

    @pytest.mark.parametrize("a", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_invalid_exponent(self, a):
        with pytest.raises(ValueError, match="exponent factor"):
            FuzzConfig(trials=1, a=a)
        with pytest.raises(ValueError, match="exponent factor"):
            exponent_check(cube_mesh(1.0), cube_mesh(1.0), a)

    def test_scale_covariance_of_reports(self):
        lam = 2.0
        p = cube_mesh(1.0)
        q = box_mesh((1.0, 1.5, 0.5))
        small = brunn_minkowski_check(p, q)
        big = brunn_minkowski_check(cube_mesh(lam),
                                    box_mesh((lam, 1.5 * lam, 0.5 * lam)))
        assert big.lhs == pytest.approx(lam * small.lhs, rel=1e-12)
        assert big.rhs == pytest.approx(lam * small.rhs, rel=1e-12)
        assert big.verdict == small.verdict


class TestWorkPerPath:
    """Each volume of a pair is computed at most once, and only when a
    report needs it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"solve": 0, "minkowski": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(inequalities, "continuation_solve",
                            counted("solve", inequalities.continuation_solve))
        monkeypatch.setattr(inequalities, "minkowski_sum",
                            counted("minkowski", inequalities.minkowski_sum))
        return counts

    def test_brunn_minkowski_on_meshes_solves_nothing(self, calls):
        brunn_minkowski_check(cube_mesh(1.0), box_mesh((1.0, 2.0, 0.5)))
        assert calls == {"solve": 0, "minkowski": 1}

    def test_kneser_suss_on_meshes_solves_the_sum_only(self, calls):
        kneser_suss_check(cube_mesh(1.0), box_mesh((1.0, 2.0, 0.5)), FAST)
        assert calls == {"solve": 1, "minkowski": 0}

    def test_monotonicity_on_meshes_solves_nothing(self, calls):
        rep = monotonicity_check(cube_mesh(1.0), cube_mesh(2.0), FAST)
        assert rep.lhs == pytest.approx(8.0, rel=1e-12)
        assert calls == {"solve": 0, "minkowski": 0}

    def test_exponent_check_builds_each_sum_once(self, calls):
        exponent_check(cube_mesh(1.0), box_mesh((1.0, 2.0, 0.5)), 0.5, FAST)
        assert calls == {"solve": 1, "minkowski": 1}

    def test_fuzz_trial_with_every_check(self, calls):
        fuzz_campaign(FuzzConfig(trials=1, seed=4))
        assert calls == {"solve": 3, "minkowski": 1}

    def test_fuzz_trial_with_brunn_minkowski_only(self, calls):
        fuzz_campaign(FuzzConfig(trials=1, seed=4, checks=("bm",)))
        assert calls == {"solve": 2, "minkowski": 1}

    def test_fuzz_trial_without_minkowski_sums(self, calls):
        fuzz_campaign(FuzzConfig(trials=1, seed=4, checks=("ks", "thm71")))
        assert calls == {"solve": 3, "minkowski": 0}
