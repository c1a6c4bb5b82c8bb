import numpy as np
import pytest

from lieboxford import bounds, explore
from lieboxford.cli import DEFAULT_CONFIG
from lieboxford.energies import indirect_energy
from lieboxford.explore import (
    ObjectiveEvaluationFailed,
    SearchProblem,
    StateTemplate,
    constant_table,
    maximize_ratio,
    template_by_name,
)
from lieboxford.potentials import Contact, ConvexSoftCoulomb, Homogeneous, RegularizedCoulomb

TOL = DEFAULT_CONFIG["tolerance"]


class TestMaximizeRatio:
    def test_antisymmetric_family_constant_half(self):
        # I_xc = -(1/2) int rho^2 identically, so the objective is flat at 1/2
        prob = SearchProblem(Contact(), template_by_name("antisymmetric_gaussian_pair"), 200)
        res = maximize_ratio(prob, seed=5, tol_scale=TOL)
        assert res.best_ratio == pytest.approx(0.5, abs=1e-9)

    def test_equal_center_pair_quarter(self):
        prob = SearchProblem(Contact(), template_by_name("equal_gaussian_pair"), 60)
        res = maximize_ratio(prob, seed=2, tol_scale=TOL)
        assert res.best_ratio == pytest.approx(0.25, abs=1e-9)

    def test_separated_pair_approaches_half(self):
        prob = SearchProblem(Contact(), template_by_name("separated_gaussian_pair"), 2000)
        res = maximize_ratio(prob, seed=123, tol_scale=TOL)
        assert res.best_ratio >= 0.49
        assert res.evaluations_used <= 2000

    def test_density_once_per_incumbent(self, monkeypatch):
        # a density is sampled only where a cross-check reads its grid: never
        # for contact (no grid check), once per search where log_pointwise's
        # floor settles every incumbent (the final incumbent's full report),
        # once per incumbent for homogeneous (lundholm has no floor)
        calls = []
        original = explore.density

        def counted(state):
            calls.append(state)
            return original(state)

        monkeypatch.setattr(explore, "density", counted)
        monkeypatch.setattr(bounds, "density", counted)
        template = template_by_name("correlated_pair")
        for potential, per_search in ((Contact(), 0), (ConvexSoftCoulomb(1.0), 1), (Homogeneous(0.5), None)):
            calls.clear()
            res = maximize_ratio(SearchProblem(potential, template, 50), seed=4, tol_scale=TOL)
            assert len(res.trace) > 1
            assert len(calls) == (len(res.trace) if per_search is None else per_search), potential
            if calls:
                assert repr(calls[-1]) == repr(template.build(res.best_theta))
            # every check of the final incumbent is a full report
            assert res.best_checks and all(r["status"] == "holds" for r in res.best_checks.values())

    def test_deterministic(self):
        prob = SearchProblem(Contact(), template_by_name("separated_gaussian_pair"), 400)
        a = maximize_ratio(prob, seed=9, tol_scale=TOL)
        b = maximize_ratio(prob, seed=9, tol_scale=TOL)
        assert a.best_theta == b.best_theta
        assert a.best_ratio == b.best_ratio
        assert a.trace == b.trace
        c = maximize_ratio(prob, seed=10, tol_scale=TOL)
        assert (c.best_theta != a.best_theta) or (c.trace != a.trace)

    def test_trace_monotone_and_consistent(self):
        prob = SearchProblem(Contact(), template_by_name("correlated_pair"), 300)
        res = maximize_ratio(prob, seed=4, tol_scale=TOL)
        ratios = [r for _, r in res.trace]
        assert ratios == sorted(ratios)
        assert res.best_ratio == ratios[-1]

    def test_incumbents_respect_proven_bounds(self):
        prob = SearchProblem(Contact(), template_by_name("correlated_pair"), 300)
        res = maximize_ratio(prob, seed=4, tol_scale=TOL)
        assert res.cross_check_failures == []
        # contact ratio can never exceed the saturating 1/2
        assert res.best_ratio <= 0.5 + 1e-9

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SearchProblem(Contact(), template_by_name("equal_gaussian_pair"), 10)

    def test_objective_failure_carries_theta(self):
        broken = StateTemplate(
            "broken", ((0.0, 1.0),), lambda theta: (_ for _ in ()).throw(RuntimeError("nope"))
        )
        prob = SearchProblem(Contact(), broken, 60)
        with pytest.raises(ObjectiveEvaluationFailed) as err:
            maximize_ratio(prob, seed=1, tol_scale=TOL)
        assert err.value.theta is not None

    def test_unknown_template(self):
        with pytest.raises(ValueError):
            template_by_name("no_such_family")


class TestConstantTable:
    def test_empty_inputs_give_empty_table(self):
        assert constant_table([], [], 100, 1, TOL) == []
        assert constant_table([Contact()], [], 100, 1, TOL) == []

    def test_contact_row_near_half(self):
        rows = constant_table([Contact()], ["separated_gaussian_pair"], 600, 7, TOL)
        assert len(rows) == 1
        assert rows[0]["best_ratio"] == pytest.approx(0.5, abs=0.01)
        assert rows[0]["proven_bound_fraction"] == ""

    def test_log_bound_fraction_below_one(self):
        rows = constant_table([ConvexSoftCoulomb(1.0)], ["equal_gaussian_pair"], 60, 3, TOL)
        frac = rows[0]["proven_bound_fraction"]
        assert 0.0 < frac < 1.0

    def test_log_bound_fraction_reuses_incumbent_profile(self, monkeypatch):
        # every incumbent's log_pointwise check settles at its floor; the row
        # reads the final incumbent's full report, priced on the one density
        # the search samples, none rebuilt
        calls, results = [], []
        original_density, original_run = explore.density, explore._run_searches

        def counted(state):
            calls.append(state)
            return original_density(state)

        def recorded(searches):
            results.extend(original_run(searches))
            return list(results)

        monkeypatch.setattr(explore, "density", counted)
        monkeypatch.setattr(bounds, "density", counted)
        monkeypatch.setattr(explore, "_run_searches", recorded)
        potential = ConvexSoftCoulomb(1.0)
        rows = constant_table([potential], ["equal_gaussian_pair"], 60, 3, TOL)
        (res,) = results
        assert len(res.trace) > 1
        assert len(calls) == 1
        state = template_by_name("equal_gaussian_pair").build(res.best_theta)
        assert repr(calls[0]) == repr(state)
        log_bound = bounds.BOUNDS["log_pointwise"]
        rhs = log_bound.rhs(original_density(state), bounds.BoundSpec(log_bound.id, potential))
        assert rows[0]["proven_bound_fraction"] == indirect_energy(state, potential).i_xc / rhs


class TestLockstep:
    """constant_table runs its searches in lockstep; each equals its lone maximize_ratio run."""

    def test_table_equals_sequential_searches(self, monkeypatch):
        potentials = [ConvexSoftCoulomb(1.0), RegularizedCoulomb(1.0)]
        families = ["correlated_pair", "separated_gaussian_pair"]
        sequential = [
            maximize_ratio(SearchProblem(potential, template_by_name(family), 50), 11 + 1000 * i + j, TOL)
            for i, potential in enumerate(potentials)
            for j, family in enumerate(families)
        ]
        results, original = [], explore._run_searches

        def recorded(searches):
            results.extend(original(searches))
            return list(results)

        monkeypatch.setattr(explore, "_run_searches", recorded)
        rows = constant_table(potentials, families, 50, 11, TOL)
        assert len(rows) == len(results) == 4
        for res, alone in zip(results, sequential):
            assert res.best_theta == alone.best_theta
            assert res.best_ratio == alone.best_ratio
            assert res.evaluations_used == alone.evaluations_used
            assert res.trace == alone.trace
            assert res.best_checks == alone.best_checks
            assert res.cross_check_failures == alone.cross_check_failures

    @staticmethod
    def _breaking(after):
        """A correlated_pair template whose build raises from its (after + 1)-th call on."""
        good = template_by_name("correlated_pair")
        calls = []

        def build(theta):
            calls.append(theta)
            if len(calls) > after:
                raise RuntimeError(f"broken after {after}")
            return good.build(theta)

        return StateTemplate(f"broken_after_{after}", good.bounds, build)

    def test_broken_second_search_raises_its_own_error(self, monkeypatch):
        monkeypatch.setitem(explore.TEMPLATES, "broken", self._breaking(0))
        with pytest.raises(ObjectiveEvaluationFailed) as alone:
            maximize_ratio(SearchProblem(Contact(), self._breaking(0), 60), 5 + 1, TOL)
        with pytest.raises(ObjectiveEvaluationFailed) as table:
            constant_table([Contact()], ["correlated_pair", "broken"], 60, 5, TOL)
        assert table.value.theta == alone.value.theta is not None
        assert str(table.value) == str(alone.value)

    def test_broken_first_search_raises_its_error_not_a_later_ones(self, monkeypatch):
        # the second search breaks at its first build, the first only at its
        # sixth: a loop of lone runs never reaches the second
        monkeypatch.setitem(explore.TEMPLATES, "late", self._breaking(5))
        monkeypatch.setitem(explore.TEMPLATES, "early", self._breaking(0))
        with pytest.raises(ObjectiveEvaluationFailed) as alone:
            maximize_ratio(SearchProblem(Contact(), self._breaking(5), 60), 5, TOL)
        with pytest.raises(ObjectiveEvaluationFailed) as table:
            constant_table([Contact()], ["late", "early"], 60, 5, TOL)
        assert table.value.theta == alone.value.theta is not None
        assert str(table.value) == str(alone.value) == f"objective failed at theta={alone.value.theta}: broken after 5"

    def test_a_search_whose_pricing_fails_raises_its_own_error(self):
        # the shared energies call raises, so each pending pair is priced
        # alone and the failing search gets its own error thrown in
        class NotFiniteBeyondOne(ConvexSoftCoulomb):
            def value(self, r):
                return np.where(np.asarray(r) > 1.0, np.nan, super().value(r))

        bad = NotFiniteBeyondOne(1.0)
        with pytest.raises(ObjectiveEvaluationFailed) as alone:
            maximize_ratio(SearchProblem(bad, template_by_name("correlated_pair"), 50), 3 + 1000, TOL)
        with pytest.raises(ObjectiveEvaluationFailed) as table:
            constant_table([ConvexSoftCoulomb(1.0), bad], ["correlated_pair"], 50, 3, TOL)
        assert table.value.theta == alone.value.theta is not None
        assert str(table.value) == str(alone.value)
        assert "integrand not finite" in str(table.value)
