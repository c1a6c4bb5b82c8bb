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
from lieboxford.potentials import Contact, ConvexSoftCoulomb

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
        # two cross-check bounds (log_pointwise, log_global) share one profile
        calls = []
        original = explore.density

        def counted(state):
            calls.append(state)
            return original(state)

        monkeypatch.setattr(explore, "density", counted)
        monkeypatch.setattr(bounds, "density", counted)
        prob = SearchProblem(ConvexSoftCoulomb(1.0), template_by_name("separated_gaussian_pair"), 50)
        res = maximize_ratio(prob, seed=4, tol_scale=TOL)
        assert res.trace
        assert len(calls) == len(res.trace)

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
        # the row reads the last incumbent's log_pointwise cross-check, which
        # priced the profile it built: one density per incumbent, none rebuilt
        calls, results = [], []
        original_density, original_search = explore.density, explore.maximize_ratio

        def counted(state):
            calls.append(state)
            return original_density(state)

        def recorded(problem, seed, tol_scale):
            results.append(original_search(problem, seed, tol_scale))
            return results[-1]

        monkeypatch.setattr(explore, "density", counted)
        monkeypatch.setattr(bounds, "density", counted)
        monkeypatch.setattr(explore, "maximize_ratio", recorded)
        potential = ConvexSoftCoulomb(1.0)
        rows = constant_table([potential], ["equal_gaussian_pair"], 60, 3, TOL)
        (res,) = results
        assert len(calls) == len(res.trace)
        state = template_by_name("equal_gaussian_pair").build(res.best_theta)
        log_bound = bounds.BOUNDS["log_pointwise"]
        rhs = log_bound.rhs(original_density(state), bounds.BoundSpec(log_bound.id, potential))
        assert rows[0]["proven_bound_fraction"] == indirect_energy(state, potential).i_xc / rhs
