import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfcx

from lieboxford.numerics import (
    Interval,
    NoBracket,
    NonConvergence,
    QuadratureSpec,
    find_root,
    integrate_1d,
    integrate_1d_with_error,
    rng_stream,
)
from oracles import (
    erfcx_sandwich,
    integrate_1d_components,
    integrate_1d_components_with_error,
    integrate_2d,
)


class TestIntegrate1D:
    def test_gaussian_half_line(self):
        # infinite domains are the oracle's alone; clip keeps the mapped
        # far-tail nodes from overflowing r**2
        val = integrate_1d_components(lambda r: np.exp(-np.minimum(r, 1e8) ** 2), (0.0, math.inf))
        assert val == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-9)

    def test_endpoint_singularity(self):
        # 3/4 * r^(-1/2) is the curvature-moment integrand of the
        # homogeneous potential at exponent 1/2; antiderivative (3/2) r^(1/2).
        val = integrate_1d(lambda r: 0.75 * r**-0.5, (0.0, 1.0))
        assert val == pytest.approx(1.5, rel=2e-9)

    def test_zero_integrand(self):
        assert integrate_1d(lambda r: 0.0 * r, (0.0, 7.0)) == 0.0

    def test_degenerate_interval(self):
        assert integrate_1d(lambda r: np.exp(r), (2.0, 2.0)) == 0.0

        def never_called(r):
            raise AssertionError("a degenerate interval needs no integrand value")

        assert integrate_1d_with_error(never_called, (2.0, 2.0)) == (0.0, 0.0)

    def test_whole_line(self):
        val = integrate_1d_components(lambda x: np.exp(-(x**2) / 2), (-math.inf, math.inf))
        assert val == pytest.approx(math.sqrt(2 * math.pi), rel=1e-9)

    def test_vector_valued(self):
        val = integrate_1d_components(lambda x: np.vstack([x, x**2, np.cos(x)]), (0.0, 2.0))
        assert np.allclose(val, [2.0, 8.0 / 3.0, math.sin(2.0)], rtol=1e-9)

    def test_error_estimate_within_contract(self):
        val, err = integrate_1d_with_error(lambda x: np.sin(x) ** 2, (0.0, 10.0))
        exact = 5.0 - math.sin(20.0) / 4.0
        assert abs(val - exact) <= max(1e-10, 1e-9 * abs(exact))
        assert np.all(err >= 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_integrand_raises(self, bad):
        # one poisoned interior node is enough
        with pytest.raises(ValueError, match="not finite"):
            integrate_1d(lambda x: np.where(np.abs(x - 0.5) < 0.01, bad, x), (0.0, 1.0))

    def test_nonconvergence_raises(self):
        spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=5)
        with pytest.raises(NonConvergence):
            integrate_1d(lambda r: np.exp(-r) * np.sin(50 * r), (0.0, 30.0), spec)

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(-3, 3),
        b=st.floats(-3, 3),
        c=st.floats(-3, 3),
    )
    def test_linearity_on_polynomials(self, a, b, c):
        f = lambda x: x**2 - x
        g = lambda x: np.cos(3 * x)
        lhs = integrate_1d(lambda x: a * f(x) + b * g(x) + c, (-1.0, 2.0))
        rhs = (
            a * integrate_1d(f, (-1.0, 2.0))
            + b * integrate_1d(g, (-1.0, 2.0))
            + c * 3.0
        )
        assert lhs == pytest.approx(rhs, abs=5e-9, rel=1e-8)


# (integrand, domain, spec) triples on which the package driver must repeat the
# oracle's value and error bit for bit: a smooth integrand, an endpoint
# singularity, an oscillatory integrand, and a budget too small to converge.
DRIVER_BATTERY = {
    "finite": (lambda x: np.exp(-((x - 0.3) ** 2)) * np.cos(x), (-2.0, 3.5), QuadratureSpec()),
    "endpoint_singularity": (lambda r: 0.75 * r**-0.5, (0.0, 1.0), QuadratureSpec(1e-13, 1e-12)),
    "oscillatory": (lambda x: np.sin(40.0 * x) * np.exp(-0.2 * x), (0.0, 25.0), QuadratureSpec()),
    "nonconvergence": (
        lambda r: np.exp(-r) * np.sin(50 * r),
        (0.0, 30.0),
        QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=40),
    ),
}


def _outcome(driver, f, domain, spec):
    """("value", v, err) or ("nonconvergence", estimate, err) of one driver."""
    try:
        return ("value", *driver(f, domain, spec))
    except NonConvergence as err:
        return ("nonconvergence", err.estimate, err.error)


class TestDriverContract:
    @pytest.mark.parametrize("case", DRIVER_BATTERY, ids=str)
    def test_bit_identical_to_oracle(self, case):
        f, domain, spec = DRIVER_BATTERY[case]
        ours = _outcome(integrate_1d_with_error, f, domain, spec)
        oracle = _outcome(integrate_1d_components_with_error, f, domain, spec)
        assert ours == oracle
        assert ours[0] == ("nonconvergence" if case == "nonconvergence" else "value")
        assert all(type(v) is float for v in ours[1:])

    def test_component_integrand_rejected(self):
        with pytest.raises(ValueError, match=r"\(m,\)"):
            integrate_1d(lambda x: np.vstack([x, x**2]), (0.0, 1.0))

    def test_overflowing_kronrod_sums_do_not_converge(self):
        # every panel's weighted sums overflow to +-inf, so each |K - G| is NaN,
        # and the +inf and -inf panels make the total NaN
        spec = QuadratureSpec(max_subdivisions=20)
        with pytest.raises(NonConvergence) as caught, np.errstate(over="ignore"):
            integrate_1d(lambda x: np.where(x < 5.0, 1e308, -1e308), (0.0, 10.0), spec)
        assert math.isnan(caught.value.estimate)


class TestIntegrate2D:
    def test_unit_square(self):
        val = integrate_2d(lambda x, y: np.ones_like(x), (0.0, 1.0), (0.0, 1.0))
        assert val == pytest.approx(1.0, rel=1e-9)

    def test_product_of_unit_masses(self):
        pdf = lambda t: np.exp(-(t**2) / 2) / math.sqrt(2 * math.pi)
        val = integrate_2d(
            lambda x, y: pdf(x) * pdf(y),
            (-math.inf, math.inf),
            (-math.inf, math.inf),
        )
        assert val == pytest.approx(1.0, rel=1e-8)

    def test_separable_cross_check(self):
        val = integrate_2d(lambda x, y: x * np.exp(-x - 2 * y), (0.0, math.inf), (0.0, math.inf))
        assert val == pytest.approx(0.5, rel=1e-8)


class TestErfcx:
    """The erfcx the package reads, against a quadrature, its sandwich and its derivative."""

    def test_at_zero(self):
        assert erfcx(0.0) == 1.0

    def test_anchor_at_one(self):
        # Frozen from the quadrature oracle below (and matching published tables).
        assert erfcx(1.0) == pytest.approx(0.4275835761558070, rel=1e-12)

    def test_quadrature_oracle(self):
        # Independent route: e^(x^2) * (2/sqrt(pi)) * int_x^inf e^(-t^2) dt.
        for x in (0.3, 1.0, 2.5):
            tail = integrate_1d_components(
                lambda t: np.exp(-np.minimum(t, 1e8) ** 2), (x, math.inf)
            )
            assert erfcx(x) == pytest.approx(
                math.exp(x**2) * 2 / math.sqrt(math.pi) * tail, rel=1e-10
            )

    def test_sandwich_on_log_grid(self):
        x = np.concatenate([[0.0], np.logspace(-4, np.log10(50.0), 200)])
        lo, hi = erfcx_sandwich(x)
        val = erfcx(x)
        assert np.all(val >= lo)
        assert np.all(val <= hi)
        # strict in the interior, equality of the upper bound at x = 0
        assert np.all(val[1:] > lo[1:])
        assert np.all(val[1:] < hi[1:])
        assert hi[0] == pytest.approx(1.0, abs=1e-14)

    def test_strictly_decreasing_and_asymptotic(self):
        x = np.logspace(-2, 2, 100)
        v = erfcx(x)
        assert np.all(np.diff(v) < 0)
        assert erfcx(50.0) == pytest.approx(1 / (math.sqrt(math.pi) * 50.0), rel=2e-4)

    def test_derivative_identity(self):
        # erfcx'(x) = 2 x erfcx(x) - 2/sqrt(pi), against central differences.
        h = 1e-6
        for x in np.linspace(0.1, 10.0, 25):
            fd = (erfcx(x + h) - erfcx(x - h)) / (2 * h)
            exact = 2 * x * erfcx(x) - 2 / math.sqrt(math.pi)
            assert fd == pytest.approx(exact, rel=1e-6, abs=1e-9)


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 1.0, (0.0, 2.0)) == pytest.approx(1.0, abs=1e-12)

    def test_sine(self):
        assert find_root(lambda x: math.sin(math.pi * x), (0.5, 1.5)) == pytest.approx(1.0, abs=1e-12)

    def test_interpolation_equation_at_zero_coupling(self):
        f = lambda k: -(2 * k / math.pi) * math.sin(math.pi / k) + 4 / math.pi
        assert find_root(f, (1.0, 2.0)) == pytest.approx(2.0, abs=1e-10)

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            find_root(lambda x: x**2 + 1.0, (-1.0, 1.0))

    def test_root_off_by_more_than_tol(self):
        # Brent closes in on the jump, where |f| stays 1
        with pytest.raises(NonConvergence):
            find_root(lambda x: -1.0 if x < 0.3 else 1.0, (0.0, 1.0))

    def test_root_at_an_end_of_the_bracket(self):
        assert find_root(lambda x: x - 1.0, (1.0, 2.0)) == 1.0
        assert find_root(lambda x: x - 2.0, (1.0, 2.0)) == 2.0


class TestBrentPort:
    """find_root returns scipy.optimize.brentq's float at xtol 1e-15, rtol 8.9e-16."""

    @staticmethod
    def brentq(f, lo, hi):
        import scipy.optimize  # the reference only; the package does not load it

        return scipy.optimize.brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)

    def test_default_kappa_targets(self):
        from lieboxford.cli import DEFAULT_CONFIG
        from lieboxford.hubbard import kappa_of_u, lieb_wu_energy

        for ratio in DEFAULT_CONFIG["hubbard"]["u_over_t"]:
            target = lieb_wu_energy(ratio)
            g = lambda k: -(2 * k / math.pi) * math.sin(math.pi / k) - target
            assert kappa_of_u(ratio) == self.brentq(g, 1.0, 2.0)

    def test_random_brackets(self):
        rng = rng_stream(11, 0)
        families = [
            lambda c: (lambda x: x**3 - 2 * x - c),
            lambda c: (lambda x: math.sin(3 * x) - c / 4),
            lambda c: (lambda x: math.expm1(x) - c),
            lambda c: (lambda x: 1e-9 * math.atan(x - c / 2)),
            lambda c: (lambda x: math.tanh(20 * (x - c / 3))),
        ]
        checked = 0
        for i in range(600):
            f = families[i % len(families)](float(rng.uniform(-2.0, 2.0)))
            lo, hi = sorted(float(v) for v in rng.uniform(-3.0, 3.0, 2))
            if f(lo) * f(hi) >= 0:
                continue
            assert find_root(f, (lo, hi), tol=math.inf) == self.brentq(f, lo, hi)
            checked += 1
        assert checked >= 200

    def test_iteration_limit_raises_as_brentq_does(self):
        # (x - 0.3)^5 has no simple root, and both stop after 100 iterations
        f = lambda x: (x - 0.3) ** 5
        with pytest.raises(RuntimeError):
            self.brentq(f, 0.0, 1.0)
        with pytest.raises(NonConvergence):
            find_root(f, (0.0, 1.0), tol=math.inf)


class TestInfra:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    @pytest.mark.parametrize(
        "ends",
        [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf), (math.nan, 1.0)],
        ids=["upper_half_line", "lower_half_line", "whole_line", "nan_end"],
    )
    def test_interval_rejects_non_finite_ends(self, ends):
        def never_called(r):
            raise AssertionError("an infinite domain is rejected before any integrand call")

        with pytest.raises(ValueError, match="finite ends"):
            Interval(*ends)
        with pytest.raises(ValueError, match="finite ends"):
            integrate_1d_with_error(never_called, ends)
        with pytest.raises(ValueError, match="finite ends"):
            find_root(never_called, ends)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)

    def test_rng_streams_deterministic_and_independent(self):
        a = rng_stream(42, 1).standard_normal(4)
        b = rng_stream(42, 1).standard_normal(4)
        c = rng_stream(42, 2).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
