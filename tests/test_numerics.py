import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieboxford.numerics import (
    _INITIAL_PANELS,
    Interval,
    NoBracket,
    NonConvergence,
    QuadratureSpec,
    _adaptive,
    _panels,
    find_root,
    integrate_1d,
    integrate_1d_with_error,
    rng_stream,
)
from lieboxford.potentials import Homogeneous
from lieboxford.potentials import _erfcx as erfcx
from lieboxford.states import CorrelatedGaussianPair, GaussianProduct, HermiteSlater
from oracles import (
    erfcx_sandwich,
    integrate_1d_components,
    integrate_1d_components_with_error,
    integrate_2d,
    numpy_stream,
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


def _right_end_singularity(x):
    # the chain speculates past the depth the oracle consumes, to nodes that
    # round to the singular end itself; there the value is inf, and never read
    with np.errstate(divide="ignore"):
        return (1.0 - x) ** -0.5


def _nan_only_deep(u):
    # NaN only below every node the oracle evaluates (2.4e-18 and up here),
    # so only speculated panels of the endpoint chain see it (down to 2.9e-22)
    return np.where(u < 1e-20, np.nan, u**-0.5 * np.exp(-u))


# (integrand, domain, spec) triples on which the package driver must repeat the
# oracle's value and error bit for bit: a smooth integrand, one that converges
# on its initial panels (no split), endpoint singularities at either end (the
# left one the shape of Homogeneous(0.1)'s integrand, an endpoint chain of 268
# splits), an interior kink, an oscillatory integrand, non-finite values in
# speculated panels only, budgets too small to converge, one of them ending
# inside a chain, a constant under tolerances it cannot meet, whose panels
# of one width have bit-equal errors, so creation order alone orders the pops,
# and values whose panel sums overflow to +inf after the first split (a panel
# of b alone), so the error turns NaN there and both drivers raise at once.
DRIVER_BATTERY = {
    "finite": (lambda x: np.exp(-((x - 0.3) ** 2)) * np.cos(x), (-2.0, 3.5), QuadratureSpec()),
    "initial_panels": (lambda x: x**3 - x, (0.0, 2.0), QuadratureSpec()),
    "endpoint_singularity": (lambda r: 0.75 * r**-0.5, (0.0, 1.0), QuadratureSpec(1e-13, 1e-12)),
    "endpoint_chain": (lambda u: u**-0.9 * np.exp(-u), (0.0, 5.0), QuadratureSpec()),
    "right_end_singularity": (_right_end_singularity, (0.0, 1.0), QuadratureSpec()),
    "interior_kink": (lambda x: np.abs(x - 0.3), (0.0, 1.0), QuadratureSpec()),
    "oscillatory": (lambda x: np.sin(40.0 * x) * np.exp(-0.2 * x), (0.0, 25.0), QuadratureSpec()),
    "nan_only_deep": (_nan_only_deep, (0.0, 5.0), QuadratureSpec()),
    "nonconvergence": (
        lambda r: np.exp(-r) * np.sin(50 * r),
        (0.0, 30.0),
        QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=40),
    ),
    "nonconvergence_in_chain": (
        lambda u: u**-0.9 * np.exp(-u),
        (0.0, 5.0),
        QuadratureSpec(max_subdivisions=100),
    ),
    "tied_errors": (lambda x: np.ones_like(x), (0.0, 3.0), QuadratureSpec(1e-300, 1e-300, 40)),
    "one_signed_overflow": (lambda x: np.where(x < 1.0, 1e308, -1e308 * np.cos(x)), (0.5, 3.0), QuadratureSpec()),
}
NONCONVERGING = ("nonconvergence", "nonconvergence_in_chain", "tied_errors", "one_signed_overflow")
# cases whose sums overflow (numpy warns) and whose oracle forms inf - inf
OVERFLOWING = ("one_signed_overflow",)


def _outcome(driver, f, domain, spec):
    """("value", v, err) or ("nonconvergence", estimate, err) of one driver."""
    try:
        return ("value", *driver(f, domain, spec))
    except NonConvergence as err:
        return ("nonconvergence", err.estimate, err.error)


def _nan_equal(outcome):
    """``outcome`` with each NaN as the string "nan", so that two NaNs compare equal."""
    return tuple("nan" if isinstance(v, float) and math.isnan(v) else v for v in outcome)


def _counted(f):
    """``f`` and a list that records the node arrays it is called on."""
    seen = []

    def g(x):
        seen.append(x.copy())
        return f(x)

    return g, seen


# h and C of one state of each kind, as the energies' integrands read them:
# 3 and 5 rows with powers, 5 and 19 rows without (term-major below 8 rows,
# node-major from 8), and 12 rows of the correlated pair
CORRELATION_KINDS = {
    f"{kind}_{part}": (lambda u, state=state, k=k: state.correlations(u)[k])
    for kind, state in (
        ("hermite_slater", HermiteSlater(3, 0.8, "symmetric", -0.2)),
        ("hermite_slater_2", HermiteSlater(2, 1.1, "antisymmetric", 0.3)),
        ("gaussian_product", GaussianProduct((-0.8, 0.1, 1.3), 0.6, "antisymmetric")),
        ("gaussian_product_2", GaussianProduct((-0.5, 0.9), 0.7, "symmetric")),
        ("correlated_pair", CorrelatedGaussianPair(0.9, 0.5, 0.6, center=0.4)),
    )
    for k, part in enumerate("hc")
}


_FLOAT_MAX = float(np.finfo(float).max)
_SUBNORMAL = 5e-324


def _initial_domains():
    """Finite (lo, hi), lo < hi: any ends, subnormal widths (1 or 2 subnormals
    make np.linspace's step underflow to 0), spans near or past the float
    maximum, and negative ends."""
    subnormal_multiple = st.integers(-(2**52), 2**52).map(lambda k: k * _SUBNORMAL)  # exact
    ends = st.one_of(
        st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False)),
        st.tuples(subnormal_multiple, st.integers(1, 64)).map(lambda t: (t[0], t[0] + t[1] * _SUBNORMAL)),
        st.tuples(st.floats(-_FLOAT_MAX, -_FLOAT_MAX / 4), st.floats(_FLOAT_MAX / 4, _FLOAT_MAX)),
        st.tuples(st.floats(-_FLOAT_MAX, -_SUBNORMAL), st.floats(-_FLOAT_MAX, -_SUBNORMAL)),
    )
    return ends.map(sorted).filter(lambda d: d[0] < d[1])


class TestDriverContract:
    @pytest.mark.parametrize("case", DRIVER_BATTERY, ids=str)
    def test_bit_identical_to_oracle(self, case):
        f, domain, spec = DRIVER_BATTERY[case]
        with np.errstate(**({"over": "ignore", "invalid": "ignore"} if case in OVERFLOWING else {})):
            ours = _outcome(integrate_1d_with_error, f, domain, spec)
            oracle = _outcome(integrate_1d_components_with_error, f, domain, spec)
        assert _nan_equal(ours) == _nan_equal(oracle)
        assert ours[0] == ("nonconvergence" if case in NONCONVERGING else "value")
        assert all(type(v) is float for v in ours[1:])

    def test_converged_initial_panels_take_one_call(self):
        f, domain, spec = DRIVER_BATTERY["initial_panels"]
        g, seen = _counted(f)
        integrate_1d_with_error(g, domain, spec)
        assert [x.size for x in seen] == [_INITIAL_PANELS * 15]

    def test_tied_errors_split_in_creation_order(self):
        # panels of one width have bit-equal errors and values, so only the
        # nodes show which one is split: each package call after the first
        # holds the two halves the oracle evaluates next, one call per split
        f, domain, spec = DRIVER_BATTERY["tied_errors"]
        ours, ours_calls = _counted(f)
        oracle, oracle_calls = _counted(f)
        _outcome(integrate_1d_with_error, ours, domain, spec)
        _outcome(integrate_1d_components_with_error, oracle, domain, spec)
        split = _INITIAL_PANELS
        expect = [oracle_calls[:split]] + [oracle_calls[i : i + 2] for i in range(split, len(oracle_calls), 2)]
        assert len(ours_calls) == 1 + spec.max_subdivisions
        assert [x.tobytes() for x in ours_calls] == [np.concatenate(c).tobytes() for c in expect]

    @settings(max_examples=300, deadline=None)
    @given(_initial_domains())
    def test_initial_edges_are_linspace_bit_for_bit(self, domain):
        # a span past the float maximum makes np.linspace's width inf and its
        # first edge 0 * inf = NaN, and lo = -0.0 gives a first edge of +0.0;
        # the loop's edges keep those bits too
        lo, hi = domain
        panel_lo, panel_hi = next(_adaptive(Interval(lo, hi), QuadratureSpec()))
        with np.errstate(all="ignore"):
            expect = np.linspace(lo, hi, _INITIAL_PANELS + 1)
        assert np.array([*panel_lo, panel_hi[-1]]).tobytes() == expect.tobytes()
        assert np.array(panel_hi[:-1]).tobytes() == np.array(panel_lo[1:]).tobytes()

    def test_endpoint_chain_takes_a_handful_of_calls(self):
        # 268 splits: one oracle call per panel, one package call per chain
        # batch (23 measured); one call per split would take 272
        f, domain, spec = DRIVER_BATTERY["endpoint_chain"]
        ours, ours_calls = _counted(f)
        oracle, oracle_calls = _counted(f)
        integrate_1d_with_error(ours, domain, spec)
        integrate_1d_components_with_error(oracle, domain, spec)
        assert len(oracle_calls) == _INITIAL_PANELS + 2 * 268
        assert len(ours_calls) <= 28

    def test_speculated_nan_is_evaluated_but_not_read(self):
        f, domain, spec = DRIVER_BATTERY["nan_only_deep"]
        ours, ours_calls = _counted(f)
        oracle, oracle_calls = _counted(f)
        integrate_1d_with_error(ours, domain, spec)
        integrate_1d_components_with_error(oracle, domain, spec)
        assert any(np.isnan(f(x)).any() for x in ours_calls)
        assert not any(np.isnan(f(x)).any() for x in oracle_calls)

    def test_speculated_nan_raises_when_popped(self):
        # NaN below 1e-50: the oracle meets it too, and the package first
        # evaluates it in a later split of a chain batch
        f = lambda u: np.where(u < 1e-50, np.nan, u**-0.9 * np.exp(-u))
        with pytest.raises(ValueError, match="not finite inside panel"):
            integrate_1d_components_with_error(f, (0.0, 5.0))
        g, seen = _counted(f)
        with pytest.raises(ValueError) as caught:
            integrate_1d_with_error(g, (0.0, 5.0))
        ends = re.fullmatch(r"integrand not finite inside \[(\S+), (\S+)\]", str(caught.value))
        lo, hi = float(ends[1]), float(ends[2])
        assert lo == 0.0 and np.isnan(f(seen[-1])).any()
        # the split the loop needed at the last call was wider than the one that raised
        assert seen[-1][:30].max() > hi

    @pytest.mark.parametrize("name", ["homogeneous", "erfcx", *CORRELATION_KINDS])
    def test_integrands_batch_independent(self, name):
        # A value that does not depend on the other nodes of its batch is why
        # chain batches keep every panel value.
        f = {"homogeneous": Homogeneous(0.1).value, "erfcx": erfcx, **CORRELATION_KINDS}[name]
        rng = rng_stream(3, 1)
        nodes = np.concatenate([10.0 ** rng.uniform(-90, 1.5, 300), rng.uniform(0.0, 30.0, 300)])
        batch = np.asarray(f(nodes))
        alone = np.concatenate([np.atleast_1d(f(nodes[i : i + 1])) for i in range(len(nodes))])
        scalars = np.array([f(x) for x in nodes])
        panels = np.concatenate([f(nodes[i : i + 30]) for i in range(0, len(nodes), 30)])
        assert batch.tobytes() == alone.tobytes() == scalars.tobytes() == panels.tobytes()

    def test_panel_sums_do_not_depend_on_the_batch(self):
        # Each panel's sums are ordered row sums, not one (n, 15) gemv, so the
        # 32 panels of one call, a non-finite one (+inf and -inf, whose sum
        # would warn) and an overflowing one among them, each have the bits of
        # their own one-panel call.
        ends = np.sort(10.0 ** rng_stream(3, 2).uniform(-6.0, 2.0, 33))

        def f(x):
            values = np.sin(7.0 * x) * np.exp(-x) / x**0.3
            values[(x > ends[5]) & (x < ends[6])] = np.inf
            values[(x > 0.5 * (ends[5] + ends[6])) & (x < ends[6])] = -np.inf
            values[(x > ends[20]) & (x < ends[21])] = 1e308
            return values

        def bits(panels):
            return [None if p is None else np.array(p).tobytes() for p in panels]

        with np.errstate(over="ignore"):
            batch = _panels(f, ends[:-1], ends[1:])
            alone = [_panels(f, ends[i : i + 1], ends[i + 1 : i + 2])[0] for i in range(32)]
        assert [i for i, p in enumerate(batch) if p is None] == [5]
        assert batch[20][0] == math.inf and math.isnan(batch[20][1])
        assert bits(batch) == bits(alone)

    def test_nan_error_raises_at_once(self):
        # the first split leaves a panel of 1e308 alone, whose sums overflow
        # to +inf: the error is NaN from then on, and the run raises at that
        # split, in its second integrand call, with the estimate +inf
        f, domain, spec = DRIVER_BATTERY["one_signed_overflow"]
        g, seen = _counted(f)
        with pytest.raises(NonConvergence, match="NaN") as caught, np.errstate(over="ignore"):
            integrate_1d_with_error(g, domain, spec)
        assert len(seen) == 2
        assert caught.value.estimate == math.inf and math.isnan(caught.value.error)

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


def _basis(x):
    """Three components for the many-job tests: smooth, a bump and a square-root cusp at 0."""
    return np.stack([np.exp(-0.3 * x) * np.cos(x), 1.0 / (1.0 + (x - 2.0) ** 2), np.sqrt(x) * np.exp(-x)])


def _other_basis(x):
    """Two components of a second basis: a shifted bump and a square-root cusp at 0 under a log."""
    return np.stack([np.exp(-((x - 1.0) ** 2)), np.log1p(np.sqrt(x))])


def _lone(job, spec):
    """("value", v, err), ("nonconvergence", estimate, err) or ("not finite", message) of one job run alone."""
    component, weight, domain, *own = job
    basis = own[0] if own else _basis
    try:
        return _outcome(integrate_1d_with_error, lambda x: basis(x)[component] * weight(x), domain, spec)
    except ValueError as err:
        return ("not finite", str(err))


def _batch(jobs, spec):
    """The many-job call, its outcomes in the form of _lone, or the one it raises."""
    try:
        return [("value", *r) for r in integrate_1d_with_error(_basis, list(jobs), spec)]
    except NonConvergence as err:
        return ("nonconvergence", err.estimate, err.error)
    except ValueError as err:
        return ("not finite", str(err))


def _bits(outcome):
    return [tuple(v.hex() if isinstance(v, float) else v for v in o) for o in outcome]


SMOOTH = np.cos
SINGULAR = Homogeneous(0.1).value  # u^-0.9: an endpoint chain at 0
STEEP = lambda x: np.exp(-8.0 * x)
NOT_FINITE = lambda x: np.where(np.abs(x - 0.7) < 0.2, np.nan, 1.0)
OSCILLATORY = lambda x: np.sin(50.0 * x)
MANY_JOBS = [
    (0, SMOOTH, (0.0, 5.0)),
    (1, SMOOTH, (0.0, 5.0)),
    (2, SINGULAR, (0.0, 5.0)),
    (0, SINGULAR, (0.0, 1.0)),
    (1, STEEP, (1.0, 5.0)),
    (2, STEEP, (0.0, 5.0)),
    (0, STEEP, (3.0, 3.0)),  # empty
    (1, SINGULAR, (0.0, 5.0)),
]


class TestManyJobs:
    def test_every_job_has_the_bits_of_its_lone_run(self):
        spec = QuadratureSpec()
        assert _bits(_batch(MANY_JOBS, spec)) == _bits([_lone(job, spec) for job in MANY_JOBS])
        assert integrate_1d_with_error(_basis, [], spec) == []

    def test_one_basis_call_per_round(self):
        # every live job has one request per round, so there are as many
        # rounds as the longest lone run has integrand calls, and shared
        # requests are evaluated once
        spec = QuadratureSpec()
        basis, rounds = _counted(_basis)
        integrate_1d_with_error(basis, MANY_JOBS, spec)
        longest = 0
        for component, weight, domain in MANY_JOBS:
            f, calls = _counted(lambda x: _basis(x)[component] * weight(x))
            integrate_1d_with_error(f, domain, spec)
            longest = max(longest, len(calls))
        assert len(rounds) == longest
        assert len(rounds[0]) == 3 * _INITIAL_PANELS * 15  # three distinct domains

    def test_a_non_finite_job_raises_as_alone(self):
        spec = QuadratureSpec()
        lone = _lone((1, NOT_FINITE, (0.0, 5.0)), spec)
        assert lone[0] == "not finite"
        assert _batch([MANY_JOBS[0], (1, NOT_FINITE, (0.0, 5.0)), MANY_JOBS[2]], spec) == lone

    def test_a_job_out_of_budget_raises_its_own_nonconvergence(self):
        spec = QuadratureSpec(max_subdivisions=60)
        lone = _lone((0, OSCILLATORY, (0.0, 30.0)), spec)
        assert lone[0] == "nonconvergence"
        jobs = [MANY_JOBS[1], (0, OSCILLATORY, (0.0, 30.0)), MANY_JOBS[4]]
        assert _bits([_batch(jobs, spec)]) == _bits([lone])

    def test_the_first_failing_job_in_list_order_raises(self):
        # the non-finite job fails in the first round, the oscillatory one
        # only when its budget is spent; the one listed first raises, as in
        # a loop of lone runs
        spec = QuadratureSpec(max_subdivisions=60)
        late, early = (0, OSCILLATORY, (0.0, 30.0)), (1, NOT_FINITE, (0.0, 5.0))
        assert _batch([late, early], spec) == _lone(late, spec)
        assert _batch([early, late], spec) == _lone(early, spec)

    def test_jobs_naming_their_own_basis_have_the_bits_of_their_lone_runs(self):
        spec = QuadratureSpec()
        own = [
            (0, SMOOTH, (0.0, 5.0), _other_basis),
            (1, SINGULAR, (0.0, 5.0), _other_basis),
            (1, STEEP, (0.0, 2.0), _other_basis),
        ]
        jobs = MANY_JOBS[:3] + own + MANY_JOBS[3:]
        assert _bits(_batch(jobs, spec)) == _bits([_lone(job, spec) for job in jobs])
        # with every job naming its basis, the call needs no shared one
        alone = [integrate_1d_with_error(None, [job], spec)[0] for job in own]
        assert integrate_1d_with_error(None, own, spec) == alone

    def test_each_basis_and_weight_once_per_round(self):
        # a round calls the bases, then the weights; none of them twice
        events = []

        def logged(name, f):
            return lambda x: events.append(name) or f(x)

        weights = {name: logged(name, w) for name, w in (("smooth", SMOOTH), ("singular", SINGULAR), ("steep", STEEP))}
        other = logged("other", _other_basis)
        jobs = [
            (0, weights["smooth"], (0.0, 5.0)),
            (2, weights["singular"], (0.0, 5.0)),
            (1, weights["steep"], (1.0, 5.0)),
            (0, weights["smooth"], (0.0, 5.0), other),
            (1, weights["singular"], (0.0, 1.0), other),
        ]
        integrate_1d_with_error(logged("basis", _basis), jobs, QuadratureSpec())
        rounds = [[]]
        for name in events:
            if name in ("basis", "other") and rounds[-1] and rounds[-1][-1] not in ("basis", "other"):
                rounds.append([])
            rounds[-1].append(name)
        assert rounds[0] == ["basis", "other", "smooth", "singular", "steep"]
        assert all(len(set(r)) == len(r) for r in rounds)
        assert len(rounds) > 5

    def test_basis_of_one_component_rejected(self):
        with pytest.raises(ValueError, match=r"\(k, m\)"):
            integrate_1d_with_error(np.exp, [(0, SMOOTH, (0.0, 1.0))])


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

    def test_within_16_ulp_of_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        rng = numpy_stream(16, 1)
        x = np.concatenate([[0.0, 0.46875, 4.0, 1e3], rng.uniform(0.0, 5.0, 60_000), rng.uniform(0.0, 1e3, 20_000),
                            np.geomspace(1e-12, 1e3, 20_000)])
        ours, ref = erfcx(x), scipy_special.erfcx(x)
        assert np.all(np.abs(ours - ref) <= 16 * np.spacing(ref))
        # unsorted and two-dimensional input give the same values elementwise
        order = rng.permutation(len(x))
        assert np.array_equal(erfcx(x[order]), ours[order])
        assert np.array_equal(erfcx(x[:100_000].reshape(400, 250)), ours[:100_000].reshape(400, 250))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            erfcx(np.array([1.0, -0.5]))

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
        # bisection closes in on the jump, where |f| stays 1
        with pytest.raises(NonConvergence):
            find_root(lambda x: -1.0 if x < 0.3 else 1.0, (0.0, 1.0))

    def test_root_at_an_end_of_the_bracket(self):
        assert find_root(lambda x: x - 1.0, (1.0, 2.0)) == 1.0
        assert find_root(lambda x: x - 2.0, (1.0, 2.0)) == 2.0

    def test_tiny_values_of_one_sign_are_no_bracket(self):
        # f(0) * f(1) underflows to 0, but f has no root on [0, 1]
        with pytest.raises(NoBracket):
            find_root(lambda x: 1e-200 + 1e-210 * x, (0.0, 1.0))

    def test_nan_inside_the_bracket_raises(self):
        f = lambda x: -1.0 if x == 0.0 else 1.0 if x == 1.0 else math.nan
        with pytest.raises(NonConvergence, match="NaN"):
            find_root(f, (0.0, 1.0))


def assert_bisection_root(f, root):
    """f(root) == 0, or root ends an ulp bracket over a sign change with the smaller |f| of its two ends."""
    froot = f(root)
    if froot == 0.0:
        return
    for other in (math.nextafter(root, -math.inf), math.nextafter(root, math.inf)):
        fother = f(other)
        if froot < 0.0 < fother or fother < 0.0 < froot:
            assert abs(froot) <= abs(fother)
            return
    raise AssertionError(f"f does not change sign across either ulp next to {root!r}")


class TestBisection:
    """find_root stops at two adjacent doubles, within brentq's own stopping width of its root."""

    @staticmethod
    def assert_near_brentq(f, lo, hi, root):
        import scipy.optimize  # the reference only; the package does not load it

        reference = scipy.optimize.brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)
        assert abs(root - reference) <= 2 * (1e-15 + 8.9e-16 * abs(reference))

    def test_default_kappa_targets(self):
        from lieboxford.cli import DEFAULT_CONFIG
        from lieboxford.hubbard import kappa_of_u, lieb_wu_energy

        for ratio in DEFAULT_CONFIG["hubbard"]["u_over_t"]:
            target = lieb_wu_energy(ratio)
            g = lambda k: -(2 * k / math.pi) * math.sin(math.pi / k) - target
            kappa = kappa_of_u(ratio)
            assert_bisection_root(g, kappa)
            self.assert_near_brentq(g, 1.0, 2.0, kappa)

    def test_random_brackets(self):
        rng = rng_stream(11, 0)
        families = [
            lambda c: (lambda x: x**3 - 2 * x - c),
            lambda c: (lambda x: math.sin(3 * x) - c / 4),
            lambda c: (lambda x: math.expm1(x) - c),
            lambda c: (lambda x: 1e-9 * math.atan(x - c / 2)),
            lambda c: (lambda x: math.tanh(20 * (x - c / 3))),
        ]
        checked = compared = 0
        for i in range(600):
            f = families[i % len(families)](float(rng.uniform(-2.0, 2.0)))
            lo, hi = sorted(float(v) for v in rng.uniform(-3.0, 3.0, 2))
            if f(lo) * f(hi) >= 0:
                continue
            root = find_root(f, (lo, hi), tol=math.inf)
            assert lo <= root <= hi
            assert_bisection_root(f, root)
            # where f changes sign more than once, the two may stop at different roots
            signs = np.sign([f(x) for x in np.linspace(lo, hi, 1001)])
            if np.count_nonzero(signs[1:] != signs[:-1]) == 1:
                self.assert_near_brentq(f, lo, hi, root)
                compared += 1
            checked += 1
        assert checked >= 200 and compared >= 200

    def test_converges_where_brentq_stops(self):
        # (x - 0.3)^5 has no simple root, and brentq stops after 100 iterations
        import scipy.optimize

        f = lambda x: (x - 0.3) ** 5
        with pytest.raises(RuntimeError):
            scipy.optimize.brentq(f, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
        root = find_root(f, (0.0, 1.0), tol=math.inf)
        assert_bisection_root(f, root)
        assert abs(root - 0.3) <= math.ulp(0.3)


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
        a = rng_stream(42, 1).uniform(size=4)
        b = rng_stream(42, 1).uniform(size=4)
        c = rng_stream(42, 2).uniform(size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


# Seeds at the word boundaries of SeedSequence's entropy and far past them,
# and spawn keys of 0-3 words, some of two or three words themselves.
_SEEDS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**100]), st.integers(0, 2**100))
_KEYS = st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)), max_size=3)
# A call: scalar or vector uniform, integers(n) with n up to 2^31 + 7 (where
# Lemire's rejection redraws often) and the occupation count integers(1, 13).
_CALLS = st.one_of(
    st.tuples(st.just("uniform")),
    st.tuples(st.just("uniform"), st.floats(-10, 10), st.floats(0.5, 10)),
    st.tuples(st.just("uniform_size"), st.floats(-10, 10), st.floats(0.5, 10), st.integers(0, 12)),
    st.tuples(st.just("integers"), st.one_of(st.sampled_from([1, 7, 2**31 + 7]), st.integers(1, 2**31 + 7))),
    st.tuples(st.just("integers"), st.just(1), st.just(13)),
)


def _call(stream, call):
    """One call of a stream: a float, an int or a float64 array's bytes."""
    name, *args = call
    if name == "uniform_size":
        low, span, size = args
        return stream.uniform(low, low + span, size).tobytes()
    if name == "uniform" and args:
        low, span = args
        return stream.uniform(low, low + span)
    return getattr(stream, name)(*args)


class TestRngStream:
    """rng_stream is numpy's Generator(PCG64(SeedSequence(seed, spawn_key=key))) for the package's draws."""

    @settings(max_examples=150, deadline=None)
    @given(seed=_SEEDS, key=_KEYS, calls=st.lists(_CALLS, max_size=25))
    def test_equals_numpy_generator(self, seed, key, calls):
        ours, ref = rng_stream(seed, *key), numpy_stream(seed, *key)
        for call in calls:
            mine, theirs = _call(ours, call), _call(ref, call)
            assert mine == theirs
            # numpy's integers gives an np.int64, the package's stream an int
            assert type(mine) is (int if isinstance(theirs, np.integer) else type(theirs))

    @settings(max_examples=60, deadline=None)
    @given(seed=_SEEDS, key=_KEYS)
    def test_raw_words_equal_pcg64(self, seed, key):
        ours = rng_stream(seed, *key)
        raw = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)).random_raw(8)
        assert [ours._next64() for _ in range(8)] == raw.tolist()

    def test_rejection_heavy_integers(self):
        # at 2^31 + 7 about half the 32-bit draws are rejected
        ours, ref = rng_stream(5, 1), numpy_stream(5, 1)
        assert [ours.integers(2**31 + 7) for _ in range(2000)] == ref.integers(2**31 + 7, size=2000).tolist()

    def test_cli_streams_pinned(self):
        # the first draws at the streams of the default subcommands (seed
        # 20240801): the suite's key 0, maximal's key 3, hubbard's key 7 and
        # optimize's restarts 0 and 1 of its three searches; fixed values, so
        # a change in numpy cannot move them unseen
        seed = 20240801
        suite = rng_stream(seed, 0)
        assert suite.integers(7) == 6
        assert suite.uniform(math.log10(0.3), math.log10(3.0)) == -0.1920384235144973
        assert suite.uniform(-1.0, 1.0) == -0.5904974680114887
        assert rng_stream(seed, 3).uniform(0.1, 3, 4).tolist() == [
            1.9223569683386779, 2.4562859324995427, 1.5133424975268897, 0.7642126579492553,
        ]
        hubbard = rng_stream(seed, 7)
        assert hubbard.integers(1, 13) == 6
        assert hubbard.uniform(0, 2, size=6).tolist() == [
            1.16244307638886, 0.2968474211073149, 1.3998724982935489,
            0.9774629908146475, 0.33640289600636186, 1.3925144599515031,
        ]
        assert (hubbard.uniform(0, 8), hubbard.uniform(1, 2)) == (0.0029976542816294582, 1.5788685881053943)
        restarts = {
            (seed, 0): [0.692004430783008, 0.33084032176584033, 0.20475126599425564],
            (seed, 1): [0.6476335803384288, 0.4568727072962817, 0.5706778019839626],
            (seed + 1, 0): [0.2307711993711722, 0.9322093087369799, 0.4242574410899589],
            (seed + 1, 1): [0.9411646435399199, 0.12599935148083719, 0.411659061731088],
            (seed + 2, 0): [0.8676548254803372, 0.6654789943255698, 0.722802311350504],
            (seed + 2, 1): [0.3243499051650044, 0.33881894186574757, 0.40998718964764325],
        }
        for (search_seed, restart), values in restarts.items():
            assert rng_stream(search_seed, restart).uniform(size=3).tolist() == values

    def test_rejects_a_negative_seed_or_empty_range(self):
        with pytest.raises(ValueError):
            rng_stream(-1)
        with pytest.raises(ValueError):
            rng_stream(1, -2)
        with pytest.raises(ValueError):
            rng_stream(1).integers(3, 3)
