import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from lieboxford.cli import DEFAULT_CONFIG
from lieboxford.energies import _separation_grid
from lieboxford.numerics import Interval, QuadratureSpec, integrate_1d, rng_stream
from lieboxford.states import (
    CorrelatedGaussianPair,
    DensityProfile,
    GaussianProduct,
    HermiteSlater,
    NormalizationDrift,
    UniformGrid,
    _HERMITE_RULE,
    density,
    density_power_integral,
    maximal_function,
    maximal_norm_ratio,
    maximal_operator_norm_bound,
    random_state_suite,
)
from oracles import correlation, maximal_function_full_scan, rho2_direct


def uniform_profile(value=2.0, lo=0.0, hi=1.0, n=1001):
    grid = UniformGrid(lo, (hi - lo) / (n - 1), n)
    return DensityProfile(grid, np.full(n, float(value)), value * (hi - lo))


class TestDensity:
    def test_product_state_marginal(self):
        # both orbitals phi with phi^2 the standard normal density
        s = GaussianProduct((0.0, 0.0), 1.0, "symmetric")
        prof = density(s)
        pdf = np.exp(-prof.x**2 / 2) / math.sqrt(2 * math.pi)
        assert np.allclose(prof.values, 2 * pdf, atol=1e-12)

    def test_hermite_slater_density_is_orbital_sum(self):
        s = HermiteSlater(2, 1.3)
        x = np.linspace(-4, 4, 31)
        h0 = math.pi**-0.25 / math.sqrt(1.3) * np.exp(-((x / 1.3) ** 2) / 2)
        h1 = math.pi**-0.25 / math.sqrt(2 * 1.3) * 2 * (x / 1.3) * np.exp(-((x / 1.3) ** 2) / 2)
        assert np.allclose(s.rho(x), h0**2 + h1**2, atol=1e-12)

    @pytest.mark.parametrize(
        "state",
        [
            GaussianProduct((0.3, -0.9), 0.7, "symmetric"),
            GaussianProduct((0.5, -0.5), 1.1, "antisymmetric"),
            GaussianProduct((-2.0, 0.0, 1.5), 0.9, "antisymmetric"),
            GaussianProduct((-1.0, 0.2, 1.1), 0.8, "symmetric"),
            HermiteSlater(3, 0.6),
            CorrelatedGaussianPair(1.2, 0.6, 0.4),
        ],
    )
    def test_mass_equals_particle_number(self, state):
        prof = density(state)
        assert prof.mass() == pytest.approx(state.n_particles, rel=1e-9)
        assert np.all(prof.values >= 0)

    def test_pair_density_mass(self):
        state = GaussianProduct((-1.0, 0.5, 1.8), 0.8, "antisymmetric")
        g = state.default_grid(801)
        r2 = state.rho2(g.x[:, None], g.x[None, :])
        mass = np.trapezoid(np.trapezoid(r2, dx=g.dx), dx=g.dx)
        n = state.n_particles
        assert mass == pytest.approx(n * (n - 1), rel=1e-8)

    def test_normalization_drift_detected(self):
        s = GaussianProduct((0.0, 0.0), 1.0)
        small = UniformGrid(-2.0, 0.01, 401)  # grid misses the tails
        with pytest.raises(NormalizationDrift):
            density(s, small)

    def test_antisymmetric_vanishes_on_diagonal(self):
        for state in (
            GaussianProduct((-0.7, 0.9), 1.0, "antisymmetric"),
            HermiteSlater(2, 0.8),
        ):
            x = np.linspace(-5, 5, 100)
            assert np.max(np.abs(state.psi(x, x))) <= 1e-12
            assert np.max(np.abs(state.rho2(x, x))) <= 1e-12

    def test_psi_normalized(self):
        state = GaussianProduct((-0.8, 0.8), 0.9, "antisymmetric")
        g = state.default_grid(901)
        psi2 = state.psi(g.x[:, None], g.x[None, :]) ** 2
        norm = np.trapezoid(np.trapezoid(psi2, dx=g.dx), dx=g.dx)
        assert norm == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_antisymmetric_rejected(self):
        with pytest.raises(ValueError):
            GaussianProduct((0.5, 0.5), 1.0, "antisymmetric")

    def test_translation_moves_density(self):
        s = CorrelatedGaussianPair(1.0, 0.5, 0.7)
        t = s.translated(2.5)
        x = np.linspace(-3, 3, 21)
        assert np.allclose(s.rho(x), t.rho(x + 2.5), atol=1e-13)

    def test_dilation_scales_density(self):
        s = GaussianProduct((-0.5, 1.0), 0.8, "symmetric")
        lam = 2.0
        d = s.dilated(lam)
        x = np.linspace(-3, 3, 21)
        assert np.allclose(d.rho(x), lam * s.rho(lam * x), rtol=1e-12)


ORBITAL_STATES = [
    GaussianProduct((0.3, -0.9), 0.7, "symmetric"),
    GaussianProduct((0.5, -0.5), 1.1, "antisymmetric"),
    GaussianProduct((-1.0, 0.2, 1.1), 0.8, "symmetric"),
    GaussianProduct((-2.0, 0.0, 1.5), 0.9, "antisymmetric"),
    HermiteSlater(2, 0.8, "antisymmetric", 0.4),
    HermiteSlater(3, 1.3, "symmetric", -0.2),
    HermiteSlater(3, 0.6),
]


def _call_shapes(state):
    """(x, y) pairs in both shapes in use: u nodes x one panel, and a square grid."""
    box = state.support
    y = np.linspace(box.lo, box.hi, 15)[None, :]
    u = np.linspace(0.0, box.hi - box.lo, 301)[:, None]
    g = np.linspace(box.lo, box.hi, 201)
    return [(y + u, y), (g[:, None], g[None, :])]


class TestPairDensityKernel:
    @pytest.mark.parametrize("state", ORBITAL_STATES, ids=repr)
    def test_matches_direct_contraction(self, state):
        for x, y in _call_shapes(state):
            direct = rho2_direct(state, x, y)
            fast = state.rho2(x, y)
            assert fast.shape == direct.shape
            assert np.max(np.abs(fast - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_pairs_first_index_pair_with_x(self):
        # physical W2 is symmetric under (a,b) <-> (c,d), so rho2(x,y) = rho2(y,x)
        # and a contraction with the roles of x and y swapped would agree with
        # it; a random weight tensor tells the two roles apart
        state = GaussianProduct((-1.0, 0.2, 1.1), 0.8, "antisymmetric")
        weights = rng_stream(11, 0).normal(size=(3, 3, 3, 3))
        vars(state)["_tables"] = state._tables[:3] + (weights,)
        for x, y in _call_shapes(state):
            direct = rho2_direct(state, x, y)
            assert np.max(np.abs(state.rho2(x, y) - direct)) <= 1e-13 * np.max(np.abs(direct))
            assert np.max(np.abs(rho2_direct(state, y, x) - direct)) > 1e-3 * np.max(np.abs(direct))

    @pytest.mark.parametrize("width, center", [(1.0, 0.0), (0.45, 1.7)])
    def test_hermite_recurrence_matches_scipy(self, width, center):
        x = np.linspace(center - 8 * width, center + 8 * width, 1001)
        u = (x - center) / width
        env = np.exp(-(u**2) / 2)
        phi = HermiteSlater(3, width, center=center)._orbital_values(x)
        for k in range(3):
            norm = (math.pi**-0.25) / math.sqrt(2.0**k * math.factorial(k) * width)
            expected = norm * scipy.special.eval_hermite(k, u) * env
            assert np.max(np.abs(phi[k] - expected)) <= 1e-13 * np.max(np.abs(expected))


CORRELATION_STATES = [
    GaussianProduct((0.0, 0.0), 1.0, "symmetric"),
    GaussianProduct((-0.8, 0.8), 0.9, "antisymmetric"),
    GaussianProduct((-1.0, 0.3, 2.5), 0.7, "antisymmetric"),
    GaussianProduct((1.5, 2.0, 3.2), 0.6, "symmetric"),
    GaussianProduct((-6.0, 7.0), 0.5, "symmetric"),  # widely separated centers
    HermiteSlater(2, 1.3),
    HermiteSlater(2, 0.8, "symmetric", 0.4),
    HermiteSlater(3, 1.0),
    HermiteSlater(3, 0.8, "symmetric", 2.0),
    CorrelatedGaussianPair(1.0, 0.9, 0.3, 1.5),  # hole depth 0.9, off center
    CorrelatedGaussianPair(0.7),
]


@st.composite
def trial_states(draw):
    """A state of any family, N in {2, 3}, both symmetries, anywhere on the line."""
    width = draw(st.floats(0.3, 2.0))
    center = draw(st.floats(-3.0, 3.0))
    family = draw(st.sampled_from(["gaussian", "hermite", "pair"]))
    if family == "pair":
        return CorrelatedGaussianPair(width, draw(st.floats(0.0, 0.95)), draw(st.floats(0.1, 2.0)), center)
    n = draw(st.sampled_from([2, 3]))
    symmetry = draw(st.sampled_from(["symmetric", "antisymmetric"]))
    if family == "hermite":
        return HermiteSlater(n, width, symmetry, center)
    # gaps of at least half a width keep an antisymmetric product far from zero norm
    gaps = draw(st.lists(st.floats(0.5, 4.0), min_size=n - 1, max_size=n - 1))
    centers = center + width * np.concatenate([[0.0], np.cumsum(gaps)])
    return GaussianProduct(tuple(centers), width, symmetry)


def _separation_nodes(state):
    return _separation_grid(state, state.support.hi - state.support.lo)


class TestCorrelations:
    def test_hermite_rule_is_numpys(self):
        for ours, numpys in zip(_HERMITE_RULE, np.polynomial.hermite.hermgauss(5)):
            assert np.max(np.abs(ours - numpys)) <= 1e-15

    @pytest.mark.parametrize("state", CORRELATION_STATES, ids=repr)
    def test_matches_quadrature_oracle(self, state):
        u = _separation_nodes(state)
        for closed, pair in zip(state.correlations(u), (True, False)):
            sampled = correlation(state, QuadratureSpec(), pair)(u)
            assert closed.shape == u.shape
            assert np.max(np.abs(closed - sampled)) <= 1e-11 * np.max(np.abs(sampled))

    @settings(max_examples=40, deadline=None)
    @given(trial_states())
    def test_sum_rules(self, state):
        # h and C are even: 2 int_0^inf h = N(N-1), 2 int_0^inf C = N^2
        span = Interval(0.0, state.support.hi - state.support.lo)
        n = state.n_particles
        mass = integrate_1d(lambda u: np.stack(state.correlations(u)), span, QuadratureSpec())
        assert 2 * mass[0] == pytest.approx(n * (n - 1), rel=1e-8)
        assert 2 * mass[1] == pytest.approx(n * n, rel=1e-8)

    # The moved or dilated state rebuilds its overlap tables from rounded
    # centers, and a near-degenerate determinant amplifies that rounding:
    # 2e-10 of the maximum at N = 3 with both gaps half a width.
    @settings(max_examples=40, deadline=None)
    @given(trial_states(), st.floats(-5.0, 5.0))
    def test_translation_invariance(self, state, delta):
        u = _separation_nodes(state)
        for base, moved in zip(state.correlations(u), state.translated(delta).correlations(u)):
            assert np.max(np.abs(moved - base)) <= 1e-9 * np.max(np.abs(base))

    @settings(max_examples=40, deadline=None)
    @given(trial_states(), st.floats(0.25, 4.0))
    def test_dilation_scaling(self, state, lam):
        # density lam rho(lam x) gives h_lam(u) = lam h(lam u), C_lam(u) = lam C(lam u)
        u = _separation_nodes(state) / lam
        scaled = state.dilated(lam).correlations(u)
        for base, dilated in zip(state.correlations(lam * u), scaled):
            assert np.max(np.abs(dilated - lam * base)) <= 1e-9 * lam * np.max(np.abs(base))


class TestPowerIntegrals:
    def test_uniform_profile(self):
        prof = uniform_profile(2.0)
        assert density_power_integral(prof, 2.0) == pytest.approx(4.0, rel=1e-12)

    def test_gaussian_profile_anchor(self):
        prof = density(GaussianProduct((0.0, 0.0), 1.0))
        # rho = 2 phi^2: int rho^2 = 4 int pdf^2 = 2/sqrt(pi)
        assert density_power_integral(prof, 2.0) == pytest.approx(2 / math.sqrt(math.pi), rel=1e-9)

    def test_p_one_recovers_mass(self):
        prof = density(HermiteSlater(3, 1.1))
        assert density_power_integral(prof, 1.0) == pytest.approx(3.0, rel=1e-9)

    def test_scaling_relation(self):
        # rho_lam(x) = lam rho(lam x) has int rho^2 scaled by lam
        rng = rng_stream(3, 1)
        s = GaussianProduct((-0.4, 0.9), 1.2, "symmetric")
        base = density_power_integral(density(s), 2.0)
        for lam in rng.uniform(0.1, 10.0, size=5):
            val = density_power_integral(density(s.dilated(lam)), 2.0)
            assert val == pytest.approx(lam * base, rel=1e-8)

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            density_power_integral(uniform_profile(), 0.5)


def _grid_profile(values, x0=-5.0, dx=0.02):
    values = np.asarray(values, dtype=float)
    grid = UniformGrid(x0, dx, len(values))
    return DensityProfile(grid, values, float(np.trapezoid(values, dx=dx)))


def _spike():
    vals = np.zeros(501)
    vals[250] = 1.0
    return _grid_profile(vals)


def _two_far_spikes():
    vals = np.zeros(1024)
    vals[3], vals[1020] = 5.0, 1e-3
    return _grid_profile(vals)


def _plateau():
    vals = np.zeros(600)
    vals[200:400] = 0.7
    return _grid_profile(vals)


def _indicator():
    # [0, 1] on [-8, 9]: most points sit far outside the support
    dx = 1e-2
    grid = UniformGrid(-8.0, dx, int(round(17 / dx)) + 1)
    vals = ((grid.x >= -1e-12) & (grid.x <= 1 + 1e-12)).astype(float)
    return DensityProfile(grid, vals, 1.0)


def _one_sided():
    # zero up to j0 = 300, then a ramp up to the right end of the grid
    x = np.arange(700)
    return _grid_profile(np.where(x >= 300, 0.01 * (x - 299), 0.0))


def _bump_profiles(rng, count):
    # four random Gaussian bumps on 1024 points, drawn as `lieboxford maximal` draws them
    grid = UniformGrid(-10.0, 20.0 / 1023, 1024)
    out = []
    for _ in range(count):
        bumps = sum(
            a * np.exp(-((grid.x - c) ** 2) / (2 * w**2))
            for a, c, w in zip(rng.uniform(0.1, 3, 4), rng.uniform(-6, 6, 4), rng.uniform(0.2, 2, 4))
        )
        out.append(DensityProfile(grid, bumps, float(np.trapezoid(bumps, dx=grid.dx))))
    return out


def _default_maximal_profile(k):
    # profile k of `lieboxford maximal` at the default seed
    return _bump_profiles(rng_stream(DEFAULT_CONFIG["seed"], 3), k + 1)[k]


CUTOFF_PROFILES = {
    "spike": _spike,
    "two_far_spikes": _two_far_spikes,
    "plateau": _plateau,
    "ones": lambda: _grid_profile(np.ones(400)),
    "indicator_wide_grid": _indicator,
    "one_sided": _one_sided,
    "two_point_grid": lambda: _grid_profile([1.0, 3.0], x0=0.0, dx=1.0),
    "all_zero": lambda: _grid_profile(np.zeros(64)),
    **{f"default_{k}": (lambda k=k: _default_maximal_profile(k)) for k in range(5)},
}


def brute_force_maximal(profile, i, n_r=20000):
    """Dense-radius oracle for the window average supremum at grid point i."""
    x = profile.x
    xi = x[i]
    dx = profile.grid.dx
    vals = profile.values
    cum = np.concatenate([[0.0], np.cumsum(0.5 * dx * (vals[1:] + vals[:-1]))])

    def interp_cum(t):
        t = np.clip(t, x[0], x[-1])
        j = np.clip(((t - x[0]) / dx).astype(int), 0, len(x) - 2)
        frac = t - x[j]
        rho_t = vals[j] + (vals[j + 1] - vals[j]) * frac / dx
        return cum[j] + 0.5 * frac * (vals[j] + rho_t)

    span = (x[-1] - x[0]) * 1.2
    r = np.geomspace(dx * 1e-4, span, n_r)
    avg = (interp_cum(xi + r) - interp_cum(xi - r)) / (2 * r)
    return max(float(vals[i]), float(avg.max()))


class TestMaximalFunction:
    def test_exceeds_density_pointwise(self):
        prof = density(CorrelatedGaussianPair(0.9, 0.4, 0.6), n=1024)
        m = maximal_function(prof)
        assert np.all(m.values >= prof.values - 1e-13)

    def test_positively_homogeneous(self):
        prof = density(GaussianProduct((0.0, 1.0), 0.8), n=1024)
        m1 = maximal_function(prof)
        m3 = maximal_function(prof.scaled(3.0))
        assert np.allclose(m3.values, 3 * m1.values, rtol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = rng_stream(11, 4)
        grid = UniformGrid(-6.0, 12.0 / 255, 256)
        bumps = sum(
            a * np.exp(-((grid.x - c) ** 2) / (2 * w**2))
            for a, c, w in zip(rng.uniform(0.2, 2, 3), rng.uniform(-3, 3, 3), rng.uniform(0.3, 1, 3))
        )
        prof = DensityProfile(grid, bumps, float(np.trapezoid(bumps, dx=grid.dx)))
        m = maximal_function(prof)
        for i in range(0, 256, 17):
            assert m.values[i] == pytest.approx(brute_force_maximal(prof, i), rel=5e-4)
            assert m.values[i] >= brute_force_maximal(prof, i) - 1e-12  # exact sup dominates sampling

    def test_indicator_analytic_values(self):
        # M of the indicator of [0,1]: 1 inside, 1/(2x) for x >= 1, 1/(2(1-x)) left
        dx = 1e-3
        grid = UniformGrid(-8.0, dx, int(round(17 / dx)) + 1)
        vals = ((grid.x >= -1e-12) & (grid.x <= 1 + 1e-12)).astype(float)
        prof = DensityProfile(grid, vals, 1.0)
        m = maximal_function(prof)
        for xi, expect in ((0.5, 1.0), (2.0, 1 / 4), (5.0, 1 / 10), (-3.0, 1 / 8)):
            i = int(round((xi + 8.0) / dx))
            assert m.values[i] == pytest.approx(expect, rel=2e-3)

    def test_constant_on_support_ratio_at_least_one(self):
        prof = uniform_profile(1.5)
        ratio = maximal_norm_ratio(prof, 2.0)
        assert ratio >= 1.0

    def test_norm_bound_value(self):
        assert maximal_operator_norm_bound(2.0) == pytest.approx(4.0)
        # no 2^p intermediate: finite, and near its limit 2, at large p
        assert maximal_operator_norm_bound(1e6) == pytest.approx(2.0, rel=1e-5)
        with pytest.raises(ValueError):
            maximal_operator_norm_bound(1.0)

    def test_random_profiles_within_l2_bound(self):
        for prof in _bump_profiles(rng_stream(5, 9), 20):
            assert maximal_norm_ratio(prof, 2.0) <= 4.0

    def test_zero_profile(self):
        grid = UniformGrid(0.0, 0.1, 32)
        prof = DensityProfile(grid, np.zeros(32), 0.0)
        assert np.all(maximal_function(prof).values == 0.0)

    @pytest.mark.parametrize("name", sorted(CUTOFF_PROFILES))
    def test_bit_identical_to_full_scan(self, name):
        # the radius cutoff and the blocking may drop only radii that cannot win
        prof = CUTOFF_PROFILES[name]()
        assert np.array_equal(maximal_function(prof).values, maximal_function_full_scan(prof).values)


class TestRandomSuite:
    def test_deterministic(self):
        a = random_state_suite(12, 77)
        b = random_state_suite(12, 77)
        assert [repr(s) for _, s in a] == [repr(s) for _, s in b]
        assert [sid for sid, _ in a] == [f"s{k:03d}" for k in range(12)]

    def test_mix_and_validity(self):
        suite = random_state_suite(40, 3)
        ns = {s.n_particles for _, s in suite}
        syms = {s.symmetry for _, s in suite}
        assert ns == {2, 3}
        assert syms == {"symmetric", "antisymmetric"}
        for _, s in suite[:10]:
            assert density(s).mass() == pytest.approx(s.n_particles, rel=1e-8)
