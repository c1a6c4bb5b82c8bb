import itertools
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from lieboxford import states
from lieboxford.cli import DEFAULT_CONFIG
from lieboxford.numerics import Interval, QuadratureSpec, integrate_1d, rng_stream
from lieboxford.states import (
    CorrelatedGaussianPair,
    DensityProfile,
    GaussianProduct,
    HermiteSlater,
    NormalizationDrift,
    UniformGrid,
    _symmetrized_weights,
    density,
    density_power_integral,
    maximal_function,
    maximal_norm_ratio,
    maximal_operator_norm_bound,
    random_state_suite,
)
import oracles
from oracles import (
    HERMITE_RULE,
    NEAR_DEGENERATE_PRODUCT,
    correlation,
    dilated,
    gauss_hermite_correlations,
    maximal_function_full_scan,
    numpy_stream,
    orbital_psi,
    orbital_rho,
    orbital_values,
    orbital_weights,
    permutation_sign,
    rho2,
    rho2_direct,
    scaled_profile,
    translated,
)


def support_grid(state, n):
    """n points spanning the state's support (the default grid has 4096)."""
    box = state.support
    return UniformGrid(box.lo, (box.hi - box.lo) / (n - 1), n)


def uniform_profile(value=2.0, lo=0.0, hi=1.0, n=1001):
    grid = UniformGrid(lo, (hi - lo) / (n - 1), n)
    return DensityProfile(grid, np.full(n, float(value)), value * (hi - lo))


class TestDensity:
    def test_product_state_marginal(self):
        # both orbitals phi with phi^2 the standard normal density
        s = GaussianProduct((0.0, 0.0), 1.0, "symmetric")
        prof = density(s)
        pdf = np.exp(-prof.grid.x**2 / 2) / math.sqrt(2 * math.pi)
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
        g = support_grid(state, 801)
        r2 = rho2(state, g.x[:, None], g.x[None, :])
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
            assert np.max(np.abs(orbital_psi(state, x, x))) <= 1e-12
            assert np.max(np.abs(rho2(state, x, x))) <= 1e-12

    def test_psi_normalized(self):
        state = GaussianProduct((-0.8, 0.8), 0.9, "antisymmetric")
        g = support_grid(state, 901)
        psi2 = orbital_psi(state, g.x[:, None], g.x[None, :]) ** 2
        norm = np.trapezoid(np.trapezoid(psi2, dx=g.dx), dx=g.dx)
        assert norm == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_antisymmetric_rejected(self):
        with pytest.raises(ValueError):
            GaussianProduct((0.5, 0.5), 1.0, "antisymmetric")

    def test_translation_moves_density(self):
        s = CorrelatedGaussianPair(1.0, 0.5, 0.7)
        t = translated(s, 2.5)
        x = np.linspace(-3, 3, 21)
        assert np.allclose(s.rho(x), t.rho(x + 2.5), atol=1e-13)

    def test_dilation_scales_density(self):
        s = GaussianProduct((-0.5, 1.0), 0.8, "symmetric")
        lam = 2.0
        d = dilated(s, lam)
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
            fast = rho2(state, x, y)
            assert fast.shape == direct.shape
            assert np.max(np.abs(fast - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_pairs_first_index_pair_with_x(self, monkeypatch):
        # physical W2 is symmetric under (a,b) <-> (c,d), so rho2(x,y) = rho2(y,x)
        # and a contraction with the roles of x and y swapped would agree with
        # it; a random weight tensor tells the two roles apart
        state = GaussianProduct((-1.0, 0.2, 1.1), 0.8, "antisymmetric")
        weights = numpy_stream(11, 0).normal(size=(3, 3, 3, 3))
        norm, w1, _ = orbital_weights(state)
        monkeypatch.setattr(oracles, "orbital_weights", lambda _: (norm, w1, weights))
        for x, y in _call_shapes(state):
            direct = rho2_direct(state, x, y)
            assert np.max(np.abs(rho2(state, x, y) - direct)) <= 1e-13 * np.max(np.abs(direct))
            assert np.max(np.abs(rho2_direct(state, y, x) - direct)) > 1e-3 * np.max(np.abs(direct))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_permutation_signs_are_the_determinants(self, n):
        # with S the matrix of one permutation p, only the pairs (s, p s) survive,
        # each weighted by its two signs: the norm is n! det(S) exactly when the
        # sign of every permutation is its determinant (else it is off by 2 or 4)
        for perm in itertools.permutations(range(n)):
            matrix = np.eye(n)[list(perm)]
            if permutation_sign(perm) > 0:
                assert _symmetrized_weights(matrix, "antisymmetric")[0] == math.factorial(n)
            else:  # a norm of -n!
                with pytest.raises(ValueError, match="zero norm"):
                    _symmetrized_weights(matrix, "antisymmetric")
        # on a generic overlap matrix: norm n! det S, W1 = S^-T, and W2 its 2x2 minors
        a = numpy_stream(5, n).normal(size=(n, n))
        overlap = a @ a.T + n * np.eye(n)
        norm, w1, w2 = _symmetrized_weights(overlap, "antisymmetric")
        inv = np.linalg.inv(overlap)
        assert norm == pytest.approx(math.factorial(n) * np.linalg.det(overlap), rel=1e-12)
        np.testing.assert_allclose(w1, inv.T, rtol=0, atol=1e-13)
        minors = np.einsum("ba,dc->abcd", inv, inv) - np.einsum("da,bc->abcd", inv, inv)
        np.testing.assert_allclose(w2, minors, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("width, center", [(1.0, 0.0), (0.45, 1.7)])
    def test_hermite_recurrence_matches_scipy(self, width, center):
        x = np.linspace(center - 8 * width, center + 8 * width, 1001)
        u = (x - center) / width
        env = np.exp(-(u**2) / 2)
        phi = orbital_values(HermiteSlater(3, width, center=center), x)
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
    """1,001 u nodes on [0, 10 L], L = grid_halfwidth / 12, then a coarse tail to the span.

    L is a fixed fraction of the support on every kind, so each kind gets the
    same nodes per unit of its support.
    """
    span = state.support.hi - state.support.lo
    lead = 10.0 * state.grid_halfwidth / 12.0
    head = np.linspace(0.0, lead, 1001)
    n_tail = max(2, math.ceil((span - lead) / (state.grid_halfwidth / 1800.0)))
    return np.unique(np.concatenate([head, np.linspace(lead, span, n_tail)]))


# sqrt(2 pi) to 49 significant digits
_SQRT_2PI = Fraction("2.50662827463100050241576528481104525300698674061")


def _poly_mul(p, q):
    """Product of polynomials in (z, u) held as {(power of z, power of u): coefficient}."""
    out = {}
    for (i, j), a in p.items():
        for (k, m), b in q.items():
            out[i + k, j + m] = out.get((i + k, j + m), 0) + a * b
    return out


def _hermite_at(k, shift):
    """The physicists' H_k(z + shift u), by H_k = 2t H_(k-1) - 2(k-1) H_(k-2)."""
    two_t = {(1, 0): Fraction(2), (0, 1): 2 * shift}
    h = [{(0, 0): Fraction(1)}, two_t]
    for m in range(2, k + 1):
        nxt = _poly_mul(two_t, h[m - 1])
        for key, a in h[m - 2].items():
            nxt[key] = nxt.get(key, 0) - 2 * (m - 1) * a
        h.append(nxt)
    return h[k]


def _overlap(k, l, m, n):
    """sqrt(2 pi) e^(u^2/2) int f_kl(y+u) f_mn(y) dy, f_kl = phi_k phi_l at unit
    width, as {power of u: coefficient}.

    f_kl = H_k H_l e^(-y^2) / (sqrt(pi) sqrt(2^k k! 2^l l!)); with y = z - u/2
    the Gaussians are e^(-u^2/2) e^(-2 z^2), and
    int z^(2i) e^(-2 z^2) dz = sqrt(pi/2) (2i - 1)!! / 4^i.
    """
    half = Fraction(1, 2)
    poly = _poly_mul(
        _poly_mul(_hermite_at(k, half), _hermite_at(l, half)),
        _poly_mul(_hermite_at(m, -half), _hermite_at(n, -half)),
    )
    norm_sq = math.prod(2**i * math.factorial(i) for i in (k, l, m, n))
    norm = math.isqrt(norm_sq)
    assert norm * norm == norm_sq
    out = {}
    for (i, j), a in poly.items():
        if i % 2 == 0:
            moment = Fraction(math.prod(range(1, i, 2)), 4 ** (i // 2))  # over sqrt(pi/2)
            out[j] = out.get(j, 0) + a * moment / norm
    return out


def _hermite_table(n, symmetry):
    """(p_j of h, p_j of C) rows of HermiteSlater, derived as the states module docstring does:
    h = C - X for the determinant and C + X - 2 D for the permanent."""
    pairs = [(k, l) for k in range(n) for l in range(n)]
    parts = {
        "C": [_overlap(k, k, l, l) for k, l in pairs],
        "X": [_overlap(k, l, k, l) for k, l in pairs],
        "D": [_overlap(k, k, k, k) for k in range(n)],
    }
    total = {name: {} for name in parts}
    for name, terms in parts.items():
        for term in terms:
            for j, a in term.items():
                total[name][j] = total[name].get(j, 0) + a
    sign = -1 if symmetry == "antisymmetric" else 1
    degree = max(total["C"])
    rows = []
    for j in range(degree + 1):
        c = total["C"].get(j, 0)
        h = c + sign * total["X"].get(j, 0) - (1 + sign) * total["D"].get(j, 0)
        if j % 2:
            assert h == c == 0  # both are even in u
        else:
            rows.append((Fraction(h), Fraction(c)))
    return rows


def _table_mass(t):
    """int rho of a density table in closed form, as math.fsum of its rows'
    int ((x - m)/l)^(2j) exp(-a (x - m)^2) dx = sqrt(pi/a) (2j - 1)!! / (2 a l^2)^j."""
    powers = t.power or [0] * len(t.h)
    return math.fsum(
        h * math.sqrt(math.pi / a) * math.prod(range(1, 2 * j, 2)) / (2 * a * t.length**2) ** j
        for h, a, j in zip(t.h, t.rate, powers)
    )


def _kernel_inputs(state):
    """u as scalars, a 0-d array, (1,) arrays, a (3, 15) block and 450 nodes
    over [-span, span], with 0, 1e-300, 1e-30, +-inf and negative u among them."""
    span = state.support.hi - state.support.lo
    special = [0.0, -0.0, 1e-300, 1e-30, math.inf, -math.inf, -1e-30, -0.5 * span]
    nodes = np.concatenate([special, np.linspace(-span, span, 450 - len(special))])
    return [
        0.0, 1e-300, -span / 3, math.inf, np.array(1e-30), np.array([0.0]), np.array([-math.inf]),
        nodes[:45].reshape(3, 15), nodes,
    ]


def _assert_node_major_bits(state):
    # an inf node times its zero Gaussian is NaN on both sides
    with np.errstate(invalid="ignore"):
        for u in _kernel_inputs(state):
            ours, oracle = state.correlations(u), oracles.node_major_correlations(state, u)
            assert (ours.shape, ours.dtype) == (oracle.shape, oracle.dtype) == ((2, *np.shape(u)), float)
            assert ours.tobytes() == oracle.tobytes(), (state, np.shape(u))


class TestDensityTable:
    @pytest.mark.parametrize("seed", [20240801, 7])
    def test_default_densities_match_orbital_route(self, seed):
        # each default profile against W1 contracted with the orbital values
        # (the correlated pair's Gaussian mixture), to 1e-13 of max rho
        for sid, state in random_state_suite(200, seed):
            profile = density(state)
            expected = orbital_rho(state, profile.grid.x)
            assert np.max(np.abs(profile.values - expected)) <= 1e-13 * np.max(expected), sid

    # The drawn N = 3 determinants reach gaps of half a width, where W1's
    # entries (up to 5e2) cancel: there the two routes differ by up to 3.7e-13
    # of max rho (1,350 such states), and each is off a 40-digit value by up
    # to 2.4e-13 (the table) and 1.1e-13 (the orbitals).
    @settings(max_examples=60, deadline=None)
    @given(trial_states())
    def test_densities_match_orbital_route(self, state):
        profile = density(state)
        expected = orbital_rho(state, profile.grid.x)
        assert np.max(np.abs(profile.values - expected)) <= 1e-12 * np.max(expected)

    # worst 8.9e-15 relative (s177); a drawn determinant with gaps of half a
    # width reaches 2.5e-13, as W1's float cancellation sets the floor
    @pytest.mark.parametrize("seed", [20240801, 7])
    def test_default_tables_hold_n_particles(self, seed):
        for sid, state in random_state_suite(200, seed):
            n = state.n_particles
            assert abs(_table_mass(state._rho) - n) <= 1e-14 * n, sid

    @pytest.mark.parametrize("n", [2, 3])
    def test_oscillator_density_is_derived(self, n):
        # rho = sum_k phi_k^2 = e^(-u^2) sum_k H_k(u)^2 / (2^k k!) / (w sqrt(pi)),
        # in rational arithmetic
        q = {}
        for k in range(n):
            for (i, _), a in _poly_mul(_hermite_at(k, 0), _hermite_at(k, 0)).items():
                q[i] = q.get(i, 0) + Fraction(a, 2**k * math.factorial(k))
        coefficients = [q.get(i, 0) for i in range(max(q) + 1)]
        assert coefficients[1::2] == [0] * (len(coefficients) // 2)  # even in u
        assert coefficients[::2] == [Fraction(p) for p in states._OSCILLATOR_DENSITIES[n]]

    def test_near_degenerate_product_density(self):
        # the default suite's worst-conditioned GaussianProduct: rho against
        # 30-digit values at six points, to 1e-13 of max rho
        state = GaussianProduct(**NEAR_DEGENERATE_PRODUCT["state"])
        x, exact = (np.array(col, dtype=float) for col in zip(*NEAR_DEGENERATE_PRODUCT["rho"]))
        assert np.max(np.abs(state.rho(x) - exact)) <= 1e-13 * np.max(exact)


class TestCorrelations:
    def test_hermite_rule_is_numpys(self):
        for ours, numpys in zip(HERMITE_RULE, np.polynomial.hermite.hermgauss(5)):
            assert np.max(np.abs(ours - numpys)) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("symmetry", ["symmetric", "antisymmetric"])
    def test_hermite_polynomial_matches_gauss_hermite_route(self, n, symmetry):
        state = HermiteSlater(n, 0.7, symmetry, 0.4)
        u = np.linspace(0.0, state.support.hi - state.support.lo, 20001)
        for poly, rule in zip(state.correlations(u), gauss_hermite_correlations(state, u)):
            assert np.max(np.abs(poly - rule)) <= 1e-13 * np.max(np.abs(rule))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("symmetry", ["symmetric", "antisymmetric"])
    def test_hermite_table_is_derived(self, n, symmetry):
        # the module docstring's derivation, in rational arithmetic
        assert _hermite_table(n, symmetry) == [
            tuple(Fraction(p) for p in row) for row in states._OSCILLATOR_POLYNOMIALS[n, symmetry]
        ]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("symmetry", ["symmetric", "antisymmetric"])
    def test_hermite_table_sum_rules(self, n, symmetry):
        # int s^j e^(-s/2) du / (w sqrt(2 pi)) = (2j - 1)!!, so the table's
        # masses are sum_j p_j (2j - 1)!!: N(N - 1) for h and N^2 for C
        rows = states._OSCILLATOR_POLYNOMIALS[n, symmetry]
        h, c = (
            sum(Fraction(row[k]) * math.prod(range(1, 2 * j, 2)) for j, row in enumerate(rows))
            for k in (0, 1)
        )
        assert (h, c) == (n * (n - 1), n * n)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("symmetry", ["symmetric", "antisymmetric"])
    def test_hermite_table_at_contact(self, n, symmetry):
        # Contact rows read h(0) and C(0): p_0 / (w sqrt(2 pi)) to 2 ulp,
        # and h(0) is exactly 0 on the antisymmetric states (the Pauli hole)
        p0 = [Fraction(p) for p in states._OSCILLATOR_POLYNOMIALS[n, symmetry][0]]
        for width, center in [(0.7, 0.4), (2.3, -0.9), (0.31, 0.0)]:
            state = HermiteSlater(n, width, symmetry, center)
            contact = state.correlations(0.0)
            if symmetry == "antisymmetric":
                assert contact[0] == 0.0
            for got, p in zip(contact, p0):
                exact = p / (Fraction(width) * _SQRT_2PI)
                assert abs(Fraction(float(got)) - exact) <= 2 * Fraction(math.ulp(float(exact)))

    def test_near_degenerate_product_accuracy(self):
        # the default suite's worst-conditioned GaussianProduct: its C rows
        # cancel by a factor 1.7e4 (sum |c_k| / C(0)); h and C against
        # 30-digit values, to 1e-12 of max C
        state = GaussianProduct(**NEAR_DEGENERATE_PRODUCT["state"])
        values = zip(*NEAR_DEGENERATE_PRODUCT["values"])
        u, h_exact, c_exact = (np.array(col, dtype=float) for col in values)
        h, c = state.correlations(u)
        scale = np.max(np.abs(c_exact))
        assert np.max(np.abs(h - h_exact)) <= 1e-12 * scale
        assert np.max(np.abs(c - c_exact)) <= 1e-12 * scale

    # below 8 rows the kernel sums term-major, one row of terms after
    # another from 0.0, which is the order of numpy's last-axis sum of fewer
    # than 8 values; tables of 8 or more rows keep the node-major block
    @pytest.mark.parametrize("seed", [20240801, 7])
    def test_default_kernel_is_node_major_bit_for_bit(self, seed):
        for _, state in random_state_suite(200, seed):
            _assert_node_major_bits(state)

    @settings(max_examples=60, deadline=None)
    @given(trial_states())
    def test_kernel_is_node_major_bit_for_bit(self, state):
        _assert_node_major_bits(state)

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
        h_mass = integrate_1d(lambda u: state.correlations(u)[0], span, QuadratureSpec())
        c_mass = integrate_1d(lambda u: state.correlations(u)[1], span, QuadratureSpec())
        assert 2 * h_mass == pytest.approx(n * (n - 1), rel=1e-8)
        assert 2 * c_mass == pytest.approx(n * n, rel=1e-8)

    # The moved or dilated state rebuilds its overlap tables from rounded
    # centers, and a near-degenerate determinant amplifies that rounding:
    # 2e-10 of the maximum at N = 3 with both gaps half a width.
    @settings(max_examples=40, deadline=None)
    @given(trial_states(), st.floats(-5.0, 5.0))
    def test_translation_invariance(self, state, delta):
        u = _separation_nodes(state)
        for base, moved in zip(state.correlations(u), translated(state, delta).correlations(u)):
            assert np.max(np.abs(moved - base)) <= 1e-9 * np.max(np.abs(base))

    @settings(max_examples=40, deadline=None)
    @given(trial_states(), st.floats(0.25, 4.0))
    def test_dilation_scaling(self, state, lam):
        # density lam rho(lam x) gives h_lam(u) = lam h(lam u), C_lam(u) = lam C(lam u)
        u = _separation_nodes(state) / lam
        scaled = dilated(state, lam).correlations(u)
        for base, value in zip(state.correlations(lam * u), scaled):
            assert np.max(np.abs(value - lam * base)) <= 1e-9 * lam * np.max(np.abs(base))


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
            val = density_power_integral(density(dilated(s, lam)), 2.0)
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


def _bump_profiles(rng, count, n_points=1024):
    # four random Gaussian bumps on n_points points, drawn as `lieboxford maximal` draws them
    grid = UniformGrid(-10.0, 20.0 / (n_points - 1), n_points)
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


@st.composite
def spiky_profiles(draw):
    """Grid profiles with zero runs, spikes up to 1e6 and non-zero end values."""
    n = draw(st.integers(2, 300))
    dx = draw(st.floats(1e-3, 1e2))
    values = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    for start, length in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n)), max_size=3)):
        values[start : start + length] = 0.0
    for at, height in draw(st.lists(st.tuples(st.integers(0, n - 1), st.floats(1.0, 1e6)), max_size=4)):
        values[at] = height
    # a non-zero end value puts a ramp to zero beyond the grid into the block bound
    values[0] = draw(st.floats(0.0, 1e3))
    values[-1] = draw(st.floats(0.0, 1e3))
    return DensityProfile(UniformGrid(0.0, dx, n), values, 1.0)


def brute_force_maximal(profile, i, n_r=20000):
    """Dense-radius oracle for the window average supremum at grid point i."""
    x = profile.grid.x
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


def _copied(arg):
    if isinstance(arg, dict):
        return {key: value.copy() for key, value in arg.items()}
    return arg.copy() if isinstance(arg, np.ndarray) else arg


def _pruning_record(prof):
    """maximal_function(prof) with the inputs of every _prune_blocks call.

    Returns (calls, M rho).  The passes raise ``lower`` in place, so each
    call's inputs are copied, ``lower`` as it stood when the call began.
    """
    calls = []
    prune = states._prune_blocks

    def recorded(*args):
        calls.append(tuple(_copied(arg) for arg in args))
        return prune(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(states, "_prune_blocks", recorded)
        values = maximal_function(prof).values.copy()
    return calls, values


def _kernel_max(prof, cum_ext, dx, point, b_lo, b_hi):
    """_maximal_chunk over the given blocks, in chunks of 1024 rows."""
    n = len(prof.values)
    rho_ext = np.concatenate([np.zeros(n + 1), prof.values, np.zeros(n + 1)])  # as maximal_function extends it
    out = [np.zeros(0)]
    for k in range(0, len(point), 1024):
        rows = slice(k, k + 1024)
        out.append(states._maximal_chunk(point[rows], rho_ext, cum_ext, dx, b_lo[rows], b_hi[rows]))
    return np.concatenate(out), rho_ext


def _assert_block_bounds_hold(prof):
    """Every block that the edge rule keeps, at both pruning levels, later
    kept or dropped: kernel <= the slope-capped bound of _block_bounds.

    The kernel also returns rho at the point itself, which the lower bound
    starts from, so a block is held to the larger of its bound and rho.
    """
    calls, _ = _pruning_record(prof)
    for point, lo, hi, cells, lower, cum_ext, dx, ramp, peaks, fuzz, cut, floor in calls:
        pt, b_lo, b_hi, slope = states._live_blocks(point, lo, hi, cells, lower, peaks[cells], cut, floor)
        bound = states._block_bounds(pt, b_lo, b_hi, slope, cum_ext, dx, ramp, cells, fuzz)[1]
        best, rho_ext = _kernel_max(prof, cum_ext, dx, pt, b_lo, b_hi)
        assert np.all(best <= np.maximum(bound * (1 + 1e-12), rho_ext[pt]))


def _assert_edge_rule_drops_only_losers(prof):
    """Every block the edge rule drops, at both levels, and every radius
    piece the scan cap cuts off, has a kernel maximum <= the final M rho at
    its point: dropping it cannot change a bit.  Returns the blocks dropped
    per level."""
    calls, values = _pruning_record(prof)
    n = len(values)
    values_ext = np.concatenate([np.zeros(n + 1), values, np.zeros(n + 1)])  # points index the extended grid
    i, nz = np.arange(-n - 1, 2 * n + 1), np.nonzero(prof.values)[0]
    dropped = dict.fromkeys((states._COARSE_CELLS, states._FINE_CELLS), 0)
    for point, lo, hi, cells, lower, cum_ext, dx, ramp, peaks, fuzz, cut, floor in calls:
        # copied: the stages return views of work arrays that their next call reuses
        every = states._live_blocks(point, lo, hi, cells, np.full_like(lower, -np.inf), peaks[cells], cut, floor)
        every = [a.copy() for a in every]
        live = states._live_blocks(point, lo, hi, cells, lower, peaks[cells], cut, floor)
        live_keys = set(zip(live[0].tolist(), live[1].tolist()))
        gone = np.array([key not in live_keys for key in zip(every[0].tolist(), every[1].tolist())], dtype=bool)
        best, _ = _kernel_max(prof, cum_ext, dx, *(a[gone] for a in every[:3]))
        assert np.all(best <= values_ext[every[0][gone]])
        dropped[cells] += int(np.count_nonzero(gone))
        if cells == states._COARSE_CELLS:
            full_hi = np.maximum(i - nz[0], nz[-1] - i) + 1  # the uncapped scan, as maximal_function sets it
            cut_off = hi < full_hi[point]
            best, _ = _kernel_max(prof, cum_ext, dx, point[cut_off], hi[cut_off] + 1, full_hi[point[cut_off]])
            assert np.all(best <= values_ext[point[cut_off]])
    return dropped


class TestWindowMax:
    @pytest.mark.parametrize("k", [1, 2, 3, 9, 65, 120, 400])
    def test_matches_naive(self, k):
        # a rho_ext-like array: the values flanked by n + 1 zeros on each side
        vals = rng_stream(3, 1).uniform(size=60)
        a = np.concatenate([np.zeros(61), vals, np.zeros(61)])
        expect = [max(a[i : i + k]) for i in range(len(a))]
        assert np.array_equal(states._window_max(a, k), expect)

    def test_window_longer_than_array(self):
        a = np.array([0.0, 0.0, 0.0, 1.0, 3.0, 0.0, 0.0, 0.0])
        expect = [3.0] * 5 + [0.0] * 3
        assert np.array_equal(states._window_max(a, 9), expect)
        assert np.array_equal(states._window_max(a, 65), expect)


class TestMaximalFunction:
    def test_exceeds_density_pointwise(self):
        state = CorrelatedGaussianPair(0.9, 0.4, 0.6)
        prof = density(state, support_grid(state, 1024))
        m = maximal_function(prof)
        assert np.all(m.values >= prof.values - 1e-13)

    def test_positively_homogeneous(self):
        state = GaussianProduct((0.0, 1.0), 0.8)
        prof = density(state, support_grid(state, 1024))
        m1 = maximal_function(prof)
        m3 = maximal_function(scaled_profile(prof, 3.0))
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

    def test_concurrent_threads_give_single_thread_values(self):
        # six threads, three calls each, each on its own profile, give the
        # values of one thread alone
        profiles = _bump_profiles(rng_stream(5, 10), 6)
        expect = [maximal_function(prof).values.copy() for prof in profiles]
        got = [[] for _ in profiles]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda i=i: got[i].extend(maximal_function(profiles[i]).values for _ in range(3)))
                for i in range(len(profiles))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for values, ref in zip(got, expect):
            assert len(values) == 3 and all(np.array_equal(v, ref) for v in values)

    def test_zero_profile(self):
        grid = UniformGrid(0.0, 0.1, 32)
        prof = DensityProfile(grid, np.zeros(32), 0.0)
        assert np.all(maximal_function(prof).values == 0.0)
        with pytest.raises(ValueError):
            maximal_norm_ratio(prof, 2.0)

    @pytest.mark.parametrize("name", sorted(CUTOFF_PROFILES))
    def test_bit_identical_to_full_scan(self, name):
        # the block pruning may drop only radii that cannot win
        prof = CUTOFF_PROFILES[name]()
        assert np.array_equal(maximal_function(prof).values, maximal_function_full_scan(prof).values)

    @settings(max_examples=200, deadline=None)
    @given(spiky_profiles())
    def test_bit_identical_to_full_scan_on_drawn_profiles(self, prof):
        assert np.array_equal(maximal_function(prof).values, maximal_function_full_scan(prof).values)

    @pytest.mark.parametrize("name", sorted(CUTOFF_PROFILES))
    def test_block_bound_covers_every_block(self, name):
        _assert_block_bounds_hold(CUTOFF_PROFILES[name]())

    @settings(max_examples=50, deadline=None)
    @given(spiky_profiles())
    def test_block_bound_covers_every_block_on_drawn_profiles(self, prof):
        _assert_block_bounds_hold(prof)

    @pytest.mark.parametrize("name", sorted(CUTOFF_PROFILES))
    def test_edge_rule_drops_only_losers(self, name):
        # ones, plateau and indicator_wide_grid hold long runs of equal
        # window averages, where only the margins keep the bits
        dropped = _assert_edge_rule_drops_only_losers(CUTOFF_PROFILES[name]())
        if name.startswith("default"):
            assert min(dropped.values()) > 0  # the rule is not vacuous at either level

    @settings(max_examples=50, deadline=None)
    @given(spiky_profiles())
    def test_edge_rule_drops_only_losers_on_drawn_profiles(self, prof):
        _assert_edge_rule_drops_only_losers(prof)

    @pytest.mark.parametrize("cells", [1 << 9, 1 << 11])
    def test_bit_identical_to_full_scan_in_many_steps(self, monkeypatch, cells):
        # at the default 2^15 cells a default profile takes one step per
        # stage; smaller steps run the loops over point groups, fine slices
        # and kernel rows, and the work arrays across them
        kernel, prune, steps = states._maximal_chunk, states._prune_blocks, []

        def counted_kernel(*args):
            steps.append("kernel")
            return kernel(*args)

        def counted_prune(*args):
            steps.append(args[3])
            return prune(*args)

        monkeypatch.setattr(states, "_BLOCK_CELLS", cells)
        monkeypatch.setattr(states, "_maximal_chunk", counted_kernel)
        monkeypatch.setattr(states, "_prune_blocks", counted_prune)
        for name, make in CUTOFF_PROFILES.items():
            prof = make()
            steps.clear()
            assert np.array_equal(maximal_function(prof).values, maximal_function_full_scan(prof).values), name
            if name.startswith("default"):
                assert steps.count("kernel") > 1 and steps.count(states._COARSE_CELLS) > 1, name

    def test_stages_allocate_no_block_at_the_mmap_threshold(self, monkeypatch):
        # every per-step array is a view of a work array, so after a first
        # profile has sized them no stage allocates 128 KiB, glibc's default
        # mmap threshold, at or above which a temporary is mapped and
        # unmapped at every step and its pages are faulted in again
        prof = _default_maximal_profile(0)
        maximal_function(prof)
        peaks = {}

        def traced(name, stage):
            def run(*args):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = stage(*args)
                peaks[name] = max(peaks.get(name, 0), tracemalloc.get_traced_memory()[1] - start)
                return out

            return run

        stages = ("_prune_blocks", "_maximal_chunk")
        for name in stages:
            monkeypatch.setattr(states, name, traced(name, getattr(states, name)))
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            values = maximal_function(prof).values
        finally:
            if not tracing:
                tracemalloc.stop()
        assert np.array_equal(values, maximal_function_full_scan(prof).values)
        assert set(peaks) == set(stages)
        assert max(peaks.values()) < 128 * 1024, peaks

    def test_kernel_scans_few_radii(self, monkeypatch):
        # rows x scanned radii of every kernel call on the first default
        # profile: 21,366 with the edge rule ahead of the slope-capped block
        # bound, 29,808 with the slope-capped bound alone, 99,738 with the
        # bound (F(E_hi) + ramp)/(2 E_lo) alone, 788,992 for a full scan
        cells = []
        kernel = states._maximal_chunk

        def counted(at, rho_ext, cum_ext, dx, m_lo, m_hi):
            cells.append(len(at) * (int(np.max(m_hi - m_lo)) + 2))
            return kernel(at, rho_ext, cum_ext, dx, m_lo, m_hi)

        monkeypatch.setattr(states, "_maximal_chunk", counted)
        prof = _default_maximal_profile(0)
        values = maximal_function(prof).values
        assert sum(cells) < 25_000
        assert np.array_equal(values, maximal_function_full_scan(prof).values)


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

    def test_support_computed_once_per_state(self):
        # one Interval per state, grid_center +- grid_halfwidth
        for _, s in random_state_suite(40, 3):
            box = s.support
            assert s.support is box
            assert (box.lo, box.hi) == (s.grid_center - s.grid_halfwidth, s.grid_center + s.grid_halfwidth)
