import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieboxford.bounds import default_suite_potentials
from lieboxford.energies import indirect_energy, interaction_energies
from lieboxford.potentials import (
    ApproxContact,
    Contact,
    ConvexSoftCoulomb,
    Homogeneous,
    RegularizedCoulomb,
    SoftCoulomb,
)
from lieboxford.states import (
    CorrelatedGaussianPair,
    GaussianProduct,
    HermiteSlater,
    density,
    density_power_integral,
    random_state_suite,
)
from lieboxford.numerics import QuadratureSpec
from oracles import (
    ShiftedPotential,
    correlation,
    dilated,
    expectation_via_2d,
    integrate_1d_components,
    integrate_2d,
    lone_energies,
    rho2,
    separation_integrals,
    translated,
    window_mass,
)
from test_states import trial_states

GAUSS_PAIR = GaussianProduct((0.0, 0.0), 1.0, "symmetric")
ANTI_PAIR = GaussianProduct((-0.8, 0.8), 0.9, "antisymmetric")


class TestContact:
    # <delta> = h(0)/2 and D = C(0)/2 in closed form; I_xc is their difference
    def test_symmetric_gaussian_pair_expectation(self):
        # int phi^4 = 1/(2 sqrt(pi)) for phi^2 the standard normal density
        val = 0.5 * GAUSS_PAIR.correlations(0.0)[0]
        assert val == pytest.approx(1 / (2 * math.sqrt(math.pi)), rel=1e-9)

    def test_antisymmetric_expectation_vanishes(self):
        assert 0.5 * ANTI_PAIR.correlations(0.0)[0] == pytest.approx(0.0, abs=1e-12)

    def test_breakdown_anchor(self):
        b = indirect_energy(GAUSS_PAIR, Contact())
        assert b.i_xc == pytest.approx(-1 / (2 * math.sqrt(math.pi)), rel=1e-9)
        h0, c0 = GAUSS_PAIR.correlations(0.0)
        assert b.i_xc == 0.5 * h0 - 0.5 * c0  # identity, exact

    def test_antisymmetric_ixc_is_minus_half_density_square(self):
        b = indirect_energy(ANTI_PAIR, Contact())
        ref = -0.5 * density_power_integral(density(ANTI_PAIR), 2.0)
        assert b.i_xc == pytest.approx(ref, abs=1e-9)


SUITE_KINDS = {
    "gauss2s": GaussianProduct((-0.7, 0.9), 0.8, "symmetric"),
    "gauss2a": GaussianProduct((-0.7, 0.9), 0.8, "antisymmetric"),
    "gauss3s": GaussianProduct((-1.2, 0.1, 1.5), 0.9, "symmetric"),
    "gauss3a": GaussianProduct((-1.2, 0.1, 1.5), 0.9, "antisymmetric"),
    "herm2": HermiteSlater(2, 1.1, "antisymmetric", 0.3),
    "herm3": HermiteSlater(3, 0.8, "symmetric", -0.2),
    "corr2": CorrelatedGaussianPair(0.9, 0.5, 0.6, center=0.4),
}


@pytest.mark.parametrize("kind", SUITE_KINDS)
def test_contact_breakdown_is_half_h0_and_c0(kind):
    state = SUITE_KINDS[kind]
    b = indirect_energy(state, Contact())
    h0, c0 = state.correlations(0.0)
    assert b.i_xc == 0.5 * h0 - 0.5 * c0
    assert b.quadrature_error_estimate == 0.0
    # the diagonal route: <delta> = (1/2) int rho2(x, x) dx by adaptive quadrature
    expectation = 0.5 * h0
    spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-14)
    direct = integrate_1d_components(lambda x: 0.5 * rho2(state, x, x), state.support, spec)
    assert abs(expectation - direct) <= 1e-12 * max(1.0, abs(expectation))


def _bits(breakdowns):
    return [(float(b.i_xc).hex(), float(b.quadrature_error_estimate).hex()) for b in breakdowns]


@pytest.mark.parametrize("kind", SUITE_KINDS)
def test_batch_equals_lone_runs_bit_for_bit(kind):
    # one many-job quadrature for the whole batch gives I_xc and its error
    # estimate the bits of the integrals run one by one
    state = SUITE_KINDS[kind]
    pots = list(default_suite_potentials().values())
    lone = _bits(lone_energies(state, pots))
    assert _bits(interaction_energies([(state, pots)])[0]) == lone
    assert _bits([indirect_energy(state, p) for p in pots]) == lone


def test_many_states_equal_their_lone_calls_bit_for_bit():
    # one call for one state of each kind against the 8 default potentials:
    # every state gets the bits of its own call, and of the lone integrals
    pots = list(default_suite_potentials().values())
    many = interaction_energies([(state, pots) for state in SUITE_KINDS.values()])
    assert len(many) == len(SUITE_KINDS)
    for state, breakdowns in zip(SUITE_KINDS.values(), many):
        assert _bits(breakdowns) == _bits(interaction_energies([(state, pots)])[0])
        assert _bits(breakdowns) == _bits(lone_energies(state, pots))


class NotFiniteBeyond30(ConvexSoftCoulomb):
    """A convex soft Coulomb that is NaN beyond r = 30, inside the support spans of the Hermite states only."""

    def value(self, r):
        return np.where(np.asarray(r) > 30.0, np.nan, super().value(r))


@pytest.mark.parametrize("reverse", [False, True])
def test_a_failing_later_state_raises_as_the_state_by_state_loop(reverse):
    # herm2 and herm3 both fail; the one listed first raises its own error
    states = list(SUITE_KINDS.values())[:: -1 if reverse else 1]
    pots = [ConvexSoftCoulomb(1.0), NotFiniteBeyond30(1.0)]
    with pytest.raises(ValueError) as loop:
        for state in states:
            interaction_energies([(state, pots)])
    with pytest.raises(ValueError) as many:
        interaction_energies([(state, pots) for state in states])
    assert str(many.value) == str(loop.value)
    failing = SUITE_KINDS["herm3" if reverse else "herm2"]
    assert f"{failing.support.hi - failing.support.lo}]" in str(many.value)


# Homogeneous is left out: its outer passes integrate the weak singularity
# u^(epsilon - 1) at contact untransformed, which leaves a known bias of up to
# 5.4e-9 of max(|I_xc|, N) on these states at epsilon = 0.1, up to 4.5x above
# its own error estimate.  Removing it by a substitution in u moves the
# committed benchmark reference, so it waits for a renewal of that reference
# (ROADMAP item 1).
ORACLE_POTENTIALS = [ApproxContact(0.5), ConvexSoftCoulomb(1.0), RegularizedCoulomb(1.0), SoftCoulomb(1.0)]


@pytest.mark.parametrize("kind", SUITE_KINDS)
def test_energies_match_tight_separation_integrals(kind):
    # the independent route: one vector-valued pass of the exact h and C per
    # piece, by the oracle driver at a spec 1000x tighter than the default
    state = SUITE_KINDS[kind]
    tight = QuadratureSpec(1e-13, 1e-12, 40000)
    for p, b in zip(ORACLE_POTENTIALS, interaction_energies([(state, ORACLE_POTENTIALS)])[0]):
        (expectation, hartree), _ = separation_integrals(state, p, tight)
        error = abs(b.i_xc - (expectation - hartree))
        assert error <= 1e-11 * max(abs(b.i_xc), state.n_particles), p.label()
        assert error <= b.quadrature_error_estimate, p.label()


class TestMollifierSweep:
    def test_approx_contact_converges_to_doubled_contact(self):
        # v_sigma(|x_i - x_j|) mollifies 2*delta (even extension carries mass 2),
        # so the sweep approaches twice the contact values as a Cauchy sequence.
        state = CorrelatedGaussianPair(1.0, 0.4, 0.8)
        e_contact = 0.5 * state.correlations(0.0)[0]
        sweep = [b.expectation_v for b in lone_energies(state, [ApproxContact(s) for s in (1.0, 0.1, 0.01)])]
        gaps = [abs(a - b) for a, b in zip(sweep, sweep[1:])]
        assert gaps[1] < gaps[0]
        assert gaps[1] < 1e-3
        assert sweep[-1] == pytest.approx(2 * e_contact, rel=1e-3)


class TestHartree:
    def test_contact_gaussian_density(self):
        # D = C(0)/2 = (1/2) int rho^2 with rho = 2 phi^2
        hartree = 0.5 * GAUSS_PAIR.correlations(0.0)[1]
        assert hartree == pytest.approx(1 / math.sqrt(math.pi), rel=1e-9)

    def test_positive_for_nonnegative_potentials(self):
        for _, state in random_state_suite(5, 21):
            assert lone_energies(state, [ConvexSoftCoulomb(0.7)])[0].hartree > 0


class TestIndirectEnergy:
    def test_identity_and_error_estimate(self):
        pots = (ApproxContact(0.5), ConvexSoftCoulomb(1.0), Homogeneous(0.5))
        for p, lone in zip(pots, lone_energies(ANTI_PAIR, pots)):
            b = indirect_energy(ANTI_PAIR, p)
            assert b.i_xc == lone.expectation_v - lone.hartree
            assert 0 <= b.quadrature_error_estimate < 1e-6 * max(1.0, abs(b.i_xc))

    def test_batch_matches_single(self):
        pots = [Contact(), ConvexSoftCoulomb(1.0), Homogeneous(0.3)]
        batch = interaction_energies([(ANTI_PAIR, pots)])[0]
        for p, b in zip(pots, batch):
            single = indirect_energy(ANTI_PAIR, p)
            assert b.i_xc == pytest.approx(single.i_xc, rel=1e-10)
            # each potential carries its own error estimate, whatever shares the batch
            assert b.quadrature_error_estimate == single.quadrature_error_estimate

    def test_separation_route_matches_2d_quadrature(self):
        pots = (ConvexSoftCoulomb(1.0), RegularizedCoulomb(1.2))
        for p, lone in zip(pots, lone_energies(GAUSS_PAIR, pots)):
            fast = lone.expectation_v
            slow = expectation_via_2d(GAUSS_PAIR, p)
            assert fast == pytest.approx(slow, rel=1e-7)

    def test_transpose_symmetry_of_2d_integrand(self):
        from lieboxford.numerics import QuadratureSpec

        p = ConvexSoftCoulomb(1.0)
        state = GaussianProduct((-0.6, 0.9), 0.8, "symmetric")
        box = (-9.0, 9.0)
        spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-9)
        base = integrate_2d(
            lambda x, y: 0.5 * rho2(state, x, y) * p.value(np.abs(x - y)), box, box, spec
        )
        swapped = integrate_2d(
            lambda x, y: 0.5 * rho2(state, y, x) * p.value(np.abs(x - y)), box, box, spec
        )
        assert abs(base - swapped) < 1e-10

    def test_translation_invariance(self):
        state = CorrelatedGaussianPair(0.9, 0.5, 0.6)
        moved = translated(state, 3.1)
        pots = (Contact(), ConvexSoftCoulomb(1.0))
        for b0, b1 in zip(lone_energies(state, pots), lone_energies(moved, pots)):
            assert b1.expectation_v == pytest.approx(b0.expectation_v, rel=1e-8)
            assert b1.hartree == pytest.approx(b0.hartree, rel=1e-8)

    def test_three_particle_slater(self):
        state = HermiteSlater(3, 1.0)
        (b,) = lone_energies(state, [ConvexSoftCoulomb(1.0)])
        assert b.expectation_v > 0
        assert b.hartree > 0
        # pair-separation mass equals the number of pairs
        from lieboxford.numerics import Interval, QuadratureSpec, integrate_1d

        h = correlation(state, QuadratureSpec(), pair=True)
        mass = integrate_1d(lambda u: h(u), Interval(0.0, 2 * state.grid_halfwidth), QuadratureSpec())
        n = state.n_particles
        assert float(np.max(mass)) == pytest.approx(n * (n - 1) / 2, rel=1e-8)

    def test_shift_identity(self):
        # v -> v - c shifts I_xc by +c N/2; N = 2 here
        beta = 1.0
        reg = RegularizedCoulomb(beta)
        c = reg.value(0.0)
        assert c == pytest.approx(math.sqrt(math.pi) / (2 * beta))
        pots = [reg, ShiftedPotential(reg, c)]
        base, lifted = interaction_energies([(GAUSS_PAIR, pots)])[0]
        assert lifted.i_xc - base.i_xc == pytest.approx(c, rel=1e-7)
        # <V> moves by -c times the N(N-1)/2 = 1 pairs, D by -c N^2/2 = -2c
        base, lifted = lone_energies(GAUSS_PAIR, pots)
        assert lifted.expectation_v - base.expectation_v == pytest.approx(-c, rel=1e-7)
        assert lifted.hartree - base.hartree == pytest.approx(-2 * c, rel=1e-7)


SUITE_POINTWISE = [p for p in default_suite_potentials().values() if not isinstance(p, Contact)]


class TestInvariances:
    # measured worst on 14 drawn states: 1e-15 (translation) and 6.2e-13
    # (dilation) of max(|I_xc|, N)
    @settings(max_examples=15, deadline=None)
    @given(trial_states(), st.floats(-5.0, 5.0))
    def test_translation_invariance(self, state, delta):
        base = interaction_energies([(state, SUITE_POINTWISE)])[0]
        moved = interaction_energies([(translated(state, delta), SUITE_POINTWISE)])[0]
        for p, b0, b1 in zip(SUITE_POINTWISE, base, moved):
            scale = max(abs(b0.i_xc), state.n_particles)
            assert abs(b1.i_xc - b0.i_xc) <= 1e-9 * scale, p.label()

    @settings(max_examples=15, deadline=None)
    @given(trial_states(), st.floats(0.25, 4.0))
    def test_homogeneous_dilation_scaling(self, state, lam):
        # density lam rho(lam x) and v(r) = r^(eps-1): I_xc scales by lam^(1-eps)
        pots = [Homogeneous(eps) for eps in (0.1, 0.5, 0.9)]
        base = interaction_energies([(state, pots)])[0]
        scaled = interaction_energies([(dilated(state, lam), pots)])[0]
        for p, b0, b1 in zip(pots, base, scaled):
            expected = lam ** (1.0 - p.epsilon) * b0.i_xc
            scale = max(abs(expected), state.n_particles)
            assert abs(b1.i_xc - expected) <= 1e-9 * scale, p.label()

    # v -> v - c adds c N / 2 to I_xc, since int h = N(N-1)/2 and int C = N^2/2.
    # Measured worst on 1,000 drawn states, as a share of the largest of N and
    # the four integrals: 2.3e-11, and 4.1e-9 on Homogeneous(0.1), whose
    # u^(eps-1) at contact the outer passes leave biased.  Integrated across
    # the kink of ApproxContact(0.5) as one piece, 21% of 200 drawn states
    # were above 2e-10, up to 5.2e-9.
    @settings(max_examples=15, deadline=None)
    @given(trial_states(), st.floats(-2.0, 2.0))
    def test_shift_law(self, state, c):
        shifted = [ShiftedPotential(p, c) for p in SUITE_POINTWISE]
        base = interaction_energies([(state, SUITE_POINTWISE)])[0]
        lifted = interaction_energies([(state, shifted)])[0]
        # the scale reads the four integrals off the lone runs, which have
        # the package's bits (test_batch_equals_lone_runs_bit_for_bit)
        integrals = zip(lone_energies(state, SUITE_POINTWISE), lone_energies(state, shifted))
        n = state.n_particles
        for p, b0, b1, (l0, l1) in zip(SUITE_POINTWISE, base, lifted, integrals):
            scale = max(abs(l0.expectation_v), abs(l0.hartree), abs(l1.expectation_v), abs(l1.hartree), n)
            tol = 2e-8 if isinstance(p, Homogeneous) else 2e-10
            assert abs(b1.i_xc - b0.i_xc - c * n / 2) <= tol * scale, p.label()


class TestWindowMass:
    def test_limits(self):
        state = GaussianProduct((0.1, -0.4), 1.1, "symmetric")
        prof = density(state)
        assert window_mass(state, 1e3, 0.0, prof) == pytest.approx(2.0, rel=1e-9)
        assert window_mass(state, 0.0, 0.3, prof) == 0.0

    def test_cauchy_schwarz_window_bound(self):
        # int alpha(r, z)^2 dz <= (2r)^2 int rho^2
        for _, state in random_state_suite(4, 13):
            prof = density(state)
            rho_sq = density_power_integral(prof, 2.0)
            z = prof.grid.x
            for r in (0.1, 1.0, 10.0):
                alpha = window_mass(state, r, z, prof)
                lhs = np.trapezoid(alpha**2, dx=prof.grid.dx)
                assert lhs <= 4 * r * r * rho_sq * (1 + 1e-9)
