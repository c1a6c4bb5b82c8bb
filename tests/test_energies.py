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
    expectation_via_2d,
    integrate_1d_components,
    integrate_2d,
    window_mass,
)
from test_states import trial_states

GAUSS_PAIR = GaussianProduct((0.0, 0.0), 1.0, "symmetric")
ANTI_PAIR = GaussianProduct((-0.8, 0.8), 0.9, "antisymmetric")


class TestContact:
    def test_symmetric_gaussian_pair_expectation(self):
        # int phi^4 = 1/(2 sqrt(pi)) for phi^2 the standard normal density
        val = indirect_energy(GAUSS_PAIR, Contact()).expectation_v
        assert val == pytest.approx(1 / (2 * math.sqrt(math.pi)), rel=1e-9)

    def test_antisymmetric_expectation_vanishes(self):
        assert indirect_energy(ANTI_PAIR, Contact()).expectation_v == pytest.approx(0.0, abs=1e-12)

    def test_breakdown_anchor(self):
        b = indirect_energy(GAUSS_PAIR, Contact())
        assert b.hartree == pytest.approx(1 / math.sqrt(math.pi), rel=1e-9)
        assert b.i_xc == pytest.approx(-1 / (2 * math.sqrt(math.pi)), rel=1e-9)
        assert b.i_xc == b.expectation_v - b.hartree  # identity, exact

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
    assert (b.expectation_v, b.hartree) == (0.5 * h0, 0.5 * c0)
    assert b.quadrature_error_estimate == 0.0
    # the diagonal route: <delta> = (1/2) int rho2(x, x) dx by adaptive quadrature
    spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-14)
    direct = integrate_1d_components(lambda x: 0.5 * state.rho2(x, x), state.support, spec)
    assert abs(b.expectation_v - direct) <= 1e-12 * max(1.0, abs(b.expectation_v))


class TestMollifierSweep:
    def test_approx_contact_converges_to_doubled_contact(self):
        # v_sigma(|x_i - x_j|) mollifies 2*delta (even extension carries mass 2),
        # so the sweep approaches twice the contact values as a Cauchy sequence.
        state = CorrelatedGaussianPair(1.0, 0.4, 0.8)
        e_contact = indirect_energy(state, Contact()).expectation_v
        sweep = [indirect_energy(state, ApproxContact(s)).expectation_v for s in (1.0, 0.1, 0.01)]
        gaps = [abs(a - b) for a, b in zip(sweep, sweep[1:])]
        assert gaps[1] < gaps[0]
        assert gaps[1] < 1e-3
        assert sweep[-1] == pytest.approx(2 * e_contact, rel=1e-3)


class TestHartree:
    def test_contact_gaussian_density(self):
        hartree = indirect_energy(GAUSS_PAIR, Contact()).hartree
        assert hartree == pytest.approx(1 / math.sqrt(math.pi), rel=1e-9)

    def test_positive_for_nonnegative_potentials(self):
        for _, state in random_state_suite(5, 21):
            assert indirect_energy(state, ConvexSoftCoulomb(0.7)).hartree > 0


class TestIndirectEnergy:
    def test_identity_and_error_estimate(self):
        for p in (ApproxContact(0.5), ConvexSoftCoulomb(1.0), Homogeneous(0.5)):
            b = indirect_energy(ANTI_PAIR, p)
            assert b.i_xc == b.expectation_v - b.hartree
            assert 0 <= b.quadrature_error_estimate < 1e-6 * max(1.0, abs(b.i_xc))

    def test_batch_matches_single(self):
        pots = [Contact(), ConvexSoftCoulomb(1.0), Homogeneous(0.3)]
        batch = interaction_energies(ANTI_PAIR, pots)
        for p, b in zip(pots, batch):
            single = indirect_energy(ANTI_PAIR, p)
            assert b.i_xc == pytest.approx(single.i_xc, rel=1e-10)
            # each potential carries its own error estimate, whatever shares the batch
            assert b.quadrature_error_estimate == single.quadrature_error_estimate

    def test_separation_route_matches_2d_quadrature(self):
        for p in (ConvexSoftCoulomb(1.0), RegularizedCoulomb(1.2)):
            fast = indirect_energy(GAUSS_PAIR, p).expectation_v
            slow = expectation_via_2d(GAUSS_PAIR, p)
            assert fast == pytest.approx(slow, rel=1e-7)

    def test_transpose_symmetry_of_2d_integrand(self):
        from lieboxford.numerics import QuadratureSpec

        p = ConvexSoftCoulomb(1.0)
        state = GaussianProduct((-0.6, 0.9), 0.8, "symmetric")
        box = (-9.0, 9.0)
        spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-9)
        base = integrate_2d(
            lambda x, y: 0.5 * state.rho2(x, y) * p.value(np.abs(x - y)), box, box, spec
        )
        swapped = integrate_2d(
            lambda x, y: 0.5 * state.rho2(y, x) * p.value(np.abs(x - y)), box, box, spec
        )
        assert abs(base - swapped) < 1e-10

    def test_translation_invariance(self):
        state = CorrelatedGaussianPair(0.9, 0.5, 0.6)
        moved = state.translated(3.1)
        for p in (Contact(), ConvexSoftCoulomb(1.0)):
            b0 = indirect_energy(state, p)
            b1 = indirect_energy(moved, p)
            assert b1.expectation_v == pytest.approx(b0.expectation_v, rel=1e-8)
            assert b1.hartree == pytest.approx(b0.hartree, rel=1e-8)

    def test_three_particle_slater(self):
        state = HermiteSlater(3, 1.0)
        b = indirect_energy(state, ConvexSoftCoulomb(1.0))
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
        base = indirect_energy(GAUSS_PAIR, reg)
        lifted = indirect_energy(GAUSS_PAIR, ShiftedPotential(reg, c))
        assert lifted.i_xc - base.i_xc == pytest.approx(c, rel=1e-7)
        assert lifted.expectation_v - base.expectation_v == pytest.approx(-c, rel=1e-7)
        assert lifted.hartree - base.hartree == pytest.approx(-2 * c, rel=1e-7)


SUITE_POINTWISE = [p for p in default_suite_potentials().values() if not isinstance(p, Contact)]


class TestInvariances:
    # measured worst on 14 drawn states: 1e-15 (translation) and 6.2e-13
    # (dilation) of max(|I_xc|, N)
    @settings(max_examples=15, deadline=None)
    @given(trial_states(), st.floats(-5.0, 5.0))
    def test_translation_invariance(self, state, delta):
        base = interaction_energies(state, SUITE_POINTWISE)
        moved = interaction_energies(state.translated(delta), SUITE_POINTWISE)
        for p, b0, b1 in zip(SUITE_POINTWISE, base, moved):
            scale = max(abs(b0.i_xc), state.n_particles)
            assert abs(b1.i_xc - b0.i_xc) <= 1e-9 * scale, p.label()

    @settings(max_examples=15, deadline=None)
    @given(trial_states(), st.floats(0.25, 4.0))
    def test_homogeneous_dilation_scaling(self, state, lam):
        # density lam rho(lam x) and v(r) = r^(eps-1): I_xc scales by lam^(1-eps)
        pots = [Homogeneous(eps) for eps in (0.1, 0.5, 0.9)]
        base = interaction_energies(state, pots)
        dilated = interaction_energies(state.dilated(lam), pots)
        for p, b0, b1 in zip(pots, base, dilated):
            expected = lam ** (1.0 - p.epsilon) * b0.i_xc
            scale = max(abs(expected), state.n_particles)
            assert abs(b1.i_xc - expected) <= 1e-9 * scale, p.label()


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
            rho2 = density_power_integral(prof, 2.0)
            z = prof.x
            for r in (0.1, 1.0, 10.0):
                alpha = window_mass(state, r, z, prof)
                lhs = np.trapezoid(alpha**2, dx=prof.grid.dx)
                assert lhs <= 4 * r * r * rho2 * (1 + 1e-9)
