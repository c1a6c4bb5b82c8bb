import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieboxford import hubbard
from lieboxford.hubbard import (
    _fermi,
    _j0,
    _j1,
    energy_excess_factor,
    energy_per_site,
    exchange_correlation,
    kappa_of_u,
    lieb_wu_energy,
    min_excess_factor,
    occupation_sweep,
)
from lieboxford.numerics import rng_stream


def site_occupation_slack(sites, t, u, kappa):
    """sum_i e_xc(n_i) + (U/4) sum_i n_i^2, as occupation_sweep sums one case."""
    sites = np.asarray(sites, dtype=float)
    return float(np.sum(exchange_correlation(sites, t, u, kappa))) + (u / 4.0) * float(np.sum(sites**2))


class TestSpecialFunctions:
    """The package's Cephes J0, J1 and Fermi weight are scipy's, bit for bit."""

    def test_bessel_equal_to_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        rng = rng_stream(16, 2)
        # both branches (x <= 5 and beyond), the x < 1e-5 series of J0 and the ends
        x = np.concatenate([[0.0, 1e-5, 5.0, np.nextafter(5.0, 6.0), 2e4], rng.uniform(0.0, 2e4, 60_000),
                            rng.uniform(0.0, 10.0, 30_000), np.geomspace(1e-12, 2e4, 10_000)])
        assert np.array_equal(_j0(x), scipy_special.j0(x))
        assert np.array_equal(_j1(x), scipy_special.j1(x))

    def test_fermi_weight_equal_to_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        z = np.concatenate([[-50.0, 0.0, 709.78, 709.79, 800.0], rng_stream(16, 3).uniform(-50.0, 800.0, 100_000)])
        assert np.array_equal(_fermi(z), scipy_special.expit(-z))


class TestEnergy:
    def test_half_filled_free(self):
        assert energy_per_site(1.0, 1.7, 0.0, 2.0) == pytest.approx(-4 * 1.7 / math.pi, rel=1e-14)

    def test_empty_band(self):
        assert energy_per_site(0.0, 1.0, 5.0, 1.3) == 0.0

    def test_full_band(self):
        u = 3.7
        assert energy_per_site(2.0, 1.0, u, 1.3) == pytest.approx(u, rel=1e-14)

    def test_particle_hole_identity(self):
        u, t, kappa = 2.5, 1.3, 1.45
        for n in np.linspace(1.0, 2.0, 21):
            e_hi = energy_per_site(float(n), t, u, kappa)
            e_lo = energy_per_site(float(2 - n), t, u, kappa)
            assert e_hi - e_lo == pytest.approx(u * (n - 1), abs=1e-12)

    def test_interaction_never_lowers_energy(self):
        # e(n,t,U) >= e(n,t,0) across the grid (excess factor is nonnegative)
        t = 1.0
        for kappa in (1.0, 1.3, 1.8, 2.0):
            for n in np.linspace(0, 2, 41):
                e_u = energy_per_site(float(n), t, 4.0, kappa)
                e_0 = energy_per_site(float(n), t, 0.0, 2.0)
                extra = 4.0 * (n - 1) if n > 1 else 0.0
                assert e_u - e_0 - extra >= -1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            exchange_correlation(2.1, 1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            exchange_correlation(1.0, 1.0, 1.0, 2.5)


class TestExcessFactor:
    def test_zero_at_kappa_two(self):
        for n in np.linspace(0, 1, 33):
            assert energy_excess_factor(float(n), 2.0) == 0.0  # exactly

    def test_at_kappa_one(self):
        # f_n(1) = 2 sin(pi n/2)(1 - cos(pi n/2)); at n = 1 the value is 2
        assert energy_excess_factor(1.0, 1.0) == pytest.approx(2.0, rel=1e-14)
        for n in np.linspace(0, 1, 26):
            expect = 2 * math.sin(math.pi * n / 2) * (1 - math.cos(math.pi * n / 2))
            assert energy_excess_factor(float(n), 1.0) == pytest.approx(expect, abs=1e-13)

    def test_zero_at_zero_filling(self):
        for kappa in (1.0, 1.5, 2.0):
            assert energy_excess_factor(0.0, kappa) == 0.0

    def test_accurate_as_kappa_nears_two(self):
        # 50-digit mpmath values of 2 sin(pi n/2) - k sin(pi n/k) at the float
        # kappa_of_u(U/t) for U/t = 1e-4, 1e-2 and 1; near kappa = 2 the two
        # terms cancel, which cost the difference form up to 1.5e-9 relative
        n = np.array([0.05, 0.1, 0.25, 0.5, 0.75, 1.0])
        cases = {
            1.999960730457121: [
                6.3379542908171445e-9, 5.0609848301054547e-8, 7.8057514446123722e-7,
                5.9591804697952553e-6, 1.8576607420583767e-5, 3.9270494140663035e-5,
            ],
            1.9960851458573365: [
                6.3368312031304365e-7, 5.0600698064788212e-6, 7.8041426733714335e-5,
                5.9574044327154251e-4, 1.8568116659814639e-3, 3.9243265752707806e-3,
            ],
            1.699389477915481: [
                6.2140861050705985e-5, 4.9603044852540722e-4, 7.6313132106728309e-3,
                5.7731598957422859e-2, 1.7714964396932639e-1, 3.657927407354697e-1,
            ],
        }
        for kappa, expect in cases.items():
            assert energy_excess_factor(n, kappa) == pytest.approx(expect, rel=1e-12, abs=0)

    def test_nonnegative_on_grid(self):
        n = np.linspace(0, 1, 200)
        kappa = np.linspace(1, 2, 200)
        f = energy_excess_factor(n[:, None], kappa[None, :])
        assert float(np.min(f)) >= -1e-12

    def test_row_blocked_min_is_the_grid_min(self, monkeypatch):
        # 37 rows in blocks of 5, the last holding 2; kappa stops short of 2,
        # where f is 0 on every row, and each roll moves the least row to
        # another block
        n, kappa = np.linspace(0.05, 1.0, 37), np.linspace(1.0, 1.9, 23)
        assert min_excess_factor(n, kappa) == float(np.min(energy_excess_factor(n[:, None], kappa[None, :])))
        calls = []

        def counted(n, kappa):
            calls.append(n.shape[0])
            return energy_excess_factor(n, kappa)

        monkeypatch.setattr(hubbard, "_EXCESS_CELLS", 5 * 23 + 3)
        monkeypatch.setattr(hubbard, "energy_excess_factor", counted)
        mins = set()
        for shift in range(37):
            rolled = np.roll(n, shift)
            calls.clear()
            blocked = min_excess_factor(rolled, kappa)
            assert calls == [5] * 7 + [2]
            assert blocked == float(np.min(energy_excess_factor(rolled[:, None], kappa[None, :])))
            mins.add(blocked)
        assert len(mins) == 1 and mins != {0.0}

    def test_monotone_decreasing_in_kappa(self):
        # finite-difference check of df/dkappa <= 0
        n = np.linspace(0.01, 1.0, 50)
        kappa = np.linspace(1.0 + 1e-4, 2.0 - 1e-4, 50)
        h = 1e-6
        fd = (
            energy_excess_factor(n[:, None], kappa[None, :] + h)
            - energy_excess_factor(n[:, None], kappa[None, :] - h)
        ) / (2 * h)
        assert np.max(fd) <= 1e-8

    def test_matches_energy_difference(self):
        # the factorized e_xc is the energy difference minus the Hartree term
        t, u = 1.4, 3.0
        kappa = kappa_of_u(u / t)
        for n in np.linspace(0.0, 2.0, 41):
            diff = energy_per_site(float(n), t, u, kappa) - energy_per_site(float(n), t, 0.0, 2.0)
            assert exchange_correlation(float(n), t, u, kappa) == pytest.approx(diff - u * n**2 / 4, rel=1e-12)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            energy_excess_factor(1.5, 1.5)
        with pytest.raises(ValueError):
            energy_excess_factor(0.5, 2.5)
        with pytest.raises(ValueError):
            energy_excess_factor(math.nan, 1.5)


class TestExchangeCorrelation:
    def test_free_case_vanishes(self):
        assert exchange_correlation(0.7, 1.0, 0.0, 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_hartree_at_half_filling(self):
        # at n = 1 the Hartree term U n^2/4 is U/4
        u = 3.0
        kappa = kappa_of_u(u)
        excess = (2 / math.pi) * energy_excess_factor(1.0, kappa)
        assert exchange_correlation(1.0, 1.0, u, kappa) + u / 4.0 == pytest.approx(excess, rel=1e-14)

    def test_lower_bound_per_site(self):
        # e_xc >= -U n^2/4 site by site, i.e. the excess part is nonnegative
        rng = rng_stream(2, 6)
        for _ in range(100):
            n = float(rng.uniform(0, 2))
            u = float(rng.uniform(0, 10))
            kappa = float(rng.uniform(1, 2))
            assert exchange_correlation(n, 1.0, u, kappa) >= -u * n**2 / 4 - 1e-12


class TestSiteOccupationBound:
    def test_all_zero_occupation(self):
        assert site_occupation_slack([0.0, 0.0, 0.0], 1.0, 2.0, 1.5) == 0.0

    def test_entries_above_half_filling(self):
        assert site_occupation_slack([1.7, 0.3, 2.0, 1.1], 1.0, 4.0, 1.2) >= -1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        kappa=st.floats(1.0, 2.0),
        u=st.floats(0.0, 12.0),
        seed=st.integers(0, 10_000),
    )
    def test_random_occupations_hold(self, kappa, u, seed):
        rng = rng_stream(seed, 0)
        sites = rng.uniform(0, 2, size=int(rng.integers(1, 10)))
        assert site_occupation_slack(sites, 1.0, u, kappa) >= -1e-10

    def test_sweep_is_the_checked_bound_on_its_draws(self):
        # one exchange_correlation call per case, drawn as the sweep draws:
        # the sweep's single call over all sites gives the same bits
        for seed in (3, 20240801):
            rng = rng_stream(seed, 7)
            slacks = []
            for _ in range(2_000):
                sites = rng.uniform(0, 2, size=int(rng.integers(1, 13)))
                slacks.append(site_occupation_slack(sites, 0.7, float(rng.uniform(0, 8)), float(rng.uniform(1, 2))))
            failures = sum(not s >= -1e-10 for s in slacks)
            assert occupation_sweep(rng_stream(seed, 7), 2_000, 0.7) == (min(slacks), failures)

    def test_occupation_validation(self):
        with pytest.raises(ValueError):
            exchange_correlation(np.array([0.5, 2.1]), 1.0, 2.0, 1.5)
        with pytest.raises(ValueError):
            exchange_correlation(np.array([0.5, 1.5]), 1.0, 2.0, 2.5)


class TestKappaCalibration:
    def test_zero_coupling(self):
        assert kappa_of_u(0.0) == pytest.approx(2.0, abs=1e-12)
        assert lieb_wu_energy(0.0) == -4 / math.pi

    def test_strong_coupling_approaches_one(self):
        assert kappa_of_u(1e4) == pytest.approx(1.0, abs=5e-2)
        assert lieb_wu_energy(1e4) == pytest.approx(0.0, abs=1e-3)

    def test_sweep_stays_in_bracket_and_decreases(self):
        grid = [0.0, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0]
        kappas = [kappa_of_u(r) for r in grid]
        assert all(1.0 <= k <= 2.0 for k in kappas)
        assert all(b < a for a, b in zip(kappas, kappas[1:]))

    def test_lieb_wu_literature_anchor(self):
        # U/t = 4 half-filled energy per site, a standard Bethe-ansatz value
        assert lieb_wu_energy(4.0) == pytest.approx(-0.573729, abs=2e-6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lieb_wu_energy(-1.0)
