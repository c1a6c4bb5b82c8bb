import math

import numpy as np
import pytest

from lieboxford.numerics import Interval, NonConvergence, QuadratureSpec, integrate_1d, rng_stream
from lieboxford.potentials import (
    ApproxContact,
    Contact,
    ContactNotPointwise,
    ConvexSoftCoulomb,
    DistributionalDerivative,
    DivergentIntegral,
    Homogeneous,
    MomentBoundConstants,
    RegularizedCoulomb,
    SoftCoulomb,
    UnsupportedPotential,
    certified_constants,
    certify_moment_bounds,
    default_gamma_grid,
    from_config,
)
from lieboxford import potentials
from lieboxford.report import write_reports
from oracles import ShiftedPotential, erfcx_sandwich, integrate_1d_components, segment_integral_to

SMOOTH_FAMILIES = [
    lambda p: SoftCoulomb(p),
    lambda p: ConvexSoftCoulomb(p),
    lambda p: RegularizedCoulomb(p),
]


class TestValues:
    def test_regularized_at_origin(self):
        beta = 0.7
        assert RegularizedCoulomb(beta).value(0.0) == pytest.approx(
            math.sqrt(math.pi) / (2 * beta), rel=1e-14
        )

    def test_convex_soft_at_origin(self):
        assert ConvexSoftCoulomb(1.0).value(0.0) == pytest.approx(math.sqrt(2 / 3), rel=1e-14)

    def test_approx_contact_support(self):
        p = ApproxContact(0.4)
        assert p.value(0.0) == pytest.approx(5.0)
        assert p.value(0.4) == 0.0
        assert p.value(2.0) == 0.0
        assert p.integral_value() == 1.0

    def test_approx_contact_huge_sigma(self):
        # sigma^2 overflows to inf: v = 2/sigma - 0 and v' = -0 inside, with
        # no OverflowError and no warning
        p = ApproxContact(1e300)
        r = np.array([0.0, 1.0, 1e299, 2e300])
        assert p.value(r).tolist() == [2e-300, 2e-300, 2e-300, 0.0]
        assert p.deriv1(r).tolist() == [0.0, 0.0, 0.0, 0.0]
        assert p.value(0.5) == 2e-300 and p.deriv1(0.5) == 0.0

    def test_contact_not_pointwise(self):
        with pytest.raises(ContactNotPointwise):
            Contact().value(1.0)
        with pytest.raises(ContactNotPointwise):
            Contact().second_moment(1.0)

    def test_homogeneous_derivatives(self):
        p = Homogeneous(0.5)
        assert p.deriv2(1.0) == pytest.approx(0.75, rel=1e-14)
        assert p.value(4.0) == pytest.approx(0.5, rel=1e-14)

    def test_parameter_validation(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                ApproxContact(bad)
            with pytest.raises(ValueError):
                ConvexSoftCoulomb(bad)
        with pytest.raises(ValueError):
            Homogeneous(1.0)


class TestDerivatives:
    @pytest.mark.parametrize("make", SMOOTH_FAMILIES)
    @pytest.mark.parametrize("param", [0.3, 1.0, 2.5])
    def test_deriv1_matches_finite_differences(self, make, param):
        p = make(param)
        h = 1e-6 * max(1.0, param)
        for r in (0.1, 0.7, 2.0, 8.0):
            fd = (p.value(r + h) - p.value(r - h)) / (2 * h)
            assert p.deriv1(r) == pytest.approx(fd, rel=1e-6, abs=1e-10)

    @pytest.mark.parametrize("make", SMOOTH_FAMILIES)
    def test_deriv2_matches_finite_differences(self, make):
        p = make(1.0)
        h = 1e-4  # roundoff of the second difference ~ eps/h^2 = 2e-8 absolute
        for r in (0.2, 1.0, 3.0):
            fd = (p.value(r + h) - 2 * p.value(r) + p.value(r - h)) / h**2
            assert p.deriv2(r) == pytest.approx(fd, rel=5e-6, abs=1e-7)

    def test_convexity_of_convex_families(self):
        r = np.geomspace(1e-6, 1e3, 400)
        for p in (ConvexSoftCoulomb(0.5), RegularizedCoulomb(2.0), Homogeneous(0.25)):
            assert np.all(p.deriv2(r) >= 0)
        assert ConvexSoftCoulomb(1.0).deriv2(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_soft_coulomb_not_convex_near_origin(self):
        p = SoftCoulomb(1.0)
        assert p.deriv2(0.0) < 0
        assert p.deriv2(1.0) > 0

    def test_approx_contact_distributional(self):
        with pytest.raises(DistributionalDerivative):
            ApproxContact(1.0).deriv2(0.5)

    def test_decay_conditions(self):
        # v(r) * r stays bounded and v'(r) * r -> 0 on a log grid
        r = np.geomspace(1.0, 1e6, 60)
        for p in (ConvexSoftCoulomb(1.0), RegularizedCoulomb(1.0)):
            vr = np.asarray(p.value(r)) * r
            assert np.all(np.isfinite(vr)) and np.all(vr <= 1.5)
            d1r = np.abs(np.asarray(p.deriv1(r)) * r)
            assert d1r[-1] < 1e-5
            assert np.all(np.diff(d1r[r > 10]) < 0)


class TestMoments:
    def test_homogeneous_anchor(self):
        p = Homogeneous(0.5)
        assert p.second_moment(1.0) == pytest.approx(1.5, rel=1e-14)
        assert p.first_moment_tail(1.0) == pytest.approx(1.5, rel=1e-14)

    def test_approx_contact_moments(self):
        p = ApproxContact(0.8)
        assert p.second_moment(1.0) == 2.0
        assert p.second_moment(0.5) == 0.0
        assert p.second_moment(0.0) == 0.0
        assert p.first_moment_tail(0.5) == pytest.approx(2.0 / 0.8)
        assert p.first_moment_tail(1.0) == 0.0

    def test_convex_soft_tail_at_zero(self):
        eps = 1.3
        assert ConvexSoftCoulomb(eps).first_moment_tail(0.0) == pytest.approx(
            math.sqrt(2 / 3) / eps, rel=1e-14
        )

    def test_zero_gamma_zero_second_moment(self):
        for p in (SoftCoulomb(1.0), ConvexSoftCoulomb(1.0), RegularizedCoulomb(1.0)):
            assert p.second_moment(0.0) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize(
        "p, expected",
        [
            (SoftCoulomb(1.0), (-3.3333332433333352e-13, -3.3324334672448931e-7, -4.1386459670409417e-5)),
            (ConvexSoftCoulomb(1.0), (2.5656625110263346e-17, 2.5322290166164682e-9, 1.4995608723806397e-6)),
            (RegularizedCoulomb(1.0), (1.4769198824010211e-13, 1.4646110659822045e-7, 1.7702155469665205e-5)),
        ],
        ids=["soft", "convex_soft", "regularized"],
    )
    def test_small_gamma_second_moment(self, p, expected):
        # 50-digit mpmath values of g^2 v'(g) - 2 g v(g) + 2 int_0^g v at
        # g = 1e-4, 1e-2 and 0.05 (a length scale of 1), where the double
        # precision by-parts terms cancel
        gammas = np.array([1e-4, 1e-2, 0.05])
        assert p.second_moment(gammas) == pytest.approx(expected, rel=1e-11, abs=0)
        for g, value in zip(gammas, expected):
            assert p.second_moment(g) == pytest.approx(value, rel=1e-11, abs=0)

    def test_regularized_tail_bound(self):
        # tail moment <= 3/gamma (improved tail constant)
        p = RegularizedCoulomb(0.9)
        g = np.geomspace(1e-3, 1e3, 50)
        assert np.all(p.first_moment_tail(g) <= 3.0 / g + 1e-15)

    def test_closed_forms_match_quadrature(self):
        # 50 random (family, parameter, gamma) triples, both moments
        rng = rng_stream(7, 0)
        makers = [ConvexSoftCoulomb, RegularizedCoulomb, SoftCoulomb, Homogeneous]
        for _ in range(50):
            cls = makers[rng.integers(len(makers))]
            param = float(rng.uniform(0.3, 2.5)) if cls is not Homogeneous else float(rng.uniform(0.15, 0.85))
            p = cls(param)
            gamma = float(10 ** rng.uniform(-1, 1))
            quad_second = integrate_1d(lambda r: p.deriv2(r) * r * r, Interval(0.0, gamma))
            assert p.second_moment(gamma) == pytest.approx(quad_second, rel=1e-8, abs=1e-10)
            quad_tail = integrate_1d_components(lambda r: p.deriv2(r) * r, (gamma, math.inf))
            assert p.first_moment_tail(gamma) == pytest.approx(quad_tail, rel=1e-8, abs=1e-10)

    def test_monotonicity_in_gamma(self):
        g = np.geomspace(1e-3, 1e3, 120)
        for p in (ConvexSoftCoulomb(0.7), RegularizedCoulomb(1.4), Homogeneous(0.5), ApproxContact(1.0)):
            second = np.asarray(p.second_moment(g))
            tail = np.asarray(p.first_moment_tail(g))
            assert np.all(np.diff(second) >= -1e-12)
            assert np.all(np.diff(tail) <= 1e-12)
            assert np.all(second >= 0) and np.all(tail >= 0)

    def test_regularized_value_upper_bound(self):
        # v_beta(r) <= 2/(r + sqrt(r^2 + 4 beta^2/pi)): the erfcx sandwich's upper side
        p = RegularizedCoulomb(0.6)
        r = np.geomspace(1e-4, 1e3, 200)
        upper = math.sqrt(math.pi) / (2 * p.beta) * erfcx_sandwich(r / (2 * p.beta))[1]
        assert np.all(np.asarray(p.value(r)) <= upper * (1 + 1e-13))

    @pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
    def test_regularized_integral_to_is_one_call_with_the_segment_bits(self, beta, monkeypatch):
        # unsorted, with duplicates, 0 and a negative value: every segment
        # between the distinct positive gammas in one many-job call, with the
        # bits of the segments run one by one and summed in order
        gammas = np.array([3.0, 0.5, -1.0, 12.0, 3.0, 0.0, 1e-3, 0.5, 7.25])
        calls = []
        quadrature = potentials.integrate_1d_with_error

        def counted(*args, **kwargs):
            calls.append(args)
            return quadrature(*args, **kwargs)

        monkeypatch.setattr(potentials, "integrate_1d_with_error", counted)
        p = RegularizedCoulomb(beta)
        ours = p._integral_to(gammas)
        reference = segment_integral_to(p, gammas, QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12))
        assert ours.tobytes() == reference.tobytes()
        assert len(calls) == 1
        assert ours[2] == ours[5] == 0.0

    def test_dense_regularized_grid_caps_each_call(self, monkeypatch, tmp_path):
        # 6,000 gammas run in calls of at most _SEGMENTS_PER_CALL segments; the
        # largest integrand batch is a full call's first round, 4 panels of 15
        # nodes per segment, and the report equals one uncapped call's
        p = RegularizedCoulomb(1.0)
        grid = default_gamma_grid(p, 6000, [1e-4, 1e4])
        calls, batches = [], []
        quadrature = potentials.integrate_1d_with_error

        def recorded(f, jobs, spec):
            calls.append(len(jobs))
            return quadrature(lambda x: batches.append(x.size) or f(x), jobs, spec)

        monkeypatch.setattr(potentials, "integrate_1d_with_error", recorded)
        cap = potentials._SEGMENTS_PER_CALL
        assert cap >= 200  # the default moments grid stays one call
        write_reports(certify_moment_bounds(p, grid), tmp_path / "capped.csv")
        assert calls == [cap] * (6000 // cap) + [6000 % cap]
        assert max(batches) == cap * 4 * 15
        monkeypatch.setattr(potentials, "_SEGMENTS_PER_CALL", 10**9)
        calls.clear()
        batches.clear()
        write_reports(certify_moment_bounds(p, grid), tmp_path / "uncapped.csv")
        assert calls == [6000] and max(batches) == 6000 * 4 * 15
        assert (tmp_path / "capped.csv").read_bytes() == (tmp_path / "uncapped.csv").read_bytes()


class TestIntegralValue:
    def test_divergent_families(self):
        for p in (ConvexSoftCoulomb(1.0), RegularizedCoulomb(1.0), SoftCoulomb(1.0), Homogeneous(0.5)):
            with pytest.raises(DivergentIntegral):
                p.integral_value()


def certification_rows(p) -> dict:
    """certify_moment_bounds rows of ``p`` by variant, on the default moments grid."""
    grid = default_gamma_grid(p, 200, (1e-4, 1e4))
    return {row["variant"]: row for row in certify_moment_bounds(p, grid)}


class TestCertification:
    @pytest.mark.parametrize("eps", [0.1, 1.0, 10.0])
    def test_convex_soft_primary_constants(self, eps):
        row = certification_rows(ConvexSoftCoulomb(eps))["primary"]
        assert row["status"] == "pass"
        assert row["max_rel_violation"] <= 0

    @pytest.mark.parametrize("eps", [0.1, 1.0, 10.0])
    def test_convex_soft_secondary_c2(self, eps):
        assert certification_rows(ConvexSoftCoulomb(eps))["secondary_c2"]["status"] == "pass"

    @pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
    def test_regularized_constants_including_tight_tail(self, beta):
        rows = certification_rows(RegularizedCoulomb(beta))
        assert rows["primary"]["status"] == "pass"
        assert rows["tight_c3"]["status"] == "pass"

    def test_homogeneous_fails(self, monkeypatch):
        # r^(-1/2) has no certified constants; too small ones are caught
        monkeypatch.setattr(
            potentials, "certified_constants", lambda p: {"primary": MomentBoundConstants(2.0, 1.0, 2.0)}
        )
        row = certification_rows(Homogeneous(0.5))["primary"]
        assert row["status"] == "fail"
        assert row["max_rel_violation"] > 0

    def test_fit_constants_are_certified_and_no_larger(self, monkeypatch):
        for p in [ConvexSoftCoulomb(x) for x in (0.1, 1.0, 10.0)] + [
            RegularizedCoulomb(x) for x in (0.1, 1.0, 10.0)
        ]:
            primary = certified_constants(p)["primary"]
            row = certification_rows(p)["grid_fitted_empirical"]
            assert row["status"] == "pass" and row["max_rel_violation"] == 0.0
            assert row["c2"] == primary.c2
            assert row["c1"] <= primary.c1 + 1e-12
            assert row["c3"] <= primary.c3 + 1e-12
            fitted = MomentBoundConstants(row["c1"], row["c2"], row["c3"])
            monkeypatch.setattr(potentials, "certified_constants", lambda p: {"primary": fitted})
            refit = certification_rows(p)["primary"]
            monkeypatch.undo()
            assert refit["status"] == "pass"
            assert refit["max_rel_violation"] <= 1e-12

    def test_gamma_grid_spans_scale(self):
        grid = default_gamma_grid(RegularizedCoulomb(10.0), 200, (1e-4, 1e4))
        assert grid[0] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(1e5)
        assert len(grid) == 200


class TestShifted:
    def test_shift_passthrough(self):
        base = RegularizedCoulomb(1.0)
        c = base.value(0.0)
        shifted = ShiftedPotential(base, c)
        assert shifted.value(0.0) == pytest.approx(0.0, abs=1e-15)
        assert shifted.deriv1(1.0) == base.deriv1(1.0)
        assert shifted.value(2.0) == pytest.approx(base.value(2.0) - c)


class TestSerialization:
    @pytest.mark.parametrize(
        "p",
        [
            Contact(),
            ApproxContact(0.5),
            SoftCoulomb(1.2),
            ConvexSoftCoulomb(0.4),
            RegularizedCoulomb(2.0),
            Homogeneous(0.3),
        ],
    )
    def test_round_trip(self, p):
        assert from_config(p.to_config()) == p

    def test_bare_coulomb_rejected_with_divergence_message(self):
        with pytest.raises(UnsupportedPotential, match="diverges"):
            from_config({"family": "coulomb", "params": {}})

    def test_unknown_family(self):
        with pytest.raises(UnsupportedPotential):
            from_config({"family": "yukawa", "params": {}})

    def test_missing_parameter(self):
        with pytest.raises(UnsupportedPotential):
            from_config({"family": "approx_contact", "params": {}})

    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_boolean_or_string_parameter_rejected(self, value):
        # float() would read them as 1.0 and 0.5
        with pytest.raises(UnsupportedPotential, match="must be numbers"):
            from_config({"family": "soft_coulomb", "params": {"epsilon": value}})
