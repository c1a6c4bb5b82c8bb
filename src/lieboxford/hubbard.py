"""Bethe-ansatz-interpolated Hubbard energies and the site-occupation bound.

The homogeneous 1D Hubbard model (hopping t > 0, on-site repulsion U >= 0)
has the interpolated ground-state energy per site

    e(n, t, U) = -(2 t k / pi) sin(pi n / k),        0 <= n <= 1,
    e(n, t, U) = e(2 - n, t, U) + U (n - 1),         1 <  n <= 2,

with k = kappa(U/t) in [1, 2] fixed by matching the half-filled energy to
the exact Lieb-Wu value

    e_LW(U/t) = -4 t int_0^inf J0(x) J1(x) / (x (1 + exp(x U/(2 t)))) dx.

The interaction-induced energy excess factorizes as

    e(n, t, U) - e(n, t, 0) = (2 t / pi) f_n(kappa),
    f_n(k) = 2 sin(pi n / 2) - k sin(pi n / k),

which is nonnegative on [0, 1] x [1, 2] (f_n(2) = 0 identically and
f_n(1) = 2 sin(pi n/2)(1 - cos(pi n/2)) >= 0, with f_n decreasing in k).
With the Hartree energy e_H(n, U) = U n^2 / 4 this yields the
site-occupation lower bound

    E_xc = sum_i e_xc(n_i) >= -(U/4) sum_i n_i^2 .
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.special

from .numerics import Interval, NoBracket, QuadratureSpec, find_root, integrate_1d

__all__ = [
    "HubbardPoint",
    "OccupationVector",
    "energy_per_site",
    "energy_excess_factor",
    "exchange_correlation",
    "verify_site_occupation_bound",
    "lieb_wu_energy",
    "kappa_of_u",
]


@dataclass(frozen=True)
class HubbardPoint:
    """Band filling n in [0, 2], hopping t > 0, repulsion U >= 0, kappa in [1, 2]."""

    n: float
    t: float
    u: float
    kappa: float

    def __post_init__(self):
        if not 0 <= self.n <= 2:
            raise ValueError("filling must lie in [0, 2]")
        if self.t <= 0:
            raise ValueError("hopping must be positive")
        if self.u < 0:
            raise ValueError("repulsion must be nonnegative")
        if not 1 <= self.kappa <= 2:
            raise ValueError("kappa must lie in [1, 2]")


@dataclass(frozen=True, eq=False)
class OccupationVector:
    """Site occupations n_i in [0, 2]."""

    sites: tuple

    def __post_init__(self):
        sites = tuple(float(s) for s in self.sites)
        if any(not 0 <= s <= 2 for s in sites):
            raise ValueError("site occupations must lie in [0, 2]")
        object.__setattr__(self, "sites", sites)


def _energy_low(n, t, kappa):
    return -(2 * t * kappa / math.pi) * np.sin(math.pi * np.asarray(n) / kappa)


def energy_per_site(pt: HubbardPoint):
    """e(n, t, U); fillings above 1 go through particle-hole reflection."""
    n = np.asarray(pt.n, dtype=float)
    low = _energy_low(np.minimum(n, 2 - n), pt.t, pt.kappa)
    return (np.where(n <= 1, low, low + pt.u * (n - 1)))[()]


def energy_excess_factor(n, kappa):
    """f_n(k) = 2 sin(pi n/2) - k sin(pi n/k) on [0, 1] x [1, 2]; f >= 0."""
    n = np.asarray(n, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    if np.any((n < 0) | (n > 1)):
        raise ValueError("filling must lie in [0, 1] for the excess factor")
    if np.any((kappa < 1) | (kappa > 2)):
        raise ValueError("kappa must lie in [1, 2]")
    return (2 * np.sin(math.pi * n / 2) - kappa * np.sin(math.pi * n / kappa))[()]


@dataclass(frozen=True)
class ExchangeCorrelation:
    e_xc: float
    excess: float      # e(n,t,U) - e(n,t,0) = (2t/pi) f >= 0
    hartree: float     # U n^2 / 4


def exchange_correlation(pt: HubbardPoint) -> ExchangeCorrelation:
    """e_xc = e(n,t,U) - e(n,t,0) - U n^2/4; the noninteracting part has kappa = 2."""
    e_int = float(energy_per_site(pt))
    e_free = float(energy_per_site(HubbardPoint(pt.n, pt.t, 0.0, 2.0)))
    hart = pt.u * pt.n**2 / 4.0
    return ExchangeCorrelation(e_int - e_free - hart, e_int - e_free, hart)


def verify_site_occupation_bound(occ: OccupationVector, t: float, u: float, kappa: float) -> dict:
    """Check sum_i e_xc(n_i) >= -(U/4) sum_i n_i^2 at a fixed kappa.

    Returns the slack (left minus right side) and the verdict, which holds
    to an absolute tolerance of 1e-10.  Runs at any kappa in [1, 2] (the
    bound is kappa-uniform), so sweeps do not depend on the half-filling
    calibration of kappa(U/t).
    """
    sites = np.asarray(occ.sites)
    m = np.minimum(sites, 2 - sites)
    f = energy_excess_factor(m, kappa)
    excess = (2 * t / math.pi) * f + np.where(sites > 1, u * (sites - 1), 0.0)
    e_xc = excess - u * sites**2 / 4.0
    slack = float(np.sum(e_xc)) + (u / 4.0) * float(np.sum(sites**2))
    return {"slack": slack, "holds": slack >= -1e-10}


# Fermi weight 1/(1 + e^z) evaluated stably for large arguments.
def _fermi(z):
    return scipy.special.expit(-z)


@lru_cache(maxsize=4096)
def lieb_wu_energy(u_over_t: float) -> float:
    """Exact half-filling ground-state energy per site, units of t.

    e_LW = -4 int_0^inf J0(x) J1(x) / (x (1 + exp(x U/(2t)))) dx;
    the integrand is cut where the Fermi factor is below 1e-13 (U > 0).
    At U = 0 the Bessel integral is 2/pi exactly, giving -4/pi.
    """
    r = float(u_over_t)
    if r < 0:
        raise ValueError("U/t must be nonnegative")
    if r == 0.0:
        return -4.0 / math.pi

    def integrand(x):
        # J0 J1/x -> 1/2 as x -> 0; nodes are interior so x > 0 always.  At
        # U/t near the float maximum x r overflows to inf, whose weight is 0.
        with np.errstate(over="ignore"):
            return scipy.special.j0(x) * scipy.special.j1(x) / x * _fermi(x * r / 2.0)

    damp = 2 * math.log(1e13) / r  # Fermi factor below 1e-13 beyond this
    upper = min(max(damp, 24.0), 2.0e4)
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11, max_subdivisions=20000)
    # split so the strong-coupling boundary layer (width ~ 1/r) is seen by
    # the initial panels even when the oscillatory range extends to 24+
    val = integrate_1d(integrand, Interval(0.0, min(damp, upper)), spec)
    if damp < upper:
        val += integrate_1d(integrand, Interval(damp, upper), spec)
    return -4.0 * float(val)


def kappa_of_u(u_over_t: float) -> float:
    """kappa(U/t) in [1, 2]: -(2 k/pi) sin(pi/k) = e_LW(U/t).

    The left side decreases from 0 (k = 1) to -4/pi (k = 2), so the match is
    unique; raises NoBracket if the target leaves that range, or comes
    within rounding of its end 0: sin(pi) evaluates to 1.2e-16, not 0, so
    past U/t ~ 3.6e16 the two ends of [1, 2] have the same sign.
    """
    target = lieb_wu_energy(u_over_t)

    def g(k):
        return -(2 * k / math.pi) * math.sin(math.pi / k) - target

    try:
        return find_root(g, Interval(1.0, 2.0))
    except NoBracket:
        raise NoBracket(
            f"Lieb-Wu energy {target:.3e} outside the interpolation range [-4/pi, 0] "
            "or within rounding of its end 0"
        ) from None
