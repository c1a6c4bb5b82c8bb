"""Interaction potential families with derivatives and curvature moments.

Families (r >= 0 throughout, all parameters strictly positive):

  Contact              eta * delta(x_i - x_j), strength fixed to eta = 1; no
                       pointwise value, handled analytically by the energy
                       module.
  ApproxContact        v_sigma(r) = 2/sigma - 2 r/sigma^2 on [0, sigma], 0
                       beyond; unit integral, mollifies 2*delta under even
                       extension.
  SoftCoulomb          v_eps(r) = 1/sqrt(r^2 + eps^2); finite at the origin
                       but not convex (v'' < 0 for r < eps/sqrt(2)).
  ConvexSoftCoulomb    the soft Coulomb potential shifted to its inflection
                       point, v_eps(r + r_eps) with r_eps = eps/sqrt(2);
                       convex on [0, inf).
  RegularizedCoulomb   v_beta(r) = (sqrt(pi)/(2 beta)) e^(r^2/(4 beta^2))
                       erfc(r/(2 beta)), the effective interaction of a thin
                       cylindrical wire of radius beta; evaluated through the
                       scaled complement erfcx to avoid overflow.
  Homogeneous          v(r) = r^(eps-1), 0 < eps < 1; approaches the bare
                       Coulomb potential as eps -> 0.

The two curvature moments that drive the logarithmic lower bounds are

  second moment     int_0^gamma  v''(r) r^2 dr = v'(g) g^2 - 2 g v(g) + 2 int_0^g v,
  first tail moment int_gamma^inf v''(r) r  dr = -g v'(g) + v(g),

written once, on ``Potential``; a family supplies int_0^g v (elementary for
both soft Coulomb forms, one adaptive quadrature of v for the regularized
Coulomb potential).  Contact, its mollifier and the homogeneous family keep
their own closed forms.  The bare Coulomb potential r^(-1) is rejected
outright: its second moment diverges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
import scipy.special

from .numerics import Interval, QuadratureSpec, integrate_1d

__all__ = [
    "Potential",
    "Contact",
    "ApproxContact",
    "SoftCoulomb",
    "ConvexSoftCoulomb",
    "RegularizedCoulomb",
    "Homogeneous",
    "MomentBoundConstants",
    "MomentCertification",
    "ContactNotPointwise",
    "DistributionalDerivative",
    "DivergentIntegral",
    "UnsupportedPotential",
    "certify_moment_bounds",
    "certified_constants",
    "fit_constants",
    "default_gamma_grid",
    "from_config",
]


class ContactNotPointwise(TypeError):
    """The contact potential has no pointwise value or moments."""


class DistributionalDerivative(TypeError):
    """Second derivative exists only as a distribution; use the closed-form moments."""


class DivergentIntegral(ValueError):
    """int_0^inf v(r) dr diverges for this family."""


class UnsupportedPotential(ValueError):
    """Requested potential is outside the supported families."""


@dataclass(frozen=True)
class Potential:
    """Base for every family; concrete classes provide values, derivatives and int_0^g v."""

    family = "abstract"

    def value(self, r):
        raise NotImplementedError

    def deriv1(self, r):
        raise NotImplementedError

    def deriv2(self, r):
        raise NotImplementedError

    def _integral_to(self, gamma):
        """int_0^gamma v(r) dr, the one family-specific term of the second moment."""
        raise NotImplementedError

    # Near the largest doubles both moments overflow to inf or nan, which fails
    # the moment certification by itself; numpy's warnings about it are muted.
    def second_moment(self, gamma):
        """int_0^gamma v''(r) r^2 dr, integrated by parts twice."""
        g = np.asarray(gamma, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            return (g * g * self.deriv1(g) - 2 * g * self.value(g) + 2 * self._integral_to(g))[()]

    def first_moment_tail(self, gamma):
        """int_gamma^inf v''(r) r dr, integrated by parts once."""
        g = np.asarray(gamma, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            return (-g * self.deriv1(g) + self.value(g))[()]

    def integral_value(self) -> float:
        """int_0^inf v(r) dr where finite."""
        raise DivergentIntegral(f"int v dr diverges for {self.family}")

    def breakpoints(self) -> tuple:
        """Radii where the potential is non-smooth; quadrature splits there."""
        return ()

    @property
    def length_scale(self) -> float:
        return 1.0

    def to_config(self) -> dict:
        params = {f.name: getattr(self, f.name) for f in fields(self)}
        return {"family": self.family, "params": params}

    def label(self) -> str:
        params = ",".join(f"{k}={v:g}" for k, v in self.to_config()["params"].items())
        return f"{self.family}({params})"


@dataclass(frozen=True)
class Contact(Potential):
    family = "contact"

    def value(self, r):
        raise ContactNotPointwise("contact potential has no pointwise value")

    deriv1 = value
    deriv2 = value

    def second_moment(self, gamma):
        raise ContactNotPointwise("contact potential has no curvature moments")

    first_moment_tail = second_moment


@dataclass(frozen=True)
class ApproxContact(Potential):
    sigma: float
    family = "approx_contact"

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def value(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r < self.sigma, 2.0 / self.sigma - 2.0 * r / self.sigma**2, 0.0)[()]

    def deriv1(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r < self.sigma, -2.0 / self.sigma**2, 0.0)[()]

    def deriv2(self, r):
        raise DistributionalDerivative(
            "v_sigma'' = 2 delta(r - sigma)/sigma^2; moments are supplied in closed form"
        )

    def second_moment(self, gamma):
        # point mass 2 at r = sigma; counted once gamma reaches it
        gamma = np.asarray(gamma, dtype=float)
        return np.where(gamma >= self.sigma, 2.0, 0.0)[()]

    def first_moment_tail(self, gamma):
        gamma = np.asarray(gamma, dtype=float)
        return np.where(gamma < self.sigma, 2.0 / self.sigma, 0.0)[()]

    def integral_value(self) -> float:
        return 1.0

    def breakpoints(self) -> tuple:
        return (self.sigma,)

    @property
    def length_scale(self) -> float:
        return self.sigma


@dataclass(frozen=True)
class _SoftCoulombForm(Potential):
    """v(r) = 1/sqrt((r + shift)^2 + eps^2); the two families differ in the shift."""

    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    @property
    def shift(self) -> float:
        return 0.0

    def value(self, r):
        # hypot keeps r^2 + eps^2 overflow-free out to the largest doubles
        s = np.asarray(r, dtype=float) + self.shift
        return (1.0 / np.hypot(s, self.epsilon))[()]

    def deriv1(self, r):
        s = np.asarray(r, dtype=float) + self.shift
        h = np.hypot(s, self.epsilon)
        with np.errstate(over="ignore", invalid="ignore"):
            return (-(s / h) / h**2)[()]

    def deriv2(self, r):
        s = np.asarray(r, dtype=float) + self.shift
        h = np.hypot(s, self.epsilon)
        with np.errstate(over="ignore"):
            return ((2 * (s / h) ** 2 - (self.epsilon / h) ** 2) / h**3)[()]

    def _integral_to(self, gamma):
        eps, re = self.epsilon, self.shift
        return np.arcsinh((gamma + re) / eps) - math.asinh(re / eps)

    @property
    def length_scale(self) -> float:
        return self.epsilon


class SoftCoulomb(_SoftCoulombForm):
    family = "soft_coulomb"


class ConvexSoftCoulomb(_SoftCoulombForm):
    family = "convex_soft_coulomb"

    @property
    def shift(self) -> float:
        """Inflection-point offset r_eps = eps/sqrt(2)."""
        return self.epsilon / math.sqrt(2.0)


# erfcx'(x) = 2 x erfcx(x) - 2/sqrt(pi) and erfcx''(x) = 2 erfcx + 2 x erfcx'
# cancel catastrophically for large x (both terms approach the same multiple
# of 1/sqrt(pi)); beyond the switch point the asymptotic series in
# u = -1/(2 x^2) is exact to ~1e-14 relative.
_ERFCX_SERIES_SWITCH = 25.0
_DF = np.array([1.0, 1.0, 3.0, 15.0, 105.0, 945.0, 10395.0, 135135.0])  # (2k-1)!!


def _erfcx_piecewise(x, direct, series):
    flat = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(flat)
    small = flat < _ERFCX_SERIES_SWITCH
    if small.any():
        out[small] = direct(flat[small])
    if (~small).any():
        out[~small] = series(flat[~small])
    return out.reshape(np.shape(x))


def _erfcx_d1(x):
    return _erfcx_piecewise(
        x,
        lambda t: 2 * t * scipy.special.erfcx(t) - 2 / math.sqrt(math.pi),
        lambda t: (2 / math.sqrt(math.pi))
        * sum(_DF[k] * (-0.5 / t / t) ** k for k in range(1, 7)),
    )


def _erfcx_d2(x):
    return _erfcx_piecewise(
        x,
        lambda t: (2 + 4 * t * t) * scipy.special.erfcx(t) - 4 * t / math.sqrt(math.pi),
        lambda t: (2 / (math.sqrt(math.pi) * t))
        * sum((_DF[k] - _DF[k + 1]) * (-0.5 / t / t) ** k for k in range(1, 7)),
    )


@dataclass(frozen=True)
class RegularizedCoulomb(Potential):
    beta: float
    family = "regularized_coulomb"

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")

    def value(self, r):
        x = np.asarray(r, dtype=float) / (2 * self.beta)
        return (math.sqrt(math.pi) / (2 * self.beta) * scipy.special.erfcx(x))[()]

    def deriv1(self, r):
        x = np.asarray(r, dtype=float) / (2 * self.beta)
        return (math.sqrt(math.pi) / (4 * self.beta**2) * _erfcx_d1(x))[()]

    def deriv2(self, r):
        x = np.asarray(r, dtype=float) / (2 * self.beta)
        return (math.sqrt(math.pi) / (8 * self.beta**3) * _erfcx_d2(x))[()]

    def _integral_to(self, gamma):
        # no elementary antiderivative; quadrature over sorted segments keeps
        # a gamma grid to one pass
        g = np.atleast_1d(gamma)
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)
        acc = 0.0
        prev = 0.0
        cumulative = np.empty_like(g)
        for idx in np.argsort(g):
            if g[idx] > prev:
                acc += integrate_1d(self.value, Interval(prev, g[idx]), spec)
                prev = g[idx]
            cumulative[idx] = acc
        return cumulative.reshape(np.shape(gamma))

    @property
    def length_scale(self) -> float:
        return self.beta


@dataclass(frozen=True)
class Homogeneous(Potential):
    epsilon: float
    family = "homogeneous"

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError("exponent parameter must lie in (0, 1)")

    def value(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            return (r ** (self.epsilon - 1.0))[()]

    def deriv1(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            return ((self.epsilon - 1.0) * r ** (self.epsilon - 2.0))[()]

    def deriv2(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            e = self.epsilon
            return ((e - 1.0) * (e - 2.0) * r ** (e - 3.0))[()]

    def second_moment(self, gamma):
        g = np.asarray(gamma, dtype=float)
        e = self.epsilon
        return ((e - 1.0) * (e - 2.0) / e * g**e)[()]

    def first_moment_tail(self, gamma):
        g = np.asarray(gamma, dtype=float)
        if np.any(g <= 0):
            raise ValueError("tail moment of the homogeneous potential requires gamma > 0")
        e = self.epsilon
        return ((2.0 - e) * g ** (e - 1.0))[()]


@dataclass(frozen=True)
class MomentBoundConstants:
    """Constants (c1, c2, c3) of the moment-growth conditions.

    second moment <= c1 * ln(1 + c2 * gamma) and tail moment <= c3 / gamma.
    """

    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        if min(self.c1, self.c2, self.c3) <= 0:
            raise ValueError("all constants must be strictly positive")


@dataclass(frozen=True)
class MomentCertification:
    """Grid certification outcome for one (potential, constants) pair."""

    potential: str
    constants: MomentBoundConstants
    n_gamma: int
    max_violation_second: float
    max_violation_tail: float
    passed: bool

    @property
    def max_relative_violation(self) -> float:
        return max(self.max_violation_second, self.max_violation_tail)


def default_gamma_grid(p: Potential, n: int = 200, span=(1e-4, 1e4)) -> np.ndarray:
    """Log-spaced gamma grid over span scaled by the potential's length scale."""
    lo, hi = span
    scale = p.length_scale
    return np.geomspace(lo * scale, hi * scale, n)


def certify_moment_bounds(
    p: Potential,
    constants: MomentBoundConstants,
    gamma_grid=None,
    slack: float = 1e-12,
) -> MomentCertification:
    """Check both moment-growth conditions on every grid gamma.

    The report passes when neither condition is violated beyond ``slack``
    relative on any grid gamma; a nan violation (moments overflowing on the
    grid) fails it.  The moments are smooth and monotone in gamma, so a dense
    log grid plus the monotonicity tests give practical coverage of the
    continuum statement.
    """
    grid = np.asarray(default_gamma_grid(p) if gamma_grid is None else gamma_grid, dtype=float)
    if np.any(grid <= 0):
        raise ValueError("gamma grid must be strictly positive")
    second = np.asarray(p.second_moment(grid), dtype=float)
    tail = np.asarray(p.first_moment_tail(grid), dtype=float)
    bound_second = constants.c1 * np.log1p(constants.c2 * grid)
    bound_tail = constants.c3 / grid
    viol_second = (second - bound_second) / bound_second
    viol_tail = (tail - bound_tail) / bound_tail
    return MomentCertification(
        potential=p.label(),
        constants=constants,
        n_gamma=len(grid),
        max_violation_second=float(np.max(viol_second)),
        max_violation_tail=float(np.max(viol_tail)),
        passed=bool(np.max(viol_second) <= slack and np.max(viol_tail) <= slack),
    )


def certified_constants(p: Potential) -> dict[str, MomentBoundConstants]:
    """Constant sets certified for the two logarithmic-bound families.

    ``primary`` is what the verification suite uses.  The convex soft Coulomb
    potential carries a ``secondary_c2`` variant (2/eps, looser than the
    primary sqrt(2)/eps = 1/r_eps); the regularized Coulomb potential carries
    a ``tight_c3`` variant with the improved tail constant 3.
    """
    if isinstance(p, ConvexSoftCoulomb):
        eps = p.epsilon
        return {
            "primary": MomentBoundConstants(2.0, math.sqrt(2.0) / eps, 2.0),
            "secondary_c2": MomentBoundConstants(2.0, 2.0 / eps, 2.0),
        }
    if isinstance(p, RegularizedCoulomb):
        c2 = math.sqrt(math.pi) / (4 * p.beta)
        return {
            "primary": MomentBoundConstants(4.0, c2, 4.0),
            "tight_c3": MomentBoundConstants(4.0, c2, 3.0),
        }
    raise UnsupportedPotential(f"no certified moment constants for {p.family}")


def fit_constants(p: Potential, gamma_grid=None) -> MomentBoundConstants:
    """Smallest grid-certified constants, keeping the primary c2.

    Empirical values on the given grid only; no optimality claim.
    """
    grid = np.asarray(default_gamma_grid(p) if gamma_grid is None else gamma_grid, dtype=float)
    c2 = certified_constants(p)["primary"].c2
    second = np.asarray(p.second_moment(grid), dtype=float)
    tail = np.asarray(p.first_moment_tail(grid), dtype=float)
    c1_min = float(np.max(second / np.log1p(c2 * grid)))
    c3_min = float(np.max(tail * grid))
    return MomentBoundConstants(c1_min, c2, c3_min)


_FAMILY_MAP = {
    "contact": (Contact, ()),
    "approx_contact": (ApproxContact, ("sigma",)),
    "soft_coulomb": (SoftCoulomb, ("epsilon",)),
    "convex_soft_coulomb": (ConvexSoftCoulomb, ("epsilon",)),
    "regularized_coulomb": (RegularizedCoulomb, ("beta",)),
    "homogeneous": (Homogeneous, ("epsilon",)),
}


def from_config(entry: dict) -> Potential:
    """Build a potential from a {family, params} config entry."""
    if not isinstance(entry, dict) or not isinstance(entry.get("params", {}), dict):
        raise UnsupportedPotential(f"potential entry and its params must be objects, got {entry!r}")
    family = entry.get("family")
    if family in ("coulomb", "bare_coulomb"):
        raise UnsupportedPotential(
            "bare Coulomb potential r^-1 rejected: its curvature second moment "
            "int_0^gamma v''(r) r^2 dr diverges, so no bound of this toolkit applies"
        )
    if family not in _FAMILY_MAP:
        raise UnsupportedPotential(f"unknown potential family {family!r}")
    cls, names = _FAMILY_MAP[family]
    params = dict(entry.get("params", {}))
    unknown = set(params) - set(names)
    if unknown:
        raise UnsupportedPotential(f"unknown parameters {sorted(unknown)} for family {family!r}")
    try:
        values = {name: float(params[name]) for name in names}
        if not all(math.isfinite(v) for v in values.values()):
            raise ValueError(f"parameters must be finite, got {params!r}")
        return cls(**values)
    except KeyError as missing:
        raise UnsupportedPotential(f"family {family!r} requires parameter {missing}") from None
    except (TypeError, ValueError, OverflowError) as err:
        raise UnsupportedPotential(f"family {family!r}: {err}") from None
