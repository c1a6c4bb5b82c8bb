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
                       scaled complement erfcx to avoid overflow (Cody's
                       rational approximations, in this module).
  Homogeneous          v(r) = r^(eps-1), 0 < eps < 1; approaches the bare
                       Coulomb potential as eps -> 0.

The two curvature moments that drive the logarithmic lower bounds are

  second moment     int_0^gamma  v''(r) r^2 dr = v'(g) g^2 - 2 g v(g) + 2 int_0^g v,
  first tail moment int_gamma^inf v''(r) r  dr = -g v'(g) + v(g),

written once, on ``Potential``; a family supplies int_0^g v (elementary for
both soft Coulomb forms, one adaptive quadrature of v for the regularized
Coulomb potential).  Below a tenth of the length scale the by-parts terms of
the second moment cancel (3.6e-6 relative for the regularized Coulomb
potential at gamma = 1e-4 beta), so there it is the integral of r^2 v''(r)
itself, one 15-node Kronrod panel on [0, gamma] per gamma.  Contact, its
mollifier and the homogeneous family keep their own closed forms.  The bare
Coulomb potential r^(-1) is rejected outright: its second moment diverges.

``certify_moment_bounds`` turns a potential and a gamma grid into its rows of
the moments report: one per certified constant set, and the constants fitted
to the grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .numerics import QuadratureSpec, _panels, integrate_1d_with_error

__all__ = [
    "Potential",
    "Contact",
    "ApproxContact",
    "SoftCoulomb",
    "ConvexSoftCoulomb",
    "RegularizedCoulomb",
    "Homogeneous",
    "MomentBoundConstants",
    "ContactNotPointwise",
    "DistributionalDerivative",
    "DivergentIntegral",
    "UnsupportedPotential",
    "certify_moment_bounds",
    "certified_constants",
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

    # Near the ends of the double range both moments overflow, or divide by a
    # square that underflowed to 0, to inf or nan, which fails the moment
    # certification by itself; numpy's warnings about it are muted.
    def second_moment(self, gamma):
        """int_0^gamma v''(r) r^2 dr: by parts twice, or below a tenth of the length scale directly."""
        g = np.asarray(gamma, dtype=float)
        small = g < 0.1 * self.length_scale
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = np.array(g * g * self.deriv1(g) - 2 * g * self.value(g) + 2 * self._integral_to(g))
            if small.any():
                hi = g[small]
                panels = _panels(lambda r: r * r * self.deriv2(r), np.zeros_like(hi), hi)
                out[small] = [math.nan if panel is None else panel[0] for panel in panels]
        return out[()]

    def first_moment_tail(self, gamma):
        """int_gamma^inf v''(r) r dr, integrated by parts once."""
        g = np.asarray(gamma, dtype=float)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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

    # sigma^2 as numpy's power, which overflows to inf instead of raising
    def value(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore"):
            sigma_sq = np.float64(self.sigma) ** 2
        return np.where(r < self.sigma, 2.0 / self.sigma - 2.0 * r / sigma_sq, 0.0)[()]

    def deriv1(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore"):
            sigma_sq = np.float64(self.sigma) ** 2
        return np.where(r < self.sigma, -2.0 / sigma_sq, 0.0)[()]

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


# erfcx(x) = e^(x^2) erfc(x) for x >= 0 by W. J. Cody's rational
# approximations (netlib CALERF with jint = 2; Math. Comp. 23, 631, 1969):
# e^(x^2) (1 - x R(x^2)) on x <= 0.46875, a rational in x on (0.46875, 4],
# one in 1/x^2 on (4, 6.71e7] and 1/(sqrt(pi) x) beyond.  Each rational is
# Cody's Horner recurrence; at most 5 ulp from the exact value (checked
# against mpmath).  Numerator and denominator run as the real and imaginary
# parts of one complex array: adding a_k + i b_k and multiplying by t + 0i
# are, part by part, Cody's real operations, in half the numpy calls.
_CODY_SPLITS = np.array([0.46875, 4.0, 6.71e7])


def _cody_pairs(lead, num, den):
    """(lead + i, [a_k + i b_k]): the leading 1 is the denominator's implicit one."""
    return complex(lead, 1.0), [complex(a, b) for a, b in zip(num, den)]


_CODY_SMALL = _cody_pairs(
    1.85777706184603153e-1,
    (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02, 3.20937758913846947e03),
    (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03, 2.84423683343917062e03),
)
_CODY_MID = _cody_pairs(
    2.15311535474403846e-8,
    (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01, 2.98635138197400131e02,
     8.81952221241769090e02, 1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03),
    (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02, 1.62138957456669019e03,
     3.29079923573345963e03, 4.36261909014324716e03, 3.43936767414372164e03, 1.23033935480374942e03),
)
_CODY_LARGE = _cody_pairs(
    1.63153871373020978e-2,
    (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1, 1.60837851487422766e-2,
     6.58749161529837803e-4),
    (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1, 6.05183413124413191e-2,
     2.33520497626869185e-3),
)
_SQRT_PI_INV = 5.6418958354775628695e-1


def _cody_ratio(t, pairs):
    """Cody's numerator and denominator at t: xnum = (xnum + a_k) t, xden = (xden + b_k) t."""
    lead, steps = pairs
    tc = t.astype(complex)
    acc = lead * tc
    for c in steps[:-1]:
        acc += c
        acc *= tc
    acc += steps[-1]
    return acc.real, acc.imag


def _erfcx_sorted(y):
    """erfcx on a 1-D array sorted ascending, x >= 0 (nan last); one slice per approximation."""
    if len(y) and y[0] < 0:
        raise ValueError("erfcx is evaluated on x >= 0 only")
    out = np.empty_like(y)
    i, j, k = np.searchsorted(y, _CODY_SPLITS, side="right").tolist()
    if i:
        ysq = y[:i] * y[:i]
        xnum, xden = _cody_ratio(ysq, _CODY_SMALL)
        xnum *= y[:i]
        xnum /= xden
        np.subtract(1.0, xnum, out=xnum)
        np.multiply(np.exp(ysq, out=ysq), xnum, out=out[:i])
    if j > i:
        np.divide(*_cody_ratio(y[i:j], _CODY_MID), out=out[i:j])
    if k > j:
        ysq = y[j:k] * y[j:k]
        np.divide(1.0, ysq, out=ysq)
        xnum, xden = _cody_ratio(ysq, _CODY_LARGE)
        xnum *= ysq
        xnum /= xden
        np.subtract(_SQRT_PI_INV, xnum, out=xnum)
        np.divide(xnum, y[j:k], out=out[j:k])
    if len(y) > k:
        np.divide(_SQRT_PI_INV, y[k:], out=out[k:])
    return out


def _erfcx(x):
    """erfcx(x) for x >= 0, of any shape; sorted input (quadrature nodes, gamma grids) is not re-sorted."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    if (flat[1:] >= flat[:-1]).all():
        return _erfcx_sorted(flat).reshape(x.shape)
    order = np.argsort(flat)
    out = np.empty_like(flat)
    out[order] = _erfcx_sorted(flat[order])
    return out.reshape(x.shape)


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
        lambda t: 2 * t * _erfcx(t) - 2 / math.sqrt(math.pi),
        lambda t: (2 / math.sqrt(math.pi))
        * sum(_DF[k] * (-0.5 / t / t) ** k for k in range(1, 7)),
    )


def _erfcx_d2(x):
    return _erfcx_piecewise(
        x,
        lambda t: (2 + 4 * t * t) * _erfcx(t) - 4 * t / math.sqrt(math.pi),
        lambda t: (2 / (math.sqrt(math.pi) * t))
        * sum((_DF[k] - _DF[k + 1]) * (-0.5 / t / t) ** k for k in range(1, 7)),
    )


# Segments per quadrature call of RegularizedCoulomb._integral_to: the
# default 200-point moments grid is one call, and a denser grid's peak memory
# stays that of one full call (about 4.4 kB per segment).
_SEGMENTS_PER_CALL = 256


@dataclass(frozen=True)
class RegularizedCoulomb(Potential):
    beta: float
    family = "regularized_coulomb"

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")

    def value(self, r):
        x = np.asarray(r, dtype=float) / (2 * self.beta)
        return (math.sqrt(math.pi) / (2 * self.beta) * _erfcx(x))[()]

    # numpy's beta**k is Python's pow, but overflows to inf instead of raising
    def deriv1(self, r):
        x = np.asarray(r, dtype=float) / (2 * self.beta)
        return (math.sqrt(math.pi) / (4 * np.float64(self.beta) ** 2) * _erfcx_d1(x))[()]

    def deriv2(self, r):
        x = np.asarray(r, dtype=float) / (2 * self.beta)
        return (math.sqrt(math.pi) / (8 * np.float64(self.beta) ** 3) * _erfcx_d2(x))[()]

    def _integral_to(self, gamma):
        # no elementary antiderivative: many-job quadratures price the
        # segments between the sorted, distinct positive gammas, and their
        # running sum from 0.0 is the value at each (0.0 at gamma <= 0).  A
        # call takes at most _SEGMENTS_PER_CALL segments, which bounds its
        # work arrays; each segment has the bits of its lone run either way.
        g = np.atleast_1d(gamma)
        ends = sorted(set(g[g > 0].tolist()))
        jobs = [(0, None, piece) for piece in zip([0.0, *ends[:-1]], ends)]
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)
        parts = []
        for i in range(0, len(jobs), _SEGMENTS_PER_CALL):
            parts += integrate_1d_with_error(lambda r: self.value(r)[None], jobs[i : i + _SEGMENTS_PER_CALL], spec)
        cumulative = np.cumsum([0.0] + [value for value, _ in parts])
        return cumulative[np.searchsorted(ends, g, side="right")].reshape(np.shape(gamma))

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


def default_gamma_grid(p: Potential, n: int, span) -> np.ndarray:
    """n log-spaced gammas over span times the length scale; ValueError if an end is 0 or inf."""
    lo, hi = (end * p.length_scale for end in span)
    if not (0.0 < lo < math.inf and 0.0 < hi < math.inf):
        raise ValueError(f"span {list(span)} times the length scale of {p.label()} is [{lo:g}, {hi:g}]")
    return np.geomspace(lo, hi, n)


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


def certify_moment_bounds(p: Potential, grid) -> list[dict]:
    """The moment-certification report rows of ``p`` on the gamma grid.

    Both moments are evaluated once.  A certified constant set passes when
    neither moment-growth condition is violated by more than 1e-12 relative
    on any grid gamma; a nan violation (moments overflowing on the grid)
    fails it.  The moments are smooth and monotone in gamma, so a dense log
    grid plus the monotonicity tests give practical coverage of the
    continuum statement.  The last row, ``grid_fitted_empirical``, holds the
    smallest c1 and c3 that hold on the grid at the primary c2 (empirical,
    no optimality claim), so it violates nothing there; it fails when a
    fitted constant is not finite or not positive (moments overflowing, or
    underflowing to 0).
    """
    grid = np.asarray(grid, dtype=float)
    second, tail = p.second_moment(grid), p.first_moment_tail(grid)

    def row(variant, c1, c2, c3, violation, passed):
        return {
            "potential": p.label(),
            "variant": variant,
            "c1": c1,
            "c2": c2,
            "c3": c3,
            "n_gamma": len(grid),
            "max_rel_violation": violation,
            "status": "pass" if passed else "fail",
        }

    variants = certified_constants(p)
    rows = []
    for variant, c in variants.items():
        bound_second = c.c1 * np.log1p(c.c2 * grid)
        bound_tail = c.c3 / grid
        worst_second = float(np.max((second - bound_second) / bound_second))
        worst_tail = float(np.max((tail - bound_tail) / bound_tail))
        passed = worst_second <= 1e-12 and worst_tail <= 1e-12
        rows.append(row(variant, c.c1, c.c2, c.c3, max(worst_second, worst_tail), passed))
    c2 = variants["primary"].c2
    c1 = float(np.max(second / np.log1p(c2 * grid)))
    c3 = float(np.max(tail * grid))
    fitted = all(math.isfinite(c) and c > 0 for c in (c1, c3))
    rows.append(row("grid_fitted_empirical", c1, c2, c3, 0.0 if fitted else math.nan, fitted))
    return rows


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
    if not isinstance(family, str):
        raise UnsupportedPotential(f"potential family must be a name, got {family!r}")
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
        # booleans and strings are not numbers, as for every other config number
        if any(isinstance(params[n], bool) or not isinstance(params[n], (int, float)) for n in names):
            raise ValueError(f"parameters must be numbers, got {params!r}")
        values = {name: float(params[name]) for name in names}
        if not all(math.isfinite(v) for v in values.values()):
            raise ValueError(f"parameters must be finite, got {params!r}")
        # the integrals of a subnormal scale are not finite
        if any(0.0 < abs(v) < sys.float_info.min for v in values.values()):
            raise ValueError(f"subnormal parameters (below {sys.float_info.min!r}) are out of range, got {params!r}")
        return cls(**values)
    except KeyError as missing:
        raise UnsupportedPotential(f"family {family!r} requires parameter {missing}") from None
    except (TypeError, ValueError, OverflowError) as err:
        raise UnsupportedPotential(f"family {family!r}: {err}") from None
