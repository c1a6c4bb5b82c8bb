"""Shared numerical kernels: adaptive quadrature, root finding, RNG.

The quadrature kernel is an adaptive Gauss-Kronrod (G7/K15, QUADPACK dqk15)
scheme over scalar integrands, ``f`` mapping an ``(m,)`` node array to ``(m,)``
values, on a finite ``Interval``: every integral of the package runs over a
bounded range (a state's support, a curvature-moment window, the cut-off
Lieb-Wu integral).  ``f`` is called once per subdivision, on the nodes of
both halves, and the totals and heap keys are Python floats.  Each panel is
reduced by its own dot products on a view of the batched values, which keeps
the bits of a one-panel call; one (n, 15) matrix product (BLAS gemv) rounds
differently.  Kronrod nodes are interior, so endpoint singularities are never
evaluated.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
    "Interval",
    "NonConvergence",
    "NoBracket",
    "integrate_1d",
    "integrate_1d_with_error",
    "find_root",
    "rng_stream",
]


class NonConvergence(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget.

    Carries the best estimate and its error so the caller can refine or reject.
    """

    def __init__(self, message, estimate=None, error=None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


class NoBracket(ValueError):
    """Root bracket does not change sign."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for the adaptive quadrature kernel.

    The estimated error of a converged integral I is at most
    max(abs_tol, rel_tol * |I|).
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 4000

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class Interval:
    """Finite integration interval or root bracket, ``lo <= hi``."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval [{self.lo}, {self.hi}] must have finite ends")
        if not self.lo <= self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def of(domain) -> "Interval":
        if isinstance(domain, Interval):
            return domain
        lo, hi = domain
        return Interval(float(lo), float(hi))


# Standard QUADPACK dqk15 abscissae and weights on [-1, 1].
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_GAUSS_IDX = np.arange(1, 15, 2)
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])

_INITIAL_PANELS = 4


def _panels(f, edges):
    """(Kronrod estimate, |K - G| error) of each panel between consecutive edges.

    Every panel's nodes go to ``f`` in one call; each panel is reduced by its
    own dot products (module docstring).
    """
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * _XK
    fx = np.asarray(f(x.ravel()), dtype=float)
    if fx.shape != (x.size,):
        raise ValueError("integrand must map an (m,) node array to (m,) values")
    if not np.all(np.isfinite(fx)):
        raise ValueError(f"integrand not finite inside [{edges[0]}, {edges[-1]}]")
    fx = fx.reshape(x.shape)
    out = []
    for h, row in zip(half.tolist(), fx):
        k = h * float(row @ _WK)
        out.append((k, abs(k - h * float(row[_GAUSS_IDX] @ _WG))))
    return out


def integrate_1d_with_error(f, domain, spec: QuadratureSpec | None = None):
    """Adaptively integrate ``f`` over the finite ``domain``; returns (value, error) as floats.

    ``f`` maps an ``(m,)`` node array to ``(m,)`` values.  Raises
    NonConvergence when the subdivision budget is exhausted before the
    tolerance is met.
    """
    spec = spec or QuadratureSpec()
    domain = Interval.of(domain)
    if domain.lo == domain.hi:
        return 0.0, 0.0

    edges = np.linspace(domain.lo, domain.hi, _INITIAL_PANELS + 1).tolist()
    heap, total, total_err = [], -0.0, -0.0  # x + -0.0 is x, bit for bit
    for i, (a, b, (k, e)) in enumerate(zip(edges[:-1], edges[1:], _panels(f, edges))):
        total += k
        total_err += e
        heapq.heappush(heap, (-e, i, a, b, k, e))

    # Heap ties break by creation order.  A NaN total comes with an inf or
    # NaN error, which stays in total_err, so it never converges.
    for counter in range(_INITIAL_PANELS, _INITIAL_PANELS + 2 * spec.max_subdivisions, 2):
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return total, total_err
        _, _, a, b, k, e = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        (k1, e1), (k2, e2) = _panels(f, (a, mid, b))
        total = total - k + k1 + k2
        total_err = total_err - e + e1 + e2
        heapq.heappush(heap, (-e1, counter, a, mid, k1, e1))
        heapq.heappush(heap, (-e2, counter + 1, mid, b, k2, e2))

    if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
        return total, total_err
    raise NonConvergence(
        f"quadrature did not converge after {spec.max_subdivisions} subdivisions "
        f"(err {total_err:.3e})",
        estimate=total,
        error=total_err,
    )


def integrate_1d(f, domain, spec: QuadratureSpec | None = None):
    """Adaptive 1D integral of ``f`` over ``domain`` (see module docstring)."""
    value, _ = integrate_1d_with_error(f, domain, spec)
    return value


def _brentq(f, xpre, xcur, fpre, fcur, xtol, rtol, maxiter=100):
    """Root of ``f`` between xpre and xcur, where ``fpre`` and ``fcur`` differ in sign.

    Line for line the algorithm of SciPy's brentq (its C routine
    ``brentq.c``): the sign-changing bracket [xcur, xblk] shrinks by inverse
    quadratic or secant steps that stay well inside it, and by bisection
    otherwise, until it is narrower than 2 delta, delta = (xtol + rtol |xcur|)/2.
    """
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise NonConvergence(f"root not bracketed to {delta:.3e} after {maxiter} iterations")


def find_root(f, bracket, tol: float = 1e-12) -> float:
    """Root of ``f`` inside ``bracket`` with |f(root)| <= tol.

    Brent's bisection/secant hybrid, a port of SciPy's brentq at
    xtol = 1e-15, rtol = 8.9e-16 that returns the same float.  Raises
    NoBracket when f does not change sign over the bracket.
    """
    box = Interval.of(bracket)
    flo, fhi = float(f(box.lo)), float(f(box.hi))
    if flo == 0.0:
        return box.lo
    if fhi == 0.0:
        return box.hi
    if flo * fhi > 0:
        raise NoBracket(f"f({box.lo}) = {flo:.3e} and f({box.hi}) = {fhi:.3e} have the same sign")
    root = _brentq(f, box.lo, box.hi, flo, fhi, xtol=1e-15, rtol=8.9e-16)
    if abs(f(root)) > tol:
        raise NonConvergence(f"|f(root)| = {abs(f(root)):.3e} > tol = {tol:.3e}")
    return float(root)


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic, independent random stream for (seed, key...)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))
