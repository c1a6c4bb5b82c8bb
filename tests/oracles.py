"""Independent reference routes used only by the tests.

None of these enter the package: they are slow or narrow cross-checks of
what the package computes another way.

  ShiftedPotential     v - c, for the shift law of the indirect energy
  scaled_profile       c rho on the same grid, for positive homogeneity
  window_mass          windowed density mass, for the Cauchy-Schwarz step
  integrate_1d_components(_with_error)
                       the adaptive G7/K15 driver over vector-valued
                       integrands ((k, m) values, error per component), one
                       integrand call per panel, with numpy bookkeeping, on
                       finite, half-infinite and doubly infinite (lo, hi)
                       domains; on finite ones the package's scalar driver
                       must agree with it bit for bit
  tightened            a quadrature spec with 1e-2 of the tolerances, for
                       the inner passes of the nested routes
  erfcx_sandwich       the elementary two-sided bound of erfcx
  integrate_2d         nested adaptive 2D quadrature
  correlation          h(u) or C(u) by an adaptive quadrature over y at every
                       u node, the route the states' closed forms replace
  separation_integrals (<V>, D) as one vector-valued pass of the exact h and
                       C times v over [0, span], split at the breakpoints
  expectation_via_2d   <V> of a two-particle state on the support square
  rho2_direct          orbital pair density by the full four-index contraction
  read_jsonl           the records of a JSON-lines report, for round trips
  maximal_function_full_scan
                       exact maximal function scanning every radius from the
                       support distance to the far end, in 1024-point chunks
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass

import numpy as np

from lieboxford.numerics import (
    _GAUSS_IDX,
    _INITIAL_PANELS,
    _WG,
    _WK,
    _XK,
    Interval,
    NonConvergence,
    QuadratureSpec,
)
from lieboxford.potentials import Potential
from lieboxford.states import DensityProfile, TrialState, density


@dataclass(frozen=True)
class ShiftedPotential(Potential):
    """v - c: a constant downshift.

    Pointwise values and derivatives pass through (derivatives unchanged);
    moments and integrals are not defined for the shifted object.
    """

    base: Potential
    c: float
    family = "shifted"

    def value(self, r):
        return self.base.value(r) - self.c

    def deriv1(self, r):
        return self.base.deriv1(r)

    def deriv2(self, r):
        return self.base.deriv2(r)

    @property
    def length_scale(self) -> float:
        return self.base.length_scale

    def to_config(self) -> dict:
        return {"family": self.family, "params": {"base": self.base.to_config(), "c": self.c}}

    def label(self) -> str:
        return f"shifted({self.base.label()},c={self.c:g})"


def scaled_profile(profile: DensityProfile, c: float) -> DensityProfile:
    """c rho on the same grid, with particle number c N."""
    return DensityProfile(profile.grid, c * profile.values, c * profile.n_particles)


def window_mass(state: TrialState, r: float, z, profile: DensityProfile | None = None):
    """alpha(r, z) = int_{z-r}^{z+r} rho(x) dx, the windowed density mass.

    Oracle for the Cauchy-Schwarz step of the two-moment bound:
    int alpha(r, z)^2 dz <= (2r)^2 int rho^2.  Exact for the piecewise-linear
    interpolant of the profile.  Vectorized over z.
    """
    if r < 0:
        raise ValueError("window radius must be nonnegative")
    prof = profile if profile is not None else density(state)
    x = prof.x
    vals = prof.values
    dx = prof.grid.dx
    cum = np.concatenate([[0.0], np.cumsum(0.5 * dx * (vals[1:] + vals[:-1]))])

    def cum_at(t):
        t = np.clip(t, x[0], x[-1])
        j = np.clip(((t - x[0]) / dx).astype(int), 0, len(x) - 2)
        frac = t - x[j]
        rho_t = vals[j] + (vals[j + 1] - vals[j]) * frac / dx
        return cum[j] + 0.5 * frac * (vals[j] + rho_t)

    z = np.asarray(z, dtype=float)
    return (cum_at(z + r) - cum_at(z - r))[()]


# Exponents above this clamp map to radii ~ e^650 where every admissible
# (decaying) integrand has vanished; those nodes contribute exactly zero and
# evaluating them would only overflow the Jacobian.
_TAU_MAX = 650.0


def _half_line_map(t):
    tau_raw = t / (1.0 - t)
    dead = tau_raw > _TAU_MAX
    tau = np.where(dead, _TAU_MAX, tau_raw)
    jac = np.where(dead, 0.0, np.exp(tau) / (1.0 - t) ** 2)
    return np.expm1(tau), jac


def _transform(f, lo: float, hi: float):
    """Map an infinite domain to a finite one; returns (g, (lo', hi')).

    Half lines use r = lo + expm1(t/(1-t)) on (0, 1): the exponential
    stretching keeps algebraically decaying tails (down to r^(-1.1))
    resolvable where a linear-rational map would need panels below machine
    epsilon.  The doubly infinite line uses r = t/(1-t^2) on (-1, 1).
    Kronrod nodes are interior, so the images of infinity are never
    evaluated.  Admissible integrands must decay at infinity.
    """
    if math.isfinite(lo) and math.isfinite(hi):
        return f, (lo, hi)
    if math.isfinite(lo) and hi == math.inf:
        def g(t, _f=f, _lo=lo):
            r, jac = _half_line_map(t)
            return _f(_lo + r) * jac
        return g, (0.0, 1.0)
    if lo == -math.inf and math.isfinite(hi):
        def g(t, _f=f, _hi=hi):
            r, jac = _half_line_map(t)
            return _f(_hi - r) * jac
        return g, (0.0, 1.0)
    def g(t, _f=f):
        w = 1.0 - t * t
        return _f(t / w) * (1.0 + t * t) / w**2
    return g, (-1.0, 1.0)


def _panel(f, a, b):
    """Kronrod estimate and |K - G| error on [a, b]; vector-safe."""
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _XK
    fx = np.asarray(f(x), dtype=float)
    if fx.shape[-1] != 15:
        raise ValueError("integrand must return one value per node (last axis)")
    if not np.all(np.isfinite(fx)):
        raise ValueError(f"integrand not finite inside panel [{a}, {b}]")
    k = half * (fx @ _WK)
    g = half * (fx[..., _GAUSS_IDX] @ _WG)
    return k, np.abs(k - g)


def integrate_1d_components_with_error(f, domain, spec: QuadratureSpec | None = None):
    """Adaptively integrate ``f`` over ``domain``; returns (value, error).

    ``domain`` is an Interval or a (lo, hi) pair whose ends may be infinite.
    ``f`` must accept a node array and return values with the node axis last;
    leading axes are integrated component-wise.  Raises NonConvergence when
    the subdivision budget is exhausted before the tolerance is met.
    """
    spec = spec or QuadratureSpec()
    lo, hi = (domain.lo, domain.hi) if isinstance(domain, Interval) else map(float, domain)
    if not lo <= hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if lo == hi:
        probe = np.asarray(f(np.array([lo])), dtype=float)
        return np.zeros(probe.shape[:-1])[()], 0.0
    g, box = _transform(f, lo, hi)

    edges = np.linspace(*box, _INITIAL_PANELS + 1)
    heap = []
    total = None
    total_err = None
    counter = 0
    for a, b in zip(edges[:-1], edges[1:]):
        k, e = _panel(g, a, b)
        total = k if total is None else total + k
        total_err = e if total_err is None else total_err + e
        heapq.heappush(heap, (-float(np.max(e)), counter, a, b, k, e))
        counter += 1

    for _ in range(spec.max_subdivisions):
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))
        if np.all(total_err <= tol):
            return total[()] if np.ndim(total) else float(total), total_err
        _, _, a, b, k, e = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        k1, e1 = _panel(g, a, mid)
        k2, e2 = _panel(g, mid, b)
        total = total - k + k1 + k2
        total_err = total_err - e + e1 + e2
        heapq.heappush(heap, (-float(np.max(e1)), counter, a, mid, k1, e1))
        counter += 1
        heapq.heappush(heap, (-float(np.max(e2)), counter, mid, b, k2, e2))
        counter += 1

    tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))
    if np.all(total_err <= tol):
        return total[()] if np.ndim(total) else float(total), total_err
    raise NonConvergence(
        f"quadrature did not converge after {spec.max_subdivisions} subdivisions "
        f"(err {np.max(total_err):.3e})",
        estimate=total,
        error=total_err,
    )


def integrate_1d_components(f, domain, spec: QuadratureSpec | None = None):
    """Value of ``integrate_1d_components_with_error``."""
    value, _ = integrate_1d_components_with_error(f, domain, spec)
    return value


def tightened(spec: QuadratureSpec) -> QuadratureSpec:
    """Spec with tolerances scaled by 1e-2 (for inner integrals)."""
    return QuadratureSpec(spec.abs_tol * 1e-2, spec.rel_tol * 1e-2, spec.max_subdivisions)


def erfcx_sandwich(x):
    """Elementary two-sided bound for erfcx: lower, upper arrays.

    2/(sqrt(pi)(x + sqrt(x^2+2))) <= erfcx(x) <= 2/(sqrt(pi)(x + sqrt(x^2+4/pi))),
    with equality of the upper bound at x = 0.
    """
    x = np.asarray(x, dtype=float)
    sq = np.sqrt(np.pi)
    lower = 2.0 / (sq * (x + np.sqrt(x * x + 2.0)))
    upper = 2.0 / (sq * (x + np.sqrt(x * x + 4.0 / np.pi)))
    return lower, upper


def integrate_2d(f, domain_x, domain_y, spec: QuadratureSpec | None = None):
    """Nested adaptive 2D integral of ``f(x, y)``.

    The outer integral runs over y, the inner over x with tightened
    tolerances.  Each outer panel hands its 15 nodes to one vector-valued
    inner pass, so ``f`` must broadcast an x row against a y column.
    """
    spec = spec or QuadratureSpec()
    inner_spec = tightened(spec)

    def outer(ys):
        ys = np.atleast_1d(ys)[:, None]

        def inner(x):
            return np.broadcast_to(f(x[None, :], ys), (len(ys), len(x)))

        return integrate_1d_components(inner, domain_x, inner_spec)

    return integrate_1d_components(outer, domain_y, spec)


def correlation(state: TrialState, spec: QuadratureSpec, pair: bool):
    """Vectorized h(u) = int rho2(y+u, y) dy if ``pair``, else C(u) = int rho(y) rho(y+u) dy."""
    inner = tightened(spec)

    def sample(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))

        def integrand(y):
            if pair:
                return state.rho2(y[None, :] + u[:, None], y[None, :])
            return state.rho(y)[None, :] * state.rho(y[None, :] + u[:, None])

        return integrate_1d_components(integrand, state.support, inner)

    return sample


def separation_integrals(state: TrialState, p: Potential, spec: QuadratureSpec):
    """(<V>, D) = int_0^span (h(u), C(u)) v(u) du, with the error of each.

    Both components share the component-wise driver's panels, so neither
    the package's scalar driver nor its per-node sharing enters.
    """
    span = state.support.hi - state.support.lo
    edges = [0.0] + [b for b in sorted(p.breakpoints()) if 0.0 < b < span] + [span]
    total, err = np.zeros(2), np.zeros(2)
    for a, b in zip(edges[:-1], edges[1:]):
        value, e = integrate_1d_components_with_error(
            lambda u: np.stack(state.correlations(u)) * p.value(u), Interval(a, b), spec
        )
        total += value
        err += e
    return total, err


def expectation_via_2d(state: TrialState, p: Potential, spec: QuadratureSpec | None = None):
    """<V> of a two-particle state by direct 2D quadrature.

    Integrates |psi(x, y)|^2 v(|x - y|) on the support square, the dual
    route to the separation-coordinate evaluation of the energies module.
    """
    if state.n_particles != 2:
        raise ValueError("2D cross-check applies to two particles")
    spec = spec or QuadratureSpec(abs_tol=1e-9, rel_tol=1e-8)
    box = Interval(
        state.grid_center - state.grid_halfwidth,
        state.grid_center + state.grid_halfwidth,
    )

    def f(x, y):
        return 0.5 * state.rho2(x, y) * p.value(np.abs(x - y))

    return integrate_2d(f, box, box, spec)


def rho2_direct(state, x, y):
    """sum_abcd W2[a,b,c,d] phi_a(x) phi_b(x) phi_c(y) phi_d(y) on the broadcast grid.

    Orbitals of both arguments and both orbital products are materialized on
    the full broadcast shape before one N^4-term contraction: the slow route
    the package's rho2 factors through Q_ab(y).
    """
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    phi_x = state._orbital_values(x)
    phi_y = state._orbital_values(y)
    px = np.einsum("a...,b...->ab...", phi_x, phi_x)
    py = np.einsum("c...,d...->cd...", phi_y, phi_y)
    return np.einsum("abcd,ab...,cd...->...", state._tables[3], px, py)


def read_jsonl(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _full_scan_chunk(i_idx, rho_pad, cum_pad, dx, m_lo, m_hi):
    """Exact sup of window averages for grid points i_idx (vectorized)."""
    k_max = int(np.max(m_hi - m_lo)) + 1
    m = m_lo[:, None] + np.arange(k_max + 1)[None, :]
    m = np.minimum(m, m_hi[:, None] + 1)
    # padded arrays carry one zero cell on each side; clamp keeps them flat
    up = np.clip(i_idx[:, None] + m + 1, 0, len(rho_pad) - 1)
    dn = np.clip(i_idx[:, None] - m + 1, 0, len(rho_pad) - 1)
    s = rho_pad[up] + rho_pad[dn]
    F = cum_pad[up] - cum_pad[dn]
    r = m * dx

    with np.errstate(divide="ignore", invalid="ignore"):
        a_break = np.where(m > 0, F / (2 * r), 0.0)
    best = np.max(a_break, axis=1)

    # stationary radius inside each piece: r*^2 = r_m^2 + 2 (F_m - s_m r_m)/b
    b = (s[:, 1:] - s[:, :-1]) / dx
    with np.errstate(divide="ignore", invalid="ignore"):
        rstar_sq = r[:, :-1] ** 2 + 2 * (F[:, :-1] - s[:, :-1] * r[:, :-1]) / b
        valid = (b != 0) & (rstar_sq > r[:, :-1] ** 2) & (rstar_sq < r[:, 1:] ** 2)
        rstar = np.sqrt(np.where(valid, rstar_sq, 1.0))
        a_star = np.where(valid, 0.5 * (s[:, :-1] + b * (rstar - r[:, :-1])), 0.0)
    best = np.maximum(best, np.max(a_star, axis=1))
    return np.maximum(best, rho_pad[i_idx + 1])  # r -> 0 limit is rho itself


def maximal_function_full_scan(profile: DensityProfile) -> DensityProfile:
    """The maximal function with no radius cutoff: every point scans every radius.

    Each point scans from its distance to the support to the radius where the
    window covers the whole support, in fixed chunks of 1024 points padded
    to the longest scan of the chunk.  The package's maximal_function must
    agree with it bit for bit.
    """
    rho = profile.values
    n = len(rho)
    dx = profile.grid.dx
    nz = np.nonzero(rho)[0]
    if len(nz) == 0:
        return DensityProfile(profile.grid, np.zeros(n), profile.n_particles)
    j0, j1 = int(nz[0]), int(nz[-1])

    rho_pad = np.concatenate([[0.0], rho, [0.0]])
    cum = np.concatenate([[0.0], np.cumsum(0.5 * dx * (rho[1:] + rho[:-1]))])
    cum_pad = np.concatenate([[cum[0]], cum, [cum[-1]]])

    i_all = np.arange(n)
    m_lo = np.maximum(np.maximum(j0 - i_all, i_all - j1), 1) - 1
    m_hi = np.maximum(i_all - j0, j1 - i_all) + 1
    out = np.empty(n)
    chunk = 1024  # grid points per vectorized block; bounds the work arrays
    for start in range(0, n, chunk):
        sl = slice(start, min(start + chunk, n))
        out[sl] = _full_scan_chunk(i_all[sl], rho_pad, cum_pad, dx, m_lo[sl], m_hi[sl])
    return DensityProfile(profile.grid, out, profile.n_particles)
