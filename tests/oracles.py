"""Independent reference routes used only by the tests.

None of these enter the package: they are slow or narrow cross-checks of
what the package computes another way.

  ShiftedPotential     v - c, for the shift law of the indirect energy
  window_mass          windowed density mass, for the Cauchy-Schwarz step
  integrate_2d         nested adaptive 2D quadrature
  correlation          h(u) or C(u) by an adaptive quadrature over y at every
                       u node, the route the states' closed forms replace
  expectation_via_2d   <V> of a two-particle state on the support square
  rho2_direct          orbital pair density by the full four-index contraction
  read_jsonl           the records of a JSON-lines report, for round trips
  maximal_function_full_scan
                       exact maximal function scanning every radius from the
                       support distance to the far end, in 1024-point chunks
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from lieboxford.numerics import Interval, QuadratureSpec, integrate_1d
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


def integrate_2d(f, domain_x, domain_y, spec: QuadratureSpec | None = None):
    """Nested adaptive 2D integral of ``f(x, y)``.

    The outer integral runs over y, the inner over x with tightened
    tolerances.  Each outer panel hands its 15 nodes to one vector-valued
    inner pass, so ``f`` must broadcast an x row against a y column.
    """
    spec = spec or QuadratureSpec()
    inner_spec = spec.tightened()

    def outer(ys):
        ys = np.atleast_1d(ys)[:, None]

        def inner(x):
            return np.broadcast_to(f(x[None, :], ys), (len(ys), len(x)))

        return integrate_1d(inner, domain_x, inner_spec)

    return integrate_1d(outer, domain_y, spec)


def correlation(state: TrialState, spec: QuadratureSpec, pair: bool):
    """Vectorized h(u) = int rho2(y+u, y) dy if ``pair``, else C(u) = int rho(y) rho(y+u) dy."""
    inner = spec.tightened()

    def sample(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))

        def integrand(y):
            if pair:
                return state.rho2(y[None, :] + u[:, None], y[None, :])
            return state.rho(y)[None, :] * state.rho(y[None, :] + u[:, None])

        return integrate_1d(integrand, state.support, inner)

    return sample


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
