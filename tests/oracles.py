"""Independent reference routes used only by the tests.

None of these enter the package: they are slow or narrow cross-checks of
what the package computes another way.

  ShiftedPotential     v - c, for the shift law of the indirect energy
  window_mass          windowed density mass, for the Cauchy-Schwarz step
  integrate_2d         nested adaptive 2D quadrature
  expectation_via_2d   <V> of a two-particle state on the support square
  rho2_direct          orbital pair density by the full four-index contraction
  read_jsonl           the records of a JSON-lines report, for round trips
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
