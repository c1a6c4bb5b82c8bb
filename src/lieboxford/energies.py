"""Interaction energies: pair expectation, Hartree term, indirect energy.

Two entry points: ``interaction_energies(state, potentials)`` prices a whole
batch of potentials for one state, and ``indirect_energy(state, p)`` is its
single-potential form.  Both return EnergyBreakdown records.

Everything reduces to one-dimensional integrals in the separation coordinate
u = x - y:

  <sum_{i<j} v(|x_i-x_j|)>  =  int_0^inf h(u) v(u) du,
  D(rho, rho)               =  int_0^inf C(u) v(u) du,

where h(u) = int rho2(y+u, y) dy is the pair-separation density (even, total
mass N(N-1) over the line) and C(u) = int rho(x) rho(x+u) dx the density
autocorrelation.  Every trial state gives both in closed form
(``TrialState.correlations``: one finite sum of Gaussian terms per state; see
the states module), and the outer passes read them at their own quadrature
nodes, with no u grid and no interpolant in between.  Each potential gets its
own outer passes in u, split at its breakpoints, and its own error estimate.
Within one call the closed forms are evaluated once per distinct node set:
the h and C passes of a potential, and the passes of every potential of the
batch, start on the same panels and share those values through a dict keyed
by the node array's bytes.  The products h v and C v of a potential are
shared the same way, so v too is evaluated once per node set.  The contact
potential acts at zero separation instead, so its breakdown is two
closed-form values with no quadrature, and its error estimate is 0:

  <delta> = (1/2) int rho2(x, x) dx = h(0) / 2,      D = (1/2) int rho^2 = C(0) / 2.

Shifting a potential by a constant, v -> v - c, shifts the indirect energy by
+c N / 2; this falls out of the same integrals since int h = N(N-1)/2 and
int C = N^2 / 2 (checked in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

# integrate_1d is unused here, but bench/test_smoke.py checks that the layer
# tracer rebinds it by name in this module
from .numerics import Interval, QuadratureSpec, integrate_1d, integrate_1d_with_error  # noqa: F401
from .potentials import Contact, Potential
from .states import TrialState

__all__ = [
    "EnergyBreakdown",
    "indirect_energy",
    "interaction_energies",
]

DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class EnergyBreakdown:
    """Expectation, Hartree term, and their difference I_xc = <V> - D."""

    expectation_v: float
    hartree: float
    i_xc: float
    quadrature_error_estimate: float


def _integrate_separation(fv, span: float, p: Potential) -> tuple:
    """int_0^span fv(u) du for fv = f v, split at the potential's non-smooth radii."""
    edges = [0.0] + [b for b in sorted(p.breakpoints()) if 0.0 < b < span] + [span]
    total, err = 0.0, 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, e = integrate_1d_with_error(fv, Interval(a, b), DEFAULT_SPEC)
        total += val
        err += e
    return total, err


def indirect_energy(state: TrialState, p: Potential) -> EnergyBreakdown:
    """Full breakdown for one (state, potential) pair; I_xc = <V> - D."""
    return interaction_energies(state, [p])[0]


def interaction_energies(state: TrialState, potentials) -> list[EnergyBreakdown]:
    """Breakdowns for many potentials; the non-contact ones share h and C per node set."""
    span = state.support.hi - state.support.lo
    at_nodes = {}  # node bytes -> (h, C), for the whole batch

    out = []
    for p in potentials:
        if isinstance(p, Contact):
            h0, c0 = state.correlations(0.0)
            expectation, har, err = 0.5 * float(h0), 0.5 * float(c0), 0.0
        else:
            weighted = {}  # node bytes -> (h v, C v), for this potential

            def products(u):
                key = u.tobytes()
                if key not in weighted:
                    if key not in at_nodes:
                        at_nodes[key] = state.correlations(u)
                    h, c = at_nodes[key]
                    v = p.value(u)
                    weighted[key] = (h * v, c * v)
                return weighted[key]

            expectation, e1 = _integrate_separation(lambda u: products(u)[0], span, p)
            har, e2 = _integrate_separation(lambda u: products(u)[1], span, p)
            err = e1 + e2
        out.append(EnergyBreakdown(expectation, har, expectation - har, err))
    return out
