"""Few-particle trial states, one-body densities, and the maximal operator.

Wavefunction families (N in {2, 3}):

  GaussianProduct          symmetrized product (permanent) or Slater
                           determinant of same-width Gaussian orbitals at
                           given centers.
  HermiteSlater            determinant/permanent of the lowest harmonic-
                           oscillator orbitals of a common width.
  CorrelatedGaussianPair   two particles in a Gaussian well with a
                           parametric short-range correlation hole,
                           psi ~ G(x) G(y) (1 - h exp(-(x-y)^2/(2 s^2))).

For the orbital families the one-body density and the pair weights come from
the permutation algebra (_symmetrized_weights) of the orbital overlaps S:

  rho(x)    = sum_ab W1[a,b] phi_a(x) phi_b(x),
  rho2(x,y) = sum_abcd W2[a,b,c,d] phi_a(x) phi_b(x) phi_c(y) phi_d(y).

Every family gives rho as one table of Gaussian terms, a row (h_k, m_k, a_k,
j_k) each, which ``TrialState.rho`` sums one row at a time:

  rho(x) = sum_k h_k ((x - m_k)/l)^(2 j_k) exp(-a_k (x - m_k)^2).

Every family gives its correlation functions h(u) = int rho2(y+u, y) dy and
C(u) = int rho(y) rho(y+u) dy as one table of Gaussian terms, a row
(h_k, c_k, m_k, a_k, j_k) each:

  (h(u), C(u)) = sum_k (h_k, c_k) (u/l)^(2 j_k) exp(-a_k (u - m_k)^2),

l the state's length.  ``TrialState.correlations`` evaluates a table in one
of two layouts, chosen by K alone, and each sums a node's K terms in an order
that depends on K alone, so no value depends on the rest of its batch.  Below
8 rows it builds a term-major (K rows, n nodes) block from the table's cached
(K, 1) columns and sums the rows with one reduction over the row axis from
0.0: row after row, whatever the batch.  numpy's last-axis sum of fewer than
8 values (its pairwise sum) is that same sequential sum from 0.0, so the two
layouts give the same bits; the term-major one spends its loops on the long
node axis, not on K.  Tables of 8 or more rows (the N = 3 GaussianProduct and
the correlated pair) keep the node-major (n nodes, K rows) block: one
(2, n, K) product with the cached (2, 1, K) weights of h and C, and one
last-axis reduction, which sums each row pairwise, in 8 interleaved partial
sums.

GaussianProduct: each orbital product is one Gaussian,
P_ab = phi_a phi_b = A_ab exp(-(x - m_ab)^2 / (2 w^2)) with
A_ab = S_ab / sqrt(2 pi w^2) and m_ab the midpoint of the two centers: rho
has a row (2 - [a = b]) W1_ab A_ab at m_ab per pair a <= b, and

  int P_ab(y+u) P_cd(y) dy = A_ab A_cd sqrt(pi) w exp(-(u - m_ab + m_cd)^2 / (4 w^2)),

weighted by W2 for h and by W1 (x) W1 for C.  The shift m_ab - m_cd is
e . mu / 2, e = e_a + e_b - e_c - e_d, so the N^4 index rows fall into 5
(N = 2) or 19 (N = 3) rows of one shift each, their weights summed by
math.fsum.  For a near-degenerate determinant (close centers, large W1 of
both signs) the rows cancel: on the 121 GaussianProduct states of the
default 200-state suite C is good to 1.2e-12 of its maximum, against 4e-16
typical.  CorrelatedGaussianPair: rho2 is the envelope's pair density times
(1 - h e^(-u^2/2s^2))^2, whose three terms are the three h rows, and rho is
a sum of three centred Gaussians, so C has nine rows, one per pair of them.

HermiteSlater: for orthonormal orbitals phi_0 .. phi_(N-1) the determinant
(upper sign) and the permanent (lower sign) have rho = sum_k phi_k^2, which is
e^(-v^2) sum_j q_j v^(2j) / (w sqrt(pi)), v = (x - c)/w, q_j the coefficients
of sum_k H_k(v)^2 / (2^k k!) (_OSCILLATOR_DENSITIES), and

  rho2(x, y) = rho(x) rho(y) -+ g(x, y)^2 - (1 -+ 1) sum_k phi_k(x)^2 phi_k(y)^2,

g(x, y) = sum_k phi_k(x) phi_k(y), so h = C -+ X - (1 -+ 1) D, with C, X
and D sums of overlaps int f_kl(y+u) f_mn(y) dy, f_kl = phi_k phi_l.  At
unit width and centre 0, f_kl = H_k H_l e^(-y^2) / (sqrt(pi) sqrt(2^k k! 2^l l!)),
and with z = y + u/2

  e^(-(y+u)^2 - y^2) = e^(-u^2/2) e^(-2 z^2),
  int z^(2i) e^(-2 z^2) dz = sqrt(pi/2) (2i - 1)!! / 4^i,

so every overlap is e^(-u^2/2) / sqrt(2 pi) times a polynomial in u with
rational coefficients, even in u.  With width w, h(u) = h_1(u/w)/w, so both
functions are e^(-s/2) P(s) / (w sqrt(2 pi)), s = u^2/w^2, and P, listed in
_OSCILLATOR_POLYNOMIALS, depends on (N, symmetry) alone; its rows are
p_j s^j e^(-s/2) / (w sqrt(2 pi)), l = w.  Every p_j is dyadic, so exact as
a float.  As int s^j e^(-s/2) du = w sqrt(2 pi) (2j - 1)!!, sum_j p_j (2j - 1)!!
is N(N - 1) for h and N^2 for C, and h(0) = 0 on the antisymmetric states.
The tests rederive P in rational arithmetic.

The Hardy-Littlewood maximal function of a grid profile is computed exactly
for the piecewise-linear interpolant: on each radius piece [m dx, (m+1) dx]
the window average F(r)/(2r) is rational with quadratic numerator, so the
supremum is attained either at a breakpoint radius or at the analytic
stationary radius of a piece; both candidate sets are enumerated.

Most radii cannot win, and the scan skips them.  Each point's radius pieces
are cut into coarse blocks of 64 pieces, and each surviving coarse block into
fine blocks of 8.  A lower bound L <= M rho starts at rho, and every block
edge and kernel result raises it; each is a candidate of the full scan,
computed with the kernel's own operations.  Two exact rules drop a block.
The edge rule reads rho alone: the window average A(r) = F(r)/(2r) obeys
A' = (s/2 - A)/r, with s(r) = rho(x + r) + rho(x - r), so a block whose
node sums s stay below 2 L (1 - delta) holds no candidate above M rho.
The blocks it keeps get window integrals and the slope-capped bound:
F(r) <= min(F(E_lo) + (r - E_lo) S, F(E_hi) + ramp), S the largest node
sum and ramp the mass of the one-cell ramps to zero beyond the grid ends.
A block whose bound, times 1 + 1e-12 against rounding, is below L is
dropped, and the kernel scans only the surviving fine blocks.
_block_bounds and _prune_blocks derive both rules and their rounding
margins.  Every stage works in steps of at most 2^15 blocks, or 2^15 kernel
cells, so a default 1024-point profile takes one step per stage, and the
per-call cost of its numpy passes is paid once.  A float array of such a step
is 256 KiB, above glibc's 128 KiB mmap threshold: as a temporary it would be
mapped, faulted in and unmapped at every step.  So every array of a step is a
view of a work array kept per thread across steps and calls, and no step
allocates a block at that threshold.  Only candidates that cannot exceed the
final M rho are dropped, so every value is bit-identical to a full scan.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .numerics import Interval, rng_stream

__all__ = [
    "UniformGrid",
    "DensityProfile",
    "TrialState",
    "GaussianProduct",
    "HermiteSlater",
    "CorrelatedGaussianPair",
    "NormalizationDrift",
    "density",
    "density_power_integral",
    "trapezoid_richardson",
    "maximal_function",
    "maximal_norm_ratio",
    "maximal_operator_norm_bound",
    "random_state_suite",
]

SUPPORT_TRUNCATION = 1e-14

# Term tables of fewer rows are evaluated term-major: below 8 values numpy's
# pairwise sum is the sequential one (module docstring).
_TERM_MAJOR_ROWS = 8


# q of HermiteSlater's rho (module docstring) per N
_OSCILLATOR_DENSITIES = {2: (1.0, 2.0), 3: (1.5, 0.0, 2.0)}

# P(s) of HermiteSlater's h and C (module docstring): (h, C) coefficients of
# s^0, s^1, ... per (N, symmetry)
_OSCILLATOR_POLYNOMIALS = {
    (2, "symmetric"): ((2.0, 11 / 4), (0.0, 1 / 2), (0.0, 1 / 4)),
    (2, "antisymmetric"): ((0.0, 11 / 4), (2.0, 1 / 2), (0.0, 1 / 4)),
    (3, "symmetric"): (
        (21 / 4, 321 / 64), (-3 / 2, 21 / 16), (3 / 4, 21 / 32), (0.0, -1 / 16), (0.0, 1 / 64)
    ),
    (3, "antisymmetric"): (
        (0.0, 321 / 64), (27 / 4, 21 / 16), (-3 / 2, 21 / 32), (1 / 4, -1 / 16), (0.0, 1 / 64)
    ),
}


class _Terms(NamedTuple):
    """(h(u), C(u)) = sum_k (h_k, c_k) (u/length)^(2 power_k) exp(-rate_k (u - centre_k)^2).

    One entry per row k in each array; ``power`` None means every power is 0.
    A density table has c None and reads
    rho(x) = sum_k h_k ((x - centre_k)/length)^(2 power_k) exp(-rate_k (x - centre_k)^2).
    """

    h: np.ndarray
    c: np.ndarray
    centre: np.ndarray
    rate: np.ndarray
    power: np.ndarray | None = None
    length: float = 1.0


class NormalizationDrift(RuntimeError):
    """Grid mass of a density deviates from the particle number."""


@dataclass(frozen=True)
class UniformGrid:
    x0: float
    dx: float
    n: int

    def __post_init__(self):
        if self.dx <= 0 or self.n < 2:
            raise ValueError("grid needs dx > 0 and at least two points")

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)


@dataclass(frozen=True, eq=False)
class DensityProfile:
    """Nonnegative density samples on a uniform grid.

    Values below SUPPORT_TRUNCATION times the peak are clamped to zero at
    construction, which defines the numerical support used by the maximal
    operator and the autocorrelation integrals.  ``square_integral`` is
    int rho^2 in closed form, C(0) of the trial state behind the profile;
    a profile with no state behind it (a maximal function, a hand-made
    density) has none.
    """

    grid: UniformGrid
    values: np.ndarray
    n_particles: float
    square_integral: float | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise ValueError("values must match the grid")
        if np.any(vals < 0):
            raise ValueError("density values must be nonnegative")
        peak = vals.max() if vals.size else 0.0
        if peak > 0:
            vals = np.where(vals < SUPPORT_TRUNCATION * peak, 0.0, vals)
        object.__setattr__(self, "values", vals)

    def mass(self) -> float:
        return float(np.trapezoid(self.values, dx=self.grid.dx))


def trapezoid_richardson(values: np.ndarray, dx: float) -> float:
    """int f for samples f on a uniform grid: trapezoid with one Richardson step.

    The fine rule T(h) and the coarse rule T(2h) on the even-index samples
    combine to the Simpson-accurate (4 T(h) - T(2h))/3; profile grids are
    dense enough that the extrapolated error sits below 1e-8 relative.
    """
    fine = np.trapezoid(values, dx=dx)
    n = len(values)
    m = n if n % 2 == 1 else n - 1  # odd-length prefix halves cleanly
    coarse = np.trapezoid(values[:m:2], dx=2 * dx)
    if m < n:  # leftover panel, exact at trapezoid order
        coarse += 0.5 * dx * (values[m - 1] + values[m])
    return float(fine + (fine - coarse) / 3.0)


def density_power_integral(profile: DensityProfile, p: float) -> float:
    """int rho^p on the profile grid (see trapezoid_richardson)."""
    if p < 1:
        raise ValueError("power must be >= 1")
    return trapezoid_richardson(np.asarray(profile.values, dtype=float) ** p, profile.grid.dx)


# ---------------------------------------------------------------------------
# trial states


class TrialState:
    """Common surface: densities, correlation functions, support interval."""

    n_particles: int
    symmetry: str

    @property
    def _rho(self) -> _Terms:
        """The Gaussian-term table of rho (module docstring)."""
        raise NotImplementedError

    @property
    def _terms(self) -> _Terms:
        """The Gaussian-term table of h and C (module docstring)."""
        raise NotImplementedError

    def rho(self, x):
        """rho(x) from the state's density table, one row at a time (module docstring).

        Rows of one centre share x - m_k, and of one centre and rate the
        Gaussian; a power of ((x - m_k)/l)^2 is repeated multiplication.
        """
        t = self._rho
        x = np.asarray(x, dtype=float)
        total, key = 0.0, None
        for weight, centre, rate, power in zip(t.h, t.centre, t.rate, t.power or itertools.repeat(0)):
            if key is None or centre != key[0]:
                d = x - centre
                d2 = np.square(d)
            if (centre, rate) != key:
                key = centre, rate
                gauss = np.exp(-rate * d2)
            term = weight * gauss
            for _ in range(power):
                term *= np.square(d / t.length)
            total += term
        return total

    @cached_property
    def _columns(self):
        """The term table as the kernel of its layout reads it: centre, -rate, power (or None) and (h, c).

        Term-major (fewer than 8 rows): (K, 1) columns and a (2, K, 1) array;
        node-major: (K,) rows and a (2, 1, K) array.
        """
        t = self._terms
        hc = np.array((t.h, t.c))
        if len(t.h) >= _TERM_MAJOR_ROWS:
            return t.centre, -t.rate, t.power, hc[:, None, :]
        power = None if t.power is None else t.power[:, None]
        return t.centre[:, None], -t.rate[:, None], power, hc[:, :, None]

    def correlations(self, u):
        """(h(u), C(u)) from the state's term table, one (2,) + u.shape array (module docstring).

        h(u) = int rho2(y+u, y) dy, C(u) = int rho(y) rho(y+u) dy.
        """
        t = self._terms
        x = np.asarray(u, dtype=float)
        centre, neg_rate, power, hc = self._columns
        node_major = len(t.h) >= _TERM_MAJOR_ROWS
        nodes = x.reshape(-1, 1) if node_major else x.reshape(1, -1)
        terms = np.subtract(nodes, centre)  # (n, K), a row per node, or (K, n), a row per term
        np.square(terms, out=terms)
        terms *= neg_rate
        np.exp(terms, out=terms)
        if power is not None:
            terms *= np.square(nodes / t.length) ** power
        if node_major:
            return np.add.reduce(terms * hc, axis=-1).reshape((2, *x.shape))
        return np.add.reduce(terms * hc, axis=1, initial=0.0).reshape((2, *x.shape))

    @property
    def grid_center(self) -> float:
        raise NotImplementedError

    @property
    def grid_halfwidth(self) -> float:
        raise NotImplementedError

    @cached_property
    def support(self) -> Interval:
        """grid_center +- grid_halfwidth: the density is negligible outside; computed once per state."""
        c, w = self.grid_center, self.grid_halfwidth
        return Interval(c - w, c + w)


def _symmetrized_weights(S, symmetry):
    """(norm, W1, W2) of the permanent or determinant of orbitals with overlap matrix S.

    Sums over all pairs of permutations (module docstring); raises
    ValueError when the symmetrized combination has (near-)zero norm.
    """
    n = len(S)
    overlap = S.tolist()
    perms = list(itertools.permutations(range(n)))
    if symmetry == "antisymmetric":
        signs = [(-1) ** sum(a > b for a, b in itertools.combinations(p, 2)) for p in perms]
    else:
        signs = [1] * len(perms)
    norm = 0.0
    w1 = np.zeros((n, n))
    w2 = np.zeros((n, n, n, n))
    for sg, s_sign in zip(perms, signs):
        for tg, t_sign in zip(perms, signs):
            overlaps = [overlap[sg[i]][tg[i]] for i in range(n)]
            coeff = s_sign * t_sign
            norm += coeff * math.prod(overlaps)
            w1[sg[0], tg[0]] += coeff * math.prod(overlaps[1:])
            w2[sg[0], tg[0], sg[1], tg[1]] += coeff * math.prod(overlaps[2:])
    if norm <= 1e-12:
        raise ValueError("degenerate state: symmetrized orbital combination has (near-)zero norm")
    return norm, n * w1 / norm, n * (n - 1) * w2 / norm


def _check_symmetry(symmetry: str) -> str:
    if symmetry not in ("symmetric", "antisymmetric"):
        raise ValueError("symmetry must be 'symmetric' or 'antisymmetric'")
    return symmetry


@dataclass(frozen=True, eq=False)
class GaussianProduct(TrialState):
    """Gaussian orbitals exp(-(x - mu_i)^2 / (4 w^2)), one per particle."""

    centers: tuple
    width: float
    symmetry: str = "symmetric"

    def __post_init__(self):
        object.__setattr__(self, "centers", tuple(float(c) for c in self.centers))
        if len(self.centers) not in (2, 3):
            raise ValueError("two or three particles only")
        if self.width <= 0:
            raise ValueError("width must be positive")
        _check_symmetry(self.symmetry)
        if self.symmetry == "antisymmetric" and len(set(self.centers)) != len(self.centers):
            raise ValueError("antisymmetric Gaussian product needs distinct centers")

    @property
    def n_particles(self) -> int:
        return len(self.centers)

    @cached_property
    def _weights(self):
        """(A, W1, W2) as nested lists, A_ab = S_ab / sqrt(2 pi w^2) the amplitude of phi_a phi_b."""
        mu = np.asarray(self.centers)
        s = np.exp(-((mu[:, None] - mu[None, :]) ** 2) / (8 * self.width**2))
        _, w1, w2 = _symmetrized_weights(s, self.symmetry)
        return (s / math.sqrt(2 * math.pi * self.width**2)).tolist(), w1.tolist(), w2.tolist()

    @cached_property
    def _rho(self):
        """One row per orbital pair a <= b: (2 - [a = b]) W1_ab A_ab at (mu_a + mu_b)/2."""
        amp, w1, _ = self._weights
        mu = self.centers
        pairs = list(itertools.combinations_with_replacement(range(len(mu)), 2))
        return _Terms(
            h=[(2.0 - (a == b)) * w1[a][b] * amp[a][b] for a, b in pairs],
            c=None,
            centre=[(mu[a] + mu[b]) / 2 for a, b in pairs],
            rate=[1 / (2 * self.width**2)] * len(pairs),
        )

    @cached_property
    def _terms(self):
        """One row per shift m_ab - m_cd = e . mu / 2, e = e_a + e_b - e_c - e_d."""
        amp, w1, w2 = self._weights
        n, w = self.n_particles, self.width
        groups = {}  # e -> (h weights, C weights) of its (a, b, c, d) rows
        for a, b, c, d in itertools.product(range(n), repeat=4):
            e = tuple((a == i) + (b == i) - (c == i) - (d == i) for i in range(n))
            pair = amp[a][b] * amp[c][d]
            h_weights, c_weights = groups.setdefault(e, ([], []))
            h_weights.append(w2[a][b][c][d] * pair)
            c_weights.append(w1[a][b] * w1[c][d] * pair)
        keys = sorted(groups)
        scale = math.sqrt(math.pi) * w
        return _Terms(
            h=np.array([scale * math.fsum(groups[e][0]) for e in keys]),
            c=np.array([scale * math.fsum(groups[e][1]) for e in keys]),
            centre=np.array([math.fsum(k * mu for k, mu in zip(e, self.centers)) / 2 for e in keys]),
            rate=np.full(len(keys), 1 / (4 * w**2)),
        )

    @property
    def grid_center(self) -> float:
        return float(np.mean(self.centers))

    @property
    def grid_halfwidth(self) -> float:
        center = self.grid_center
        spread = max(abs(c - center) for c in self.centers)
        return 12 * self.width + spread


@dataclass(frozen=True, eq=False)
class HermiteSlater(TrialState):
    """Lowest harmonic-oscillator orbitals of width w (orthonormal)."""

    n_orbitals: int
    width: float
    symmetry: str = "antisymmetric"
    center: float = 0.0

    def __post_init__(self):
        if self.n_orbitals not in (2, 3):
            raise ValueError("two or three particles only")
        if self.width <= 0:
            raise ValueError("width must be positive")
        _check_symmetry(self.symmetry)

    @property
    def n_particles(self) -> int:
        return self.n_orbitals

    @cached_property
    def _rho(self):
        """Rows q_j ((x - c)/w)^(2j) exp(-(x - c)^2 / w^2) / (w sqrt(pi)) of the derived q."""
        q, scale = _OSCILLATOR_DENSITIES[self.n_orbitals], self.width * math.sqrt(math.pi)
        rows = len(q)
        centre, rate = [self.center] * rows, [1 / self.width**2] * rows
        return _Terms([p / scale for p in q], None, centre, rate, list(range(rows)), self.width)

    @cached_property
    def _terms(self):
        """Rows p_j (u/w)^(2j) exp(-u^2/(2 w^2)) / (w sqrt(2 pi)) of the derived P."""
        poly = np.array(_OSCILLATOR_POLYNOMIALS[self.n_orbitals, self.symmetry])
        scale = self.width * math.sqrt(2 * math.pi)
        rows = len(poly)
        return _Terms(
            h=poly[:, 0] / scale,
            c=poly[:, 1] / scale,
            centre=np.zeros(rows),
            rate=np.full(rows, 0.5 / self.width**2),
            power=np.arange(rows, dtype=float),
            length=self.width,
        )

    @property
    def grid_center(self) -> float:
        return self.center

    @property
    def grid_halfwidth(self) -> float:
        return 12 * self.width * math.sqrt(2 * self.n_orbitals - 1)


@dataclass(frozen=True, eq=False)
class CorrelatedGaussianPair(TrialState):
    """Gaussian pair with a short-range correlation hole (symmetric, N = 2).

    psi(x, y) ~ exp(-((x-mu)^2 + (y-mu)^2)/(4 w^2)) * (1 - h exp(-(x-y)^2/(2 s^2)))

    All densities are closed-form Gaussian mixtures.  h -> 1 with small s
    digs a hole on the coincidence diagonal, which is how the contact-ratio
    search approaches the saturating antisymmetric value.
    """

    width: float
    hole_depth: float = 0.0
    hole_width: float = 1.0
    center: float = 0.0
    symmetry = "symmetric"
    n_particles = 2

    def __post_init__(self):
        if self.width <= 0 or self.hole_width <= 0:
            raise ValueError("width parameters must be positive")
        if not 0 <= self.hole_depth < 1:
            raise ValueError("hole depth must lie in [0, 1)")

    @cached_property
    def _norm(self) -> float:
        # int G G E^k over the plane, E = exp(-(x-y)^2/(2 s^2))
        w, s, h = self.width, self.hole_width, self.hole_depth
        ints = [
            math.sqrt(2 * math.pi * w**2) * math.sqrt(math.pi / (1 / (2 * w**2) + k / s**2))
            for k in range(3)
        ]
        return ints[0] - 2 * h * ints[1] + h**2 * ints[2]

    @cached_property
    def _rho(self):
        """Rows A_k exp(-g_k (x - mu)^2): row k integrates y out of G(x) G(y) E(x - y)^k,
        E = exp(-(x-y)^2/(2 s^2)), which the expansion (1 - h E)^2 = 1 - 2 h E + h^2 E^2 weights.
        """
        w, s, h = self.width, self.hole_width, self.hole_depth
        alpha = 1 / (2 * w**2)
        amps, rates = [], []
        for coeff, k in ((1.0, 0), (-2 * h, 1), (h * h, 2)):
            beta = k / (2 * s**2)
            amps.append(2.0 * coeff * math.sqrt(math.pi / (alpha + beta)) / self._norm)
            rates.append(alpha + alpha * beta / (alpha + beta))
        return _Terms(h=amps, c=None, centre=[self.center] * 3, rate=rates)

    @cached_property
    def _terms(self):
        """Three h rows, the terms of (1 - h E)^2, and nine C rows, a pair of rho's rows each."""
        w, s, h = self.width, self.hole_width, self.hole_depth
        pair = 2.0 / self._norm * math.sqrt(math.pi) * w
        rho = self._rho
        rows = [
            (pair * coeff, 0.0, 1 / (4 * w**2) + k / (2 * s**2))
            for coeff, k in ((1.0, 0), (-2 * h, 1), (h * h, 2))
        ]
        for (a_i, g_i), (a_j, g_j) in itertools.product(zip(rho.h, rho.rate), repeat=2):
            rows.append((0.0, a_i * a_j * math.sqrt(math.pi / (g_i + g_j)), g_i * g_j / (g_i + g_j)))
        h_coef, c_coef, rate = np.array(rows).T
        return _Terms(h_coef, c_coef, np.zeros(len(rows)), rate)

    @property
    def grid_center(self) -> float:
        return self.center

    @property
    def grid_halfwidth(self) -> float:
        return 12 * self.width


def density(state: TrialState, grid: UniformGrid | None = None) -> DensityProfile:
    """Sample the one-body density on a grid; the mass must equal N.

    The profile carries int rho^2 = C(0) of ``state.correlations``, the one
    int rho^2 that the energies and the bounds read.  Raises
    NormalizationDrift when the trapezoid mass deviates from the particle
    number by more than 1e-6 relative (a symptom of a grid that does not
    cover the state).
    """
    if grid is None:  # 4096 points spanning the support
        box = state.support
        grid = UniformGrid(box.lo, (box.hi - box.lo) / 4095, 4096)
    values = np.asarray(state.rho(grid.x), dtype=float)
    rho_sq = float(state.correlations(0.0)[1])
    profile = DensityProfile(grid, np.clip(values, 0.0, None), state.n_particles, rho_sq)
    drift = abs(profile.mass() - state.n_particles) / state.n_particles
    if drift > 1e-6:
        raise NormalizationDrift(
            f"grid mass off by {drift:.2e} relative for {state!r}"
        )
    return profile


# ---------------------------------------------------------------------------
# Hardy-Littlewood maximal operator


def maximal_operator_norm_bound(p: float) -> float:
    """Operator norm bound M_p = (2^p * 2p/(p-1))^(1/p) = 2 (2p/(p-1))^(1/p) on L^p, p > 1."""
    if p <= 1:
        raise ValueError("the maximal operator is unbounded on L^1")
    return 2 * (2 * p / (p - 1)) ** (1.0 / p)


_COARSE_CELLS = 64  # radius pieces per coarse block of the pruning pass
_FINE_CELLS = 8  # radius pieces per fine block; the kernel scans only surviving ones
_BLOCK_CELLS = 1 << 15  # blocks, or rows x radius columns, per vectorized step: a default profile takes one
_NONZERO_CELLS = 1 << 13  # mask cells per np.flatnonzero call: its index array stays within 64 KiB

# The per-step arrays of every stage, kept per thread across steps and calls.
# At 2^15 cells a step's float array is 256 KiB, above glibc's 128 KiB mmap
# threshold: as a temporary it would be mapped and unmapped at every step and
# its pages faulted in again, so every array of a step is a view of a work
# array of its slot and dtype.  Slots: "step", the arrays a stage reads only
# while it runs; "live", the blocks _live_blocks returns; "bounds", those of
# _block_bounds; ("kept", cells), the blocks _prune_blocks keeps at a level,
# which the next level and the kernel read across its steps.  A ufunc call
# takes a 64 KiB buffer for each broadcast operand, so no call of a stage
# broadcasts two.
_WORK = threading.local()


def _work(slot, count, shape, dtype=float):
    """``count`` arrays of ``shape``, views of the work array of ``slot`` and ``dtype``.

    Each call reuses the memory of the last of its slot and dtype, so a
    stage takes all its arrays of one slot and dtype in one call, and what
    a stage returns is valid until its next call.  A work array first holds
    8 x _BLOCK_CELLS, more than a stage takes at the default sizes; pages it
    never writes are never resident.
    """
    size = count * math.prod(shape)
    buf = _WORK.__dict__.get((slot, dtype))
    if buf is None or buf.size < size:
        buf = _WORK.__dict__[slot, dtype] = np.empty(max(size, 8 * _BLOCK_CELLS), dtype)
    return buf[:size].reshape((count, *shape))


def _nonzero(mask, out):
    """The flat indices of the true cells of ``mask``, a view of the front of ``out``.

    np.flatnonzero runs on _NONZERO_CELLS cells at a time, so that no index
    array it returns reaches the mmap threshold.
    """
    mask, out, count = mask.reshape(-1), out.reshape(-1), 0
    for start in range(0, mask.size, _NONZERO_CELLS):
        cells = np.flatnonzero(mask[start : start + _NONZERO_CELLS])
        np.add(cells, start, out=out[count : count + len(cells)])
        count += len(cells)
    return out[:count]


def _maximal_chunk(at, rho_ext, cum_ext, dx, m_lo, m_hi):
    """Exact sup of window averages about the points rho_ext[at] (vectorized).

    The extended arrays continue the grid flat on both sides, wide enough
    that every window edge at +- m of the scan is in range.  The grids are
    radius-major, (radii, points), so the sup over the radii reduces whole
    grid rows.
    """
    rows, cols = len(at), int(np.max(m_hi - m_lo)) + 2
    m, idx = _work("step", 2, (cols, rows), np.intp)
    s, F, r, tmp, b = _work("step", 5, (cols, rows))
    valid, below = _work("step", 2, (cols - 1, rows), bool)
    b = b[:-1]  # one per piece
    np.copyto(m, np.arange(cols)[:, None])
    m += m_lo
    np.minimum(m, m_hi + 1, out=m)
    rho_ext.take(np.add(at, m, out=idx), out=s, mode="clip")  # in range by construction
    cum_ext.take(idx, out=F, mode="clip")
    s += rho_ext.take(np.subtract(at, m, out=idx), out=tmp, mode="clip")
    F -= cum_ext.take(idx, out=tmp, mode="clip")
    np.multiply(m, dx, out=r)

    # stationary radius inside each piece: r*^2 = r_m^2 + 2 (F_m - s_m r_m)/b,
    # in place in F, operation for operation; b = 0 gives r*^2 = +-inf or nan,
    # which fails the range test as b != 0 would
    s0, r0, rstar_sq, r_sq = s[:-1], r[:-1], F[:-1], tmp
    with np.errstate(divide="ignore", invalid="ignore"):
        avg = np.divide(F, np.multiply(r, 2, out=tmp), out=tmp)
        avg[0, m[0] == 0] = 0.0  # the r -> 0 break is rho, below
        best = np.max(avg, axis=0)

        np.subtract(s[1:], s0, out=b)
        b /= dx
        np.subtract(rstar_sq, np.multiply(s0, r0, out=tmp[:-1]), out=rstar_sq)
        rstar_sq *= 2
        rstar_sq /= b
        rstar_sq += np.square(r, out=r_sq)[:-1]
        np.greater(rstar_sq, r_sq[:-1], out=valid)
        valid &= np.less(rstar_sq, r_sq[1:], out=below)
        a_star = np.sqrt(rstar_sq, out=rstar_sq)
        a_star -= r0
        a_star *= b
        a_star += s0
        np.copyto(a_star, 0.0, where=np.logical_not(valid, out=valid))
    # the candidate is a_star / 2; halving is monotone, so it commutes with the sup
    best = np.maximum(best, np.max(a_star, axis=0) * 0.5)
    return np.maximum(best, rho_ext[at])  # r -> 0 limit is rho itself


def _window_max(a, k):
    """out[i] = max(a[i : i + k]), windows cut off at the end of ``a``; log2(k) np.maximum steps."""
    out = a.copy()
    width = 1
    while width < k:
        step = min(width, k - width)
        np.maximum(out[:-step], out[step:], out=out[:-step])
        width += step
    return out


def _live_blocks(point, lo, hi, cells, lower, peak, cut, floor):
    """The blocks of ``cells`` pieces of each row's radius pieces lo..hi that
    the edge rule of _prune_blocks keeps, as (point, b_lo, b_hi, S).

    Block k of a row covers pieces b_lo = lo + k cells .. b_hi <= hi, its
    edges are E_lo = b_lo dx and E_hi = (b_hi + 1) dx.  S, the sum of
    ``peak`` (the maximum of rho_ext over cells + 1 nodes) on each side,
    bounds the node sums s = rho(x + r) + rho(x - r) on the block's nodes.
    A block is dropped when S < 2 lower (1 - delta) - floor, ``cut`` being
    2 (1 - delta).  The blocks are laid out as a (blocks of the longest row,
    rows) grid and returned in its row-major order, as views of the "live"
    work arrays.
    """
    rows = len(point)
    (span,) = _work("step", 1, (rows,), np.intp)
    width = int(np.max(np.subtract(hi, lo, out=span))) // cells + 1
    b_lo, b_hi, idx = _work("step", 3, (width, rows), np.intp)
    slope, tmp = _work("step", 2, (width, rows))
    live, inside = _work("step", 2, (width, rows), bool)
    np.copyto(b_lo, (np.arange(width) * cells)[:, None])
    b_lo += lo
    np.minimum(np.add(b_lo, cells - 1, out=b_hi), hi, out=b_hi)
    # past a row's end b_lo > hi: the index may leave rho_ext (clipped), and the block is masked
    peak.take(np.add(point, b_lo, out=idx), out=slope, mode="clip")
    np.subtract(point, b_hi, out=idx)
    idx -= 1
    slope += peak.take(idx, out=tmp, mode="clip")
    threshold = lower.take(point, out=tmp[0], mode="clip")
    threshold *= cut
    threshold -= floor
    np.greater_equal(slope, threshold, out=live)
    live &= np.less_equal(b_lo, hi, out=inside)
    cell = _nonzero(live, idx)
    out_point, out_lo, out_hi = _work("live", 3, (len(cell),), np.intp)
    (out_slope,) = _work("live", 1, (len(cell),))
    b_lo.take(cell, out=out_lo, mode="clip")
    b_hi.take(cell, out=out_hi, mode="clip")
    slope.take(cell, out=out_slope, mode="clip")
    point.take(np.remainder(cell, rows, out=b_lo.reshape(-1)[: len(cell)]), out=out_point, mode="clip")
    return out_point, out_lo, out_hi, out_slope


def _block_bounds(point, b_lo, b_hi, slope, cum_ext, dx, ramp, cells, fuzz):
    """(edge_avg, bound) per block of at most ``cells`` pieces, views of the "bounds" work arrays.

    The larger window average of the two block edges, computed as
    _maximal_chunk computes them, and a bound on every value _maximal_chunk
    finds on the block.

    Between the block edges E_lo = b_lo dx and E_hi = (b_hi + 1) dx the
    window mass F(r) has slope s(r) = rho(x + r) + rho(x - r), linear on
    each piece, so F(r) <= min(F_lo + (r - E_lo) S, F_hi + ramp) with S =
    ``slope``, the node sum bound of _live_blocks.  The ramp is the mass of
    the triangles beyond the grid ends, which the stationary candidates
    count and cum_ext does not; those candidates, F(r*)/(2r*) of a piece's
    quadratic mass model, obey both caps, as do the break averages.  The
    sup of the capped mass over 2r is F_lo/(2 E_lo) when S E_lo <= F_lo,
    else (F_hi + ramp)/(2 r_c) at the crossing
    r_c = E_lo + (F_hi + ramp - F_lo)/S, clipped to the block; +inf at
    E_lo = 0.

    Rounding: F is a difference of stored cumsum values.  Every cumsum step
    adds a non-negative increment and rounds to nearest, so the stored step
    exceeds the increment by at most half an ulp of its result, which is at
    most cum[-1]: ``fuzz``.  F_m - F_lo spans at most 2 cells such steps,
    and the rounded subtractions giving F_lo and F_m are each off by at
    most ``fuzz``, so (2 cells + 2) fuzz is added to F_lo.  What is left is
    relative: the increments, S, and the arithmetic of the kernel and of
    the bound, which the caller's (1 + 1e-12) margin covers.
    """
    n = len(point)
    e_hi, idx = _work("step", 2, (n,), np.intp)
    F_lo, F_hi, r_lo, r_hi, r_c, tmp = _work("step", 6, (n,))
    at_zero, capped = _work("step", 2, (n,), bool)
    edge_avg, bound = _work("bounds", 2, (n,))
    np.add(b_hi, 1, out=e_hi)
    cum_ext.take(np.add(point, b_lo, out=idx), out=F_lo, mode="clip")
    F_lo -= cum_ext.take(np.subtract(point, b_lo, out=idx), out=tmp, mode="clip")
    cum_ext.take(np.add(point, e_hi, out=idx), out=F_hi, mode="clip")
    F_hi -= cum_ext.take(np.subtract(point, e_hi, out=idx), out=tmp, mode="clip")
    np.multiply(b_lo, dx, out=r_lo)
    np.multiply(e_hi, dx, out=r_hi)
    np.equal(b_lo, 0, out=at_zero)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(F_lo, np.multiply(r_lo, 2, out=tmp), out=edge_avg)
        np.copyto(edge_avg, 0.0, where=at_zero)
        np.maximum(edge_avg, np.divide(F_hi, np.multiply(r_hi, 2, out=tmp), out=tmp), out=edge_avg)
        F_hi += ramp
        F_lo += (2 * cells + 2) * fuzz
        np.subtract(F_hi, F_lo, out=r_c)
        r_c /= slope
        np.clip(np.add(r_lo, r_c, out=r_c), r_lo, r_hi, out=r_c)
        np.less_equal(np.multiply(slope, r_lo, out=tmp), F_lo, out=capped)
        np.divide(F_hi, np.multiply(r_c, 2, out=tmp), out=bound)
        flat = np.divide(np.minimum(F_lo, F_hi, out=r_hi), np.multiply(r_lo, 2, out=tmp), out=r_hi)
        np.copyto(bound, flat, where=capped)
    np.copyto(bound, np.inf, where=at_zero)
    return edge_avg, bound


def _prune_blocks(point, lo, hi, cells, lower, cum_ext, dx, ramp, peaks, fuzz, cut, floor):
    """Blocks of ``cells`` pieces (see _live_blocks) that can still reach ``lower``.

    Two exact rules drop blocks.  The edge rule (_live_blocks) reads only
    rho: it drops a block whose node sum bound S is below 2 L (1 - delta) -
    floor, L = ``lower``.  The blocks it keeps get window integrals
    (_block_bounds); their edge averages raise ``lower``, and those whose
    slope-capped bound, with a (1 + 1e-12) margin, reaches it are returned
    as (point, lo, hi), views of the ("kept", cells) work arrays.

    The edge rule.  The window average A(r) = F(r)/(2r) obeys
    A' = (s/2 - A)/r, so A falls wherever it is above s/2.  Take a run of
    dropped pieces at a point whose final M rho is V: every s/2 on it is
    below V (1 - delta), as L <= V.  The run starts at an edge whose
    average is in ``lower`` (both edges of a block the rule keeps are) or
    where F = 0 (r = 0, or m_lo at a point off the support).  So no break
    average of the run exceeds the larger of its start average and
    V (1 - delta), and neither exceeds V.  A stationary candidate is
    s(r*)/2 of the piece's linear s, between the piece's end values, so
    below V (1 - delta) too; the piece where a window edge leaves the grid
    is no exception, and there cum_ext leaves out the ramp triangle, so its
    break average is below the one of the piece's own mass model.

    Rounding.  A stored cumsum step exceeds its increment by at most
    ``fuzz`` (_block_bounds), two steps per piece, as if s were larger by
    floor = 2 fuzz/dx, which the threshold subtracts; the rest is relative.
    The exact average at an evaluated start edge may exceed its stored
    value by 3 ulps.  While above V (1 - delta/2), A falls by at least
    (delta V/2) dx/r per piece, at least delta V/(2 (m + 1)) over the first
    piece, m <= n + 1 its index: more than the 6 ulps that the rounding of
    the start and of the break averages takes, once
    delta >= 12 (n + 2) 2^-53.  A stationary candidate is high by at most
    (2 m + 6) ulps, r* - r0 carrying the rounding of r0 and of
    r1 = (m + 1) dx.  delta = max(1e-9, 16 (n + 2) 2^-53) covers both: it is
    1e-9 up to 5.6e5 grid points.
    """
    point, b_lo, b_hi, slope = _live_blocks(point, lo, hi, cells, lower, peaks[cells], cut, floor)
    edge_avg, bound = _block_bounds(point, b_lo, b_hi, slope, cum_ext, dx, ramp, cells, fuzz)
    np.maximum.at(lower, point, edge_avg)
    n = len(point)
    (idx,) = _work("step", 1, (n,), np.intp)
    (reach,) = _work("step", 1, (n,))
    (keep,) = _work("step", 1, (n,), bool)
    bound *= 1 + 1e-12
    cell = _nonzero(np.greater_equal(bound, lower.take(point, out=reach, mode="clip"), out=keep), idx)
    kept = _work(("kept", cells), 3, (len(cell),), np.intp)
    for blocks, out in zip((point, b_lo, b_hi), kept):
        blocks.take(cell, out=out, mode="clip")
    return tuple(kept)


def maximal_function(profile: DensityProfile) -> DensityProfile:
    """(M rho)(x) = sup_r (2r)^(-1) int_{|x-y|<r} rho on the profile grid.

    Exact for the piecewise-linear interpolant (zero outside the grid).
    M rho >= rho pointwise and M(c rho) = c M rho by construction.  The
    output profile reuses the grid; its mass is generally infinite in the
    continuum (M rho ~ N/(2|x|)), so no mass invariant applies to it.
    """
    rho = profile.values
    n = len(rho)
    dx = profile.grid.dx
    nz = np.nonzero(rho)[0]
    if len(nz) == 0:
        return DensityProfile(profile.grid, np.zeros(n), profile.n_particles)
    j0, j1 = int(nz[0]), int(nz[-1])

    # n + 1 flat cells beyond each end hold every window edge of the scan
    flat = np.zeros(n + 1)
    rho_ext = np.concatenate([flat, rho, flat])
    cum = np.cumsum((rho[1:] + rho[:-1]) * (0.5 * dx))
    cum_ext = np.concatenate([flat, [0.0], cum, np.full(n + 1, cum[-1])])
    i = np.arange(n)
    at = i + (n + 1)  # the points, as indices of the extended arrays
    m_lo = np.maximum(np.maximum(j0 - i, i - j1), 1) - 1
    m_hi = np.maximum(i - j0, j1 - i) + 1

    # lower bound L <= M rho: rho, raised by every block edge and kernel
    # result; points in groups whose padded grid of coarse blocks holds at
    # most _BLOCK_CELLS (or one point, if it alone has more), the coarse
    # survivors in slices that split into at most _BLOCK_CELLS fine blocks
    lower_ext = rho_ext.copy()  # indexed as rho_ext; only the grid is read
    lower = lower_ext[n + 1 : 2 * n + 1]
    ramp = 0.5 * dx * (rho[0] + rho[-1])
    peaks = {cells: _window_max(rho_ext, cells + 1) for cells in (_COARSE_CELLS, _FINE_CELLS)}
    delta = max(1e-9, 16 * (n + 2) * 2.0**-53)
    cut, floor = 2 * (1 - delta), np.spacing(cum[-1]) / dx
    prune = (lower_ext, cum_ext, dx, ramp, peaks, 0.5 * np.spacing(cum[-1]), cut, floor)
    n_coarse = (m_hi - m_lo) // _COARSE_CELLS + 1
    per_slice = _BLOCK_CELLS // (_COARSE_CELLS // _FINE_CELLS)
    per_kernel = _BLOCK_CELLS // (_FINE_CELLS + 1)
    start = 0
    while start < n:
        # (k + 1) x the most coarse blocks of points start..start + k: the padded grid of _live_blocks
        padded = np.maximum.accumulate(n_coarse[start:]) * np.arange(1, n - start + 1)
        stop = start + max(1, int(np.searchsorted(padded, _BLOCK_CELLS, side="right")))
        group = slice(start, stop)
        coarse = _prune_blocks(at[group], m_lo[group], m_hi[group], _COARSE_CELLS, *prune)
        for j in range(0, len(coarse[0]), per_slice):
            pt, lo, hi = _prune_blocks(*(c[j : j + per_slice] for c in coarse), _FINE_CELLS, *prune)
            for k in range(0, len(pt), per_kernel):
                rows = slice(k, k + per_kernel)
                kernel = _maximal_chunk(pt[rows], rho_ext, cum_ext, dx, lo[rows], hi[rows])
                np.maximum.at(lower_ext, pt[rows], kernel)
        start = stop
    return DensityProfile(profile.grid, lower.copy(), profile.n_particles)


def maximal_norm_ratio(profile: DensityProfile, p: float) -> float:
    """||M rho||_p / ||rho||_p; the caller compares it with M_p.

    Both integrands are divided by the peak of rho before the power, so that
    no power overflows at large p.  The peak of rho is also the peak of M rho:
    every window average is at most max rho.
    """
    peak, dx = profile.values.max(), profile.grid.dx
    if p < 1 or peak == 0:
        raise ValueError("the norm ratio needs a power >= 1 and a nonzero profile")
    num = trapezoid_richardson((maximal_function(profile).values / peak) ** p, dx)
    den = trapezoid_richardson((profile.values / peak) ** p, dx)
    return (num / den) ** (1.0 / p)


# ---------------------------------------------------------------------------
# randomized suite


def random_state_suite(n_states: int, seed: int) -> list[tuple[str, TrialState]]:
    """Deterministic randomized mix of all families, symmetries and N."""
    rng = rng_stream(seed, 0)
    out = []
    kinds = ["gauss2s", "gauss2a", "gauss3s", "gauss3a", "herm2", "herm3", "corr2"]
    for k in range(n_states):
        kind = kinds[int(rng.integers(len(kinds)))]
        width = float(10 ** rng.uniform(math.log10(0.3), math.log10(3.0)))
        shift = float(rng.uniform(-1.0, 1.0))
        if kind.startswith("gauss"):
            n = 2 if "2" in kind else 3
            symmetry = "symmetric" if kind.endswith("s") else "antisymmetric"
            gaps = rng.uniform(0.5, 4.0, size=n - 1) * width
            centers = np.concatenate([[0.0], np.cumsum(gaps)])
            centers += shift - centers.mean()
            state = GaussianProduct(tuple(centers), width, symmetry)
        elif kind.startswith("herm"):
            n = 2 if kind == "herm2" else 3
            symmetry = "antisymmetric" if rng.uniform() < 0.7 else "symmetric"
            state = HermiteSlater(n, width, symmetry, shift)
        else:
            state = CorrelatedGaussianPair(
                width,
                hole_depth=float(rng.uniform(0.1, 0.9)),
                hole_width=float(10 ** rng.uniform(math.log10(0.3), math.log10(2.0))) * width,
                center=shift,
            )
        out.append((f"s{k:03d}", state))
    return out
