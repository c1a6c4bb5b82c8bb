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

For the orbital families, the one-body density and the pair density are
evaluated through the permutation algebra

  rho(x)    = sum_ab W1[a,b] phi_a(x) phi_b(x),
  rho2(x,y) = sum_abcd W2[a,b,c,d] phi_a(x) phi_b(x) phi_c(y) phi_d(y),

with weights built from orbital overlaps, so no quadrature enters the
densities themselves.  rho2 integrates to N(N-1) and its diagonal drives the
contact interaction.  It is evaluated as

  rho2(x,y) = sum_ab phi_a(x) phi_b(x) Q_ab(y),
  Q_ab(y)   = sum_cd W2[a,b,c,d] phi_c(y) phi_d(y),

with the orbitals of x and of y evaluated on each argument's own shape: the
N^4-term contraction Q runs on the y nodes only, and the broadcast (x, y)
grid costs N^2 terms per point.  Hermite orbitals are built by recurrence:
the physicists' H_k = 2u H_(k-1) - 2(k-1) H_(k-2) is run in its scaled form
H_k(u) = 2^(k/2) He_k(t), t = sqrt(2) u, He_k = t He_(k-1) - (k-1) He_(k-2),
which for k <= 2 is operation for operation what scipy.special.eval_hermite
computes, so the orbital values do not depend on which of the two is used.

Every family also gives its two correlation functions in closed form,
``correlations(u) -> (h(u), C(u))`` with

  h(u) = int rho2(y+u, y) dy,      C(u) = int rho(y) rho(y+u) dy.

GaussianProduct: each orbital product is one Gaussian,
P_ab = phi_a phi_b = A_ab exp(-(x - m_ab)^2 / (2 w^2)) with
A_ab = S_ab / sqrt(2 pi w^2), S the overlap matrix, and m_ab the midpoint of
the two centers, so

  int P_ab(y+u) P_cd(y) dy = A_ab A_cd sqrt(pi) w exp(-(u - m_ab + m_cd)^2 / (4 w^2)),

weighted by W2 for h and by W1 (x) W1 for C.  The forms are exact, but for a
near-degenerate determinant (close centers, large W1 of both signs) the
81-term sum of C cancels: on the default 200-state suite C(0) is good to
7e-13 relative, against 3e-15 typical.  CorrelatedGaussianPair: rho2
is the envelope's pair density times (1 - h e^(-u^2/2s^2))^2, a function of
u alone, and rho is a sum of three centred Gaussians, so h is one Gaussian
integral and C nine.  HermiteSlater: under y = c + w (tau/sqrt(2) - u/(2w))
the integrand of h or C is e^(-tau^2) e^(-u^2/(2w^2)) times a polynomial in
tau of degree at most 4(N-1) <= 8 (four orbitals, each a polynomial of
degree <= N-1 times a Gaussian), so the 5-node Gauss-Hermite rule, exact to
degree 9, integrates it exactly; the nodes are read through rho2 and rho.

The Hardy-Littlewood maximal function of a grid profile is computed exactly
for the piecewise-linear interpolant: on each radius piece [m dx, (m+1) dx]
the window average F(r)/(2r) is rational with quadratic numerator, so the
supremum is attained either at a breakpoint radius or at the analytic
stationary radius of a piece; both candidate sets are enumerated.

Most radii cannot win, and the scan skips them.  No candidate at radius r
exceeds mass/(2r), in floating point too, since the window integrals come
from a monotone cumulative sum; here mass also counts a one-cell ramp to zero
beyond each end of the grid, which the piece where a window edge leaves the
grid interpolates.  Each point takes as lower bound L <= M rho the larger of
rho and the window averages at 24 geometric radii, and scans radii only up
to ceil(mass/(2 L dx)) plus one margin cell; the margin keeps a rounded cut
from falling short, and L = 0 cuts nothing.  The points are then sorted by
scan length and cut into blocks of at most 2^13 rows x radius cells, so a
block pads little and its 64 KB work arrays stay in cache.  Only candidates
below L are dropped, so every value is bit-identical to a full scan.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

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


def _hermite_rule_5():
    """5-node Gauss-Hermite rule for int f(tau) e^(-tau^2), exact to degree 9.

    The nodes are the roots of H_5 = 32 tau^5 - 160 tau^3 + 120 tau,
    tau^2 in {0, (5 -+ sqrt(10))/2}, with weights sqrt(pi) (8/15) and
    sqrt(pi) (7 +- 2 sqrt(10))/60.  numpy's hermgauss(5) agrees to 6e-17, but
    its eigensolver's first call costs every process 1 MB of resident memory.
    """
    r = math.sqrt(10.0)
    inner, outer = math.sqrt((5 - r) / 2), math.sqrt((5 + r) / 2)
    w_inner, w_outer = (7 + 2 * r) / 60, (7 - 2 * r) / 60
    tau = np.array([-outer, -inner, 0.0, inner, outer])
    weight = math.sqrt(math.pi) * np.array([w_outer, w_inner, 8 / 15, w_inner, w_outer])
    return tau, weight


# covers the degree-8 polynomials of HermiteSlater's h and C at N = 3
_HERMITE_RULE = _hermite_rule_5()


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

    @property
    def hi(self) -> float:
        return self.x0 + self.dx * (self.n - 1)


@dataclass(frozen=True, eq=False)
class DensityProfile:
    """Nonnegative density samples on a uniform grid.

    Values below SUPPORT_TRUNCATION times the peak are clamped to zero at
    construction, which defines the numerical support used by the maximal
    operator and the autocorrelation integrals.
    """

    grid: UniformGrid
    values: np.ndarray
    n_particles: float

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

    @property
    def x(self) -> np.ndarray:
        return self.grid.x

    def mass(self) -> float:
        return float(np.trapezoid(self.values, dx=self.grid.dx))

    def power_integral(self, p: float) -> float:
        return density_power_integral(self, p)

    def scaled(self, c: float) -> "DensityProfile":
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return DensityProfile(self.grid, c * self.values, c * self.n_particles)


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
    """Common surface: densities, pair densities, correlation functions, support interval."""

    n_particles: int
    symmetry: str

    def rho(self, x):
        raise NotImplementedError

    def rho2(self, x, y):
        raise NotImplementedError

    def psi(self, *coords):
        raise NotImplementedError

    def correlations(self, u):
        """(h(u), C(u)) in closed form, each of u's shape (module docstring).

        h(u) = int rho2(y+u, y) dy, C(u) = int rho(y) rho(y+u) dy.
        """
        raise NotImplementedError

    @property
    def grid_center(self) -> float:
        raise NotImplementedError

    @property
    def grid_halfwidth(self) -> float:
        raise NotImplementedError

    @property
    def support(self) -> Interval:
        """grid_center +- grid_halfwidth: the density is negligible outside."""
        c, w = self.grid_center, self.grid_halfwidth
        return Interval(c - w, c + w)

    @property
    def feature_scale(self) -> float:
        """Smallest length scale of density structure (grids, correlations)."""
        return self.grid_halfwidth / 12.0

    def default_grid(self, n: int = 4096) -> UniformGrid:
        box = self.support
        return UniformGrid(box.lo, (box.hi - box.lo) / (n - 1), n)

    def translated(self, delta: float) -> "TrialState":
        raise NotImplementedError

    def dilated(self, lam: float) -> "TrialState":
        """State with density lam * rho(lam x)."""
        raise NotImplementedError


def _parity(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class _OrbitalState(TrialState):
    """Permanent/determinant of one-particle orbitals with known overlaps."""

    @cached_property
    def _tables(self):
        n = self.n_particles
        S = self._overlap_matrix()
        perms = list(itertools.permutations(range(n)))
        if self.symmetry == "antisymmetric":
            signs = [_parity(p) for p in perms]
        else:
            signs = [1] * len(perms)
        norm = 0.0
        w1 = np.zeros((n, n))
        w2 = np.zeros((n, n, n, n)) if n >= 2 else None
        for sg, s_sign in zip(perms, signs):
            for tg, t_sign in zip(perms, signs):
                overlaps = [S[sg[i], tg[i]] for i in range(n)]
                coeff = s_sign * t_sign
                norm += coeff * math.prod(overlaps)
                w1[sg[0], tg[0]] += coeff * math.prod(overlaps[1:])
                w2[sg[0], tg[0], sg[1], tg[1]] += coeff * math.prod(overlaps[2:])
        if norm <= 1e-12:
            raise ValueError(
                "degenerate state: symmetrized orbital combination has (near-)zero norm"
            )
        return S, norm, n * w1 / norm, n * (n - 1) * w2 / norm

    @property
    def _norm(self):
        return self._tables[1]

    def _overlap_matrix(self) -> np.ndarray:
        raise NotImplementedError

    def _orbital_values(self, x) -> np.ndarray:
        """Stack of orbital values, shape (n_orbitals,) + x.shape."""
        raise NotImplementedError

    def rho(self, x):
        x = np.asarray(x, dtype=float)
        phi = self._orbital_values(x)
        w1 = self._tables[2]
        return np.einsum("ab,a...,b...->...", w1, phi, phi)

    def rho2(self, x, y):
        # no broadcast of x and y: Q_ab(y) is contracted on y's own nodes
        phi_x = self._orbital_values(x)
        phi_y = self._orbital_values(y)
        q = np.einsum("abcd,c...,d...->ab...", self._tables[3], phi_y, phi_y)
        return np.einsum("a...,b...,ab...->...", phi_x, phi_x, q)

    def psi(self, *coords):
        if len(coords) != self.n_particles:
            raise ValueError("one coordinate array per particle")
        coords = np.broadcast_arrays(*[np.asarray(c, float) for c in coords])
        phi = [self._orbital_values(c) for c in coords]
        n = self.n_particles
        out = 0.0
        for perm in itertools.permutations(range(n)):
            sign = _parity(perm) if self.symmetry == "antisymmetric" else 1
            term = phi[0][perm[0]]
            for i in range(1, n):
                term = term * phi[i][perm[i]]
            out = out + sign * term
        return out / math.sqrt(self._norm)


def _check_symmetry(symmetry: str) -> str:
    if symmetry not in ("symmetric", "antisymmetric"):
        raise ValueError("symmetry must be 'symmetric' or 'antisymmetric'")
    return symmetry


@dataclass(frozen=True, eq=False)
class GaussianProduct(_OrbitalState):
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

    def _overlap_matrix(self):
        mu = np.asarray(self.centers)
        return np.exp(-((mu[:, None] - mu[None, :]) ** 2) / (8 * self.width**2))

    def _orbital_values(self, x):
        x = np.asarray(x, dtype=float)
        mu = np.asarray(self.centers).reshape((-1,) + (1,) * x.ndim)
        norm = (2 * math.pi * self.width**2) ** -0.25
        return norm * np.exp(-((x - mu) ** 2) / (4 * self.width**2))

    def correlations(self, u):
        s, _, w1, w2 = self._tables
        w = self.width
        amp = s / math.sqrt(2 * math.pi * w**2)
        mu = np.asarray(self.centers)
        mid = 0.5 * (mu[:, None] + mu[None, :])
        pair = amp[:, :, None, None] * amp[None, None, :, :]
        shift = (mid[:, :, None, None] - mid[None, None, :, :]).ravel()
        weights = np.stack(
            [(w2 * pair).ravel(), (w1[:, :, None, None] * w1 * pair).ravel()], axis=-1
        )
        u = np.asarray(u, dtype=float)[..., None]
        kernel = math.sqrt(math.pi) * w * np.exp(-((u - shift) ** 2) / (4 * w**2))
        out = kernel @ weights
        return out[..., 0], out[..., 1]

    @property
    def grid_center(self) -> float:
        return float(np.mean(self.centers))

    @property
    def grid_halfwidth(self) -> float:
        spread = max(abs(c - self.grid_center) for c in self.centers)
        return 12 * self.width + spread

    @property
    def feature_scale(self) -> float:
        return self.width

    def translated(self, delta):
        return GaussianProduct(tuple(c + delta for c in self.centers), self.width, self.symmetry)

    def dilated(self, lam):
        return GaussianProduct(tuple(c / lam for c in self.centers), self.width / lam, self.symmetry)


@dataclass(frozen=True, eq=False)
class HermiteSlater(_OrbitalState):
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

    def _overlap_matrix(self):
        return np.eye(self.n_orbitals)

    def _orbital_values(self, x):
        u = (np.asarray(x, dtype=float) - self.center) / self.width
        env = np.exp(-(u**2) / 2)
        t = math.sqrt(2.0) * u
        he = [1.0, t]  # He_k(t) = t He_(k-1)(t) - (k-1) He_(k-2)(t)
        for k in range(2, self.n_orbitals):
            he.append(t * he[k - 1] - (k - 1) * he[k - 2])
        rows = []
        for k in range(self.n_orbitals):
            norm = (math.pi**-0.25) / math.sqrt(2.0**k * math.factorial(k) * self.width)
            rows.append(norm * (he[k] * 2.0 ** (k / 2)) * env)  # H_k(u) = 2^(k/2) He_k(t)
        return np.stack(rows)

    def correlations(self, u):
        tau, omega = _HERMITE_RULE
        u = np.asarray(u, dtype=float)[..., None]
        y = self.center + self.width * tau / math.sqrt(2.0) - 0.5 * u
        weight = self.width / math.sqrt(2.0) * omega * np.exp(tau**2)
        h = self.rho2(y + u, y) @ weight
        c = (self.rho(y) * self.rho(y + u)) @ weight
        return h, c

    @property
    def grid_center(self) -> float:
        return self.center

    @property
    def grid_halfwidth(self) -> float:
        return 12 * self.width * math.sqrt(2 * self.n_orbitals - 1)

    @property
    def feature_scale(self) -> float:
        return self.width / math.sqrt(2 * self.n_orbitals - 1)

    def translated(self, delta):
        return HermiteSlater(self.n_orbitals, self.width, self.symmetry, self.center + delta)

    def dilated(self, lam):
        return HermiteSlater(self.n_orbitals, self.width / lam, self.symmetry, self.center / lam)


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

    def psi(self, x, y):
        x, y = np.asarray(x, float), np.asarray(y, float)
        w, s, h, mu = self.width, self.hole_width, self.hole_depth, self.center
        envelope = np.exp(-((x - mu) ** 2 + (y - mu) ** 2) / (4 * w**2))
        hole = 1.0 - h * np.exp(-((x - y) ** 2) / (2 * s**2))
        return envelope * hole / math.sqrt(self._norm)

    def rho2(self, x, y):
        return 2.0 * self.psi(x, y) ** 2

    @cached_property
    def _gaussians(self):
        """Amplitudes A_k and exponents g_k of rho(x) = sum_k A_k exp(-g_k (x - mu)^2).

        Term k integrates y out of G(x) G(y) E(x - y)^k, E = exp(-(x-y)^2/(2 s^2)),
        which the expansion (1 - h E)^2 = 1 - 2 h E + h^2 E^2 weights.
        """
        w, s, h = self.width, self.hole_width, self.hole_depth
        alpha = 1 / (2 * w**2)
        amps, exps = [], []
        for coeff, k in ((1.0, 0), (-2 * h, 1), (h * h, 2)):
            beta = k / (2 * s**2)
            amps.append(2.0 * coeff * math.sqrt(math.pi / (alpha + beta)) / self._norm)
            exps.append(alpha + alpha * beta / (alpha + beta))
        return np.array(amps), np.array(exps)

    def rho(self, x):
        d2 = (np.asarray(x, dtype=float) - self.center) ** 2
        amps, exps = self._gaussians
        return sum(a * np.exp(-g * d2) for a, g in zip(amps, exps))

    def correlations(self, u):
        u = np.asarray(u, dtype=float)
        w, s, h = self.width, self.hole_width, self.hole_depth
        hole = 1.0 - h * np.exp(-(u**2) / (2 * s**2))
        pair = 2.0 / self._norm * math.sqrt(math.pi) * w * np.exp(-(u**2) / (4 * w**2)) * hole**2
        amps, exps = self._gaussians
        total = exps[:, None] + exps[None, :]
        coeff = (amps[:, None] * amps[None, :] * np.sqrt(math.pi / total)).ravel()
        rate = (exps[:, None] * exps[None, :] / total).ravel()
        return pair, np.exp(-(u[..., None] ** 2) * rate) @ coeff

    @property
    def grid_center(self) -> float:
        return self.center

    @property
    def grid_halfwidth(self) -> float:
        return 12 * self.width

    @property
    def feature_scale(self) -> float:
        return min(self.width, self.hole_width)

    def translated(self, delta):
        return CorrelatedGaussianPair(
            self.width, self.hole_depth, self.hole_width, self.center + delta
        )

    def dilated(self, lam):
        return CorrelatedGaussianPair(
            self.width / lam, self.hole_depth, self.hole_width / lam, self.center / lam
        )


def density(state: TrialState, grid: UniformGrid | None = None, n: int = 4096) -> DensityProfile:
    """Sample the one-body density on a grid; the mass must equal N.

    Raises NormalizationDrift when the trapezoid mass deviates from the
    particle number by more than 1e-6 relative (a symptom of a grid that
    does not cover the state).
    """
    grid = grid or state.default_grid(n)
    values = np.asarray(state.rho(grid.x), dtype=float)
    profile = DensityProfile(grid, np.clip(values, 0.0, None), state.n_particles)
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


_CUTOFF_PROBES = 24  # geometric probe radii of the lower bound behind the radius cutoff
_BLOCK_CELLS = 1 << 13  # rows x radius columns per vectorized block; bounds the work arrays


def _maximal_chunk(at, rho_ext, cum_ext, dx, m_lo, m_hi):
    """Exact sup of window averages about the points rho_ext[at] (vectorized).

    The extended arrays continue the grid flat on both sides, wide enough
    that every window edge at +- m of the scan is in range.
    """
    m = m_lo[:, None] + np.arange(int(np.max(m_hi - m_lo)) + 2)
    np.minimum(m, m_hi[:, None] + 1, out=m)
    up = at[:, None] + m
    dn = at[:, None] - m
    s = rho_ext[up]
    s += rho_ext[dn]
    F = cum_ext[up]
    F -= cum_ext[dn]
    r = m * dx

    with np.errstate(divide="ignore", invalid="ignore"):
        a_break = np.where(m > 0, F / (2 * r), 0.0)
    best = np.max(a_break, axis=1)

    # stationary radius inside each piece: r*^2 = r_m^2 + 2 (F_m - s_m r_m)/b,
    # evaluated in place, operation for operation
    s0, r0 = s[:, :-1], r[:, :-1]
    b = s[:, 1:] - s0
    b /= dx
    r0_sq = r0**2
    with np.errstate(divide="ignore", invalid="ignore"):
        rstar_sq = s0 * r0
        np.subtract(F[:, :-1], rstar_sq, out=rstar_sq)
        rstar_sq *= 2
        rstar_sq /= b
        rstar_sq += r0_sq
        valid = (b != 0) & (rstar_sq > r0_sq) & (rstar_sq < r[:, 1:] ** 2)
        a_star = np.sqrt(np.where(valid, rstar_sq, 1.0))
        a_star -= r0
        a_star *= b
        a_star += s0
        a_star *= 0.5
    best = np.maximum(best, np.max(np.where(valid, a_star, 0.0), axis=1))
    return np.maximum(best, rho_ext[at])  # r -> 0 limit is rho itself


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

    cum = np.concatenate([[0.0], np.cumsum(0.5 * dx * (rho[1:] + rho[:-1]))])
    # n + 1 flat cells beyond each end hold every window edge of the scan
    rho_ext = np.concatenate([np.zeros(n + 1), rho, np.zeros(n + 1)])
    cum_ext = np.concatenate([np.full(n + 1, cum[0]), cum, np.full(n + 1, cum[-1])])
    i_all = np.arange(n)
    at = i_all + (n + 1)
    m_lo = np.maximum(np.maximum(j0 - i_all, i_all - j1), 1) - 1
    m_hi = np.maximum(i_all - j0, j1 - i_all) + 1

    # lower bound L <= M rho: rho itself and the window averages at a few
    # geometric radii, each computed as _maximal_chunk computes it
    p_lo = np.maximum(m_lo, 1)
    m_p = np.rint(p_lo[:, None] * (m_hi / p_lo)[:, None] ** np.linspace(0, 1, _CUTOFF_PROBES))
    m_p = m_p.astype(int)
    F_p = cum_ext[at[:, None] + m_p] - cum_ext[at[:, None] - m_p]
    lower = np.maximum(np.max(F_p / (2 * (m_p * dx)), axis=1), rho)
    # no candidate at radius r exceeds mass/(2r), where mass also counts the
    # one-cell ramps to zero that the edge pieces of the scan put beyond the
    # grid: scan only radii up to mass/(2L), plus a margin cell against
    # rounding; L == 0 cuts nothing
    mass = cum[-1] + 0.5 * dx * (rho[0] + rho[-1])
    with np.errstate(divide="ignore"):
        reach = np.ceil(mass / (2 * lower * dx)) + 1
    m_hi = np.minimum(m_hi, reach).astype(int)

    # blocks of similar scan length, rows x radius columns within the budget
    order = np.argsort(m_hi - m_lo, kind="stable")
    cols = (m_hi - m_lo)[order] + 2
    out = np.empty(n)
    start = 0
    while start < n:
        cells = np.arange(1, n - start + 1) * cols[start:]
        stop = start + max(1, int(np.searchsorted(cells, _BLOCK_CELLS, side="right")))
        idx = order[start:stop]
        out[idx] = _maximal_chunk(at[idx], rho_ext, cum_ext, dx, m_lo[idx], m_hi[idx])
        start = stop
    return DensityProfile(profile.grid, out, profile.n_particles)


def maximal_norm_ratio(profile: DensityProfile, p: float) -> float:
    """||M rho||_p / ||rho||_p; the caller compares it with M_p."""
    num = density_power_integral(maximal_function(profile), p)
    den = density_power_integral(profile, p)
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
