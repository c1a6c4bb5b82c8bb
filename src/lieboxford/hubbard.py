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

import numpy as np

from .numerics import Interval, NoBracket, QuadratureSpec, find_root, integrate_1d

__all__ = [
    "energy_per_site",
    "energy_excess_factor",
    "min_excess_factor",
    "exchange_correlation",
    "occupation_sweep",
    "lieb_wu_energy",
    "kappa_of_u",
]


def energy_per_site(n, t, u, kappa):
    """e(n, t, U) at kappa, elementwise over arrays; fillings above 1 go
    through particle-hole reflection."""
    n = np.asarray(n, dtype=float)
    low = -(2 * t * kappa / math.pi) * np.sin(math.pi * np.minimum(n, 2 - n) / kappa)
    return (np.where(n <= 1, low, low + u * (n - 1)))[()]


def energy_excess_factor(n, kappa):
    """f_n(k) = 2 sin(pi n/2) - k sin(pi n/k) on [0, 1] x [1, 2]; f >= 0.

    Evaluated as 4 cos((a + b)/2) sin(h) + (2 - k) sin b, with a = pi n/2,
    b = pi n/k and h = (a - b)/2 = pi n (k - 2)/(4 k) formed directly: the
    two terms of the definition, and a - b, cancel as k -> 2 (small U/t).
    At k = 2 both terms are exactly 0.
    """
    n = np.asarray(n, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    if not np.all((n >= 0) & (n <= 1)):
        raise ValueError("filling must lie in [0, 1] for the excess factor")
    if not np.all((kappa >= 1) & (kappa <= 2)):
        raise ValueError("kappa must lie in [1, 2]")
    a, b = math.pi * n / 2, math.pi * n / kappa
    h = math.pi * n * (kappa - 2) / (4 * kappa)
    return (4 * np.cos((a + b) / 2) * np.sin(h) + (2 - kappa) * np.sin(b))[()]


_EXCESS_CELLS = 1 << 12  # grid cells per energy_excess_factor call of min_excess_factor


def min_excess_factor(n, kappa) -> float:
    """min of f_n(k) over the grid n x kappa of two 1-D arrays.

    The grid is evaluated in blocks of rows of at most _EXCESS_CELLS cells
    (one row if a row alone has more), so its temporaries stay small
    whatever the grid; the min over the blocks is the min over the grid.
    """
    rows = max(1, _EXCESS_CELLS // len(kappa))
    blocks = range(0, len(n), rows)
    return float(np.min([np.min(energy_excess_factor(n[i : i + rows, None], kappa[None, :])) for i in blocks]))


def exchange_correlation(n, t, u, kappa):
    """e_xc = e(n,t,U) - e(n,t,0) - U n^2/4, elementwise over arrays.

    Evaluated in the factorized form (2t/pi) f_m(kappa) + U (n - 1)_+ - U n^2/4
    with m = min(n, 2 - n); a filling outside [0, 2] or a kappa outside [1, 2]
    raises ValueError through the excess factor.
    """
    n = np.asarray(n, dtype=float)
    excess = (2 * t / math.pi) * energy_excess_factor(np.minimum(n, 2 - n), kappa)
    return (excess + np.where(n > 1, u * (n - 1), 0.0) - u * n**2 / 4.0)[()]


def occupation_sweep(rng, count: int, t: float) -> tuple[float, int]:
    """(smallest slack, failures) of the site-occupation bound
    sum_i e_xc(n_i) >= -(U/4) sum_i n_i^2 over ``count`` random cases at hopping t.

    Each case draws, from ``rng`` and in this order, 1 to 12 occupations in
    [0, 2], U in [0, 8] and kappa in [1, 2]; the bound is kappa-uniform, so
    the cases do not depend on the calibration kappa(U/t).  All sites go
    through one exchange_correlation call, and a case fails when its slack
    (left minus right side) is below -1e-10.
    """
    if not count:
        return math.inf, 0
    sites, us, kappas = [], [], []
    for _ in range(count):
        sites.append(rng.uniform(0, 2, size=int(rng.integers(1, 13))))
        us.append(float(rng.uniform(0, 8)))
        kappas.append(float(rng.uniform(1, 2)))
    sizes = [len(s) for s in sites]
    e_xc = exchange_correlation(np.concatenate(sites), t, np.repeat(us, sizes), np.repeat(kappas, sizes))
    slacks = [
        float(np.sum(e)) + (u / 4.0) * float(np.sum(s**2))
        for e, s, u in zip(np.split(e_xc, np.cumsum(sizes)[:-1]), sites, us)
    ]
    return min(slacks), sum(not s >= -1e-10 for s in slacks)


# J0 and J1 as in the Cephes library (j0.c, j1.c; S. L. Moshier): a rational
# in x^2 times the zero factors up to 5, the Hankel asymptotic form with
# rational amplitude and phase beyond ("zeros" are the squares of the first
# two zeros).  Horner order, constants and libm sin/cos/sqrt per element are
# Cephes's, so the values are those of scipy.special.j0/j1 bit for bit.
_SQ2OPI = 7.9788456080286535587989e-1  # sqrt(2/pi)
_J0 = {
    "RP": (-4.79443220978201773821e9, 1.95617491946556577543e12, -2.49248344360967716204e14,
           9.70862251047306323952e15),
    "RQ": (4.99563147152651017219e2, 1.73785401676374683123e5, 4.84409658339962045305e7,
           1.11855537045356834862e10, 2.11277520115489217587e12, 3.10518229857422583814e14,
           3.18121955943204943306e16, 1.71086294081043136091e18),
    "PP": (7.96936729297347051624e-4, 8.28352392107440799803e-2, 1.23953371646414299388e0,
           5.44725003058768775090e0, 8.74716500199817011941e0, 5.30324038235394892183e0,
           9.99999999999999997821e-1),
    "PQ": (9.24408810558863637013e-4, 8.56288474354474431428e-2, 1.25352743901058953537e0,
           5.47097740330417105182e0, 8.76190883237069594232e0, 5.30605288235394617618e0,
           1.00000000000000000218e0),
    "QP": (-1.13663838898469149931e-2, -1.28252718670509318512e0, -1.95539544257735972385e1,
           -9.32060152123768231369e1, -1.77681167980488050595e2, -1.47077505154951170175e2,
           -5.14105326766599330220e1, -6.05014350600728481186e0),
    "QQ": (6.43178256118178023184e1, 8.56430025976980587198e2, 3.88240183605401609683e3,
           7.24046774195652478189e3, 5.93072701187316984827e3, 2.06209331660327847417e3,
           2.42005740240291393179e2),
    "zeros": (5.78318596294678452118e0, 3.04712623436620863991e1),
    "phase": 7.85398163397448309616e-1,  # pi/4
}
_J1 = {
    "RP": (-8.99971225705559398224e8, 4.52228297998194034323e11, -7.27494245221818276015e13,
           3.68295732863852883286e15),
    "RQ": (6.20836478118054335476e2, 2.56987256757748830383e5, 8.35146791431949253037e7,
           2.21511595479792499675e10, 4.74914122079991414898e12, 7.84369607876235854894e14,
           8.95222336184627338078e16, 5.32278620332680085395e18),
    "PP": (7.62125616208173112003e-4, 7.31397056940917570436e-2, 1.12719608129684925192e0,
           5.11207951146807644818e0, 8.42404590141772420927e0, 5.21451598682361504063e0,
           1.00000000000000000254e0),
    "PQ": (5.71323128072548699714e-4, 6.88455908754495404082e-2, 1.10514232634061696926e0,
           5.07386386128601488557e0, 8.39985554327604159757e0, 5.20982848682361821619e0,
           9.99999999999999997461e-1),
    "QP": (5.10862594750176621635e-2, 4.98213872951233449420e0, 7.58238284132545283818e1,
           3.66779609360150777800e2, 7.10856304998926107277e2, 5.97489612400613639965e2,
           2.11688757100572135698e2, 2.52070205858023719784e1),
    "QQ": (7.42373277035675149943e1, 1.05644886038262816351e3, 4.98641058337653607651e3,
           9.56231892404756170795e3, 7.99704160447350683650e3, 2.82619278517639096600e3,
           3.36093607810698293419e2),
    "zeros": (1.46819706421238932572e1, 4.92184563216946036703e1),
    "phase": 2.35619449019234492885e0,  # 3 pi/4
}


def _polevl(x, coef):
    """coef[0] x^n + ... + coef[n] by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """_polevl with an implicit leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _hankel(x, w, q, c):
    """sqrt(2/(pi x)) (P(q) cos(x - phase) - w Q(q) sin(x - phase)), w = 5/x, q = w^2, x > 5."""
    p = _polevl(q, c["PP"]) / _polevl(q, c["PQ"])
    q = _polevl(q, c["QP"]) / _p1evl(q, c["QQ"])
    xn = x - c["phase"]
    return (p * math.cos(xn) - w * q * math.sin(xn)) * _SQ2OPI / math.sqrt(x)


def _j0(x):
    """Bessel J0 elementwise, x >= 0."""
    out = []
    for v in x.tolist():
        if v > 5.0:
            out.append(_hankel(v, 5.0 / v, 25.0 / (v * v), _J0))
        elif v < 1.0e-5:
            out.append(1.0 - v * v / 4.0)
        else:
            z = v * v
            d1, d2 = _J0["zeros"]
            p = (z - d1) * (z - d2)
            out.append(p * _polevl(z, _J0["RP"]) / _p1evl(z, _J0["RQ"]))
    return np.array(out).reshape(x.shape)


def _j1(x):
    """Bessel J1 elementwise, x >= 0."""
    out = []
    for v in x.tolist():
        if v > 5.0:
            w = 5.0 / v  # j1.c squares w where j0.c divides 25 by x^2
            out.append(_hankel(v, w, w * w, _J1))
        else:
            z = v * v
            z1, z2 = _J1["zeros"]
            w = _polevl(z, _J1["RP"]) / _p1evl(z, _J1["RQ"])
            out.append(w * v * (z - z1) * (z - z2))
    return np.array(out).reshape(x.shape)


def _fermi(z):
    """Fermi weight 1/(1 + e^z) elementwise; 0 where e^z overflows."""
    out = []
    for v in z.tolist():
        try:
            out.append(1.0 / (1.0 + math.exp(v)))
        except OverflowError:
            out.append(0.0)
    return np.array(out).reshape(z.shape)


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
            return _j0(x) * _j1(x) / x * _fermi(x * r / 2.0)

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
