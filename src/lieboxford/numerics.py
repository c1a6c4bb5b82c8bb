"""Shared numerical kernels: adaptive quadrature, root finding, seeded random streams.

The quadrature kernel is an adaptive Gauss-Kronrod (G7/K15, QUADPACK dqk15)
scheme over scalar integrands, ``f`` mapping an ``(m,)`` node array to
``(m,)`` values, on a finite ``Interval``: every integral of the package runs
over a bounded range (a state's support, a curvature-moment window, the
cut-off Lieb-Wu integral).  The loop splits one panel at a time, and its
totals and heap keys are Python floats.  It tests convergence after each
split, and a run whose initial panels already converge returns before it
builds a heap.  The panel to split next is carried outside the heap: a split
pushes one half and heappushpops the other, which pops the panel that a push
of both halves and a pop would, as the keys (-error, creation counter) are
distinct and ordered; so the pops and totals are those of one heap of every
panel, with 2 heap operations per split instead of 3.  ``f`` is called on the
nodes of both halves of a split, and, where the loop bisects toward one end
again and again (an endpoint singularity), on those of up to 15 further
splits toward that end in the same call, once that chain of bisections is 4
steps long; their halves wait until the loop pops them.  Each rule's sums
over every panel of a call are one numpy reduction over the (n, 15) value
block, which sums each row in an order fixed by its length alone (pairwise
summation), so a panel keeps the bits of its own one-panel call; an (n, 15)
BLAS gemv would round differently as n changes.  A value is thus that of one
split at a time whenever ``f`` gives each node the same bits whatever else is
in its batch, as every integrand of the package does.  Kronrod nodes are
interior; only a panel narrower than the float spacing at an end puts a node
on the end itself.  Speculated panels reach that depth sooner, and a
non-finite value there raises only if the loop pops the panel.  Finite values
whose weighted sum overflows (numpy warns, by its ``over`` setting) never
converge: a run raises NonConvergence as soon as its error estimate is NaN,
after its initial panels or after any split, so which panels it splits never
depends on how a heap orders a NaN key.

The loop is a generator (``_adaptive``): it yields the panel ends it needs
next and is sent their sums.  One driver (``_lockstep``) runs every loop, in
rounds, for jobs that each integrate one component of a basis
f(x) = (f_0(x), f_1(x), ...) times a weight of their own; a job reads the
basis of the call or names its own, so one call can carry the integrals of
many states.  Each round forms the nodes of every distinct pending request
in one call, evaluates each basis once, on the contiguous nodes of its
requests, and each weight once, on the nodes of every request that needs
it, and sums every (job, panel) row in one reduction per rule.  A lone
integral is its one-job case, ``f`` as a 1-row basis with no weight, so
each of its rounds is one call of ``f``.  Each loop keeps its own heap, so
a job gets the panels, pops and totals of its lone run on
``basis(x)[component] * weight(x)``, bit for bit, whenever the bases and
the weights are batch independent as above.  A job that would raise alone
(a non-finite panel it consumes, NonConvergence) makes the call raise that
same error, the first such job in list order winning, as in a loop of lone
calls.

The seeded streams (``rng_stream``) are the package's own port of numpy's
Generator(PCG64(SeedSequence(seed, spawn_key=key))), in Python ints: the
SeedSequence hash, PCG64's 128-bit LCG with its XSL-RR output and 32-bit
half buffer, and the two Generator methods the package calls, ``uniform``
and ``integers``.  numpy's RNG policy (NEP 19) fixes the PCG64 and
SeedSequence streams across releases but not Generator's methods, so the
drawn values are the package's whatever numpy is installed, and no process
loads numpy.random.
"""

from __future__ import annotations

import heapq
import math
import operator
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
# Gauss weights of the 7 odd-indexed Kronrod nodes, _XK[1::2].
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])

_INITIAL_PANELS = 4
# Endpoint chains (integrate_1d_with_error).  A chain that refines a smooth
# feature mostly stops within 3 steps (147 of 151 on the benchmark's
# verify_suite and search_pointwise inputs), so speculation starts at step 4.
# The cap bounds the batch temporaries of f, such as the (m, 81) kernel of a
# 3-particle GaussianProduct; a larger one saved no time.
_CHAIN_START = 4
_CHAIN_CAP = 16


def _nodes(lo, hi):
    """Kronrod nodes, (n, 15), of the panels [lo_i, hi_i], and their half-widths as floats."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[:, None] + half[:, None] * _XK, half.tolist()


def _sums(fx, half):
    """(Kronrod estimate, |K - G| error) of each row of the (n, 15) value block, or None where it is not finite.

    Each rule sums every row in one ordered reduction (module docstring).  A
    non-finite row is returned as None, so a speculated panel raises only
    when the loop consumes it; its values are zeroed first, so no inf - inf
    warns.
    """
    finite = np.logical_and.reduce(np.isfinite(fx), axis=1)
    ok = finite.tolist()
    if False in ok:
        fx = np.where(finite[:, None], fx, 0.0)
    kronrod = np.add.reduce(fx * _WK, axis=1).tolist()
    gauss = np.add.reduce(fx[:, 1::2] * _WG, axis=1).tolist()
    return [
        (k := h * sk, abs(k - h * sg)) if row_ok else None
        for h, sk, sg, row_ok in zip(half, kronrod, gauss, ok)
    ]


def _values(f, x):
    """``f`` on the (m,) node array ``x``, as an (m,) float array."""
    fx = np.asarray(f(x), dtype=float)
    if fx.shape != x.shape:
        raise ValueError("integrand must map an (m,) node array to (m,) values")
    return fx


def _panels(f, lo, hi):
    """_sums of each panel [lo_i, hi_i], every panel's nodes going to ``f`` in one call."""
    x, half = _nodes(lo, hi)
    return _sums(_values(f, x.ravel()).reshape(x.shape), half)


def _finite(panels, lo, hi):
    """``panels``, or ValueError if f was not finite on one of them (inside [lo, hi])."""
    if None in panels:
        raise ValueError(f"integrand not finite inside [{lo}, {hi}]")
    return panels


def _chain(a, b, left, n):
    """Panel ends (lo, hi) of the split of [a, b] and of n - 1 further splits toward one end.

    The chain heads for ``a`` if ``left``, else for ``b``.  Panels 2j and
    2j + 1 are the halves of split j.  Each midpoint is the ``0.5 * (a + b)``
    that the loop forms when it pops that panel.
    """
    lo, hi = [], []
    for _ in range(n):
        mid = 0.5 * (a + b)
        lo += (a, mid)
        hi += (mid, b)
        a, b = (a, mid) if left else (mid, b)
    return tuple(lo), tuple(hi)


def _nan_error(total, total_err) -> NonConvergence:
    """The NonConvergence of a run whose error estimate is NaN: its panel sums overflow."""
    return NonConvergence(
        "quadrature error estimate is NaN: the panel sums overflow", estimate=total, error=total_err
    )


def _adaptive(domain: Interval, spec: QuadratureSpec):
    """The adaptive loop of one integral over the non-empty ``domain``, as a generator.

    It yields the ends (lo, hi) of the panels it needs next, as two tuples,
    and is sent their _sums values; it returns (value, error) as floats,
    or raises ValueError (f not finite on a panel it consumes) or
    NonConvergence.
    """
    # the edges of np.linspace(lo, hi, _INITIAL_PANELS + 1), bit for bit:
    # i * spacing + lo, or (i / _INITIAL_PANELS) * delta + lo where the
    # spacing underflows to 0 (subnormal widths), and hi itself
    start, stop = float(domain.lo), float(domain.hi)
    delta = stop - start
    spacing = delta / _INITIAL_PANELS
    if spacing == 0:
        edges = [i / _INITIAL_PANELS * delta + start for i in range(_INITIAL_PANELS)]
    else:
        edges = [i * spacing + start for i in range(_INITIAL_PANELS)]
    edges.append(stop)
    first = _finite((yield tuple(edges[:-1]), tuple(edges[1:])), domain.lo, domain.hi)
    abs_tol, rel_tol = spec.abs_tol, spec.rel_tol
    total, total_err = -0.0, -0.0  # x + -0.0 is x, bit for bit
    for k, e in first:
        total += k
        total_err += e
    if total_err <= abs_tol or total_err <= rel_tol * abs(total):
        return total, total_err
    if total_err != total_err:
        raise _nan_error(total, total_err)
    heap = [(-e, i, a, b, k, e) for i, (a, b, (k, e)) in enumerate(zip(edges[:-1], edges[1:], first))]
    heapq.heapify(heap)
    heappush, heappushpop = heapq.heappush, heapq.heappushpop
    _, _, a, b, k, e = heapq.heappop(heap)

    # The panel to split next is carried out of the heap (module docstring).
    # A NaN error, from sums that overflow, stays in total_err, so the run
    # can never converge; it raises at once, before a NaN heap key, which has
    # no order, could make its splits depend on the heap's layout.
    # Endpoint chains: a popped panel that is a half of the last split
    # continues the chain toward that half's outer end (or starts one, when
    # the step before went the other way).  From step _CHAIN_START on, a step
    # whose split is not yet known splits the popped panel and the next
    # panels toward that end in one request, as many splits as the chain has
    # steps so far (at most _CHAIN_CAP), so each batch doubles the chain it
    # covers.  ``ahead`` keeps their halves until they are popped.  Pops,
    # heap keys and totals are those of one split at a time.
    ahead, last_a, last_mid, last_b, toward, run = {}, None, None, None, None, 0
    for counter in range(_INITIAL_PANELS, _INITIAL_PANELS + 2 * spec.max_subdivisions, 2):
        mid = 0.5 * (a + b)
        step = "lo" if a == last_a and b == last_mid else "hi" if a == last_mid and b == last_b else None
        run = 0 if step is None else run + 1 if step == toward else 1
        last_a, last_mid, last_b, toward = a, mid, b, step
        halves = ahead.pop((a, b), None)
        if halves is None:
            n = min(run, _CHAIN_CAP) if run >= _CHAIN_START else 1
            lo, hi = _chain(a, b, step == "lo", n)
            values = yield lo, hi
            for j in range(2, len(values), 2):
                ahead[lo[j], hi[j + 1]] = values[j : j + 2]
            halves = values[:2]
        if None in halves:
            _finite(halves, a, b)  # raises
        (k1, e1), (k2, e2) = halves
        total = total - k + k1 + k2
        total_err = total_err - e + e1 + e2
        if total_err <= abs_tol or total_err <= rel_tol * abs(total):
            return total, total_err
        if total_err != total_err:
            raise _nan_error(total, total_err)
        heappush(heap, (-e1, counter, a, mid, k1, e1))
        _, _, a, b, k, e = heappushpop(heap, (-e2, counter + 1, mid, b, k2, e2))

    raise NonConvergence(
        f"quadrature did not converge after {spec.max_subdivisions} subdivisions "
        f"(err {total_err:.3e})",
        estimate=total,
        error=total_err,
    )


def _lockstep(f, jobs, spec: QuadratureSpec) -> list:
    """The driver of both forms of integrate_1d_with_error: every job's loop, one round at a time.

    A round groups the live jobs by basis and, within a basis, by request,
    forms the nodes of every request in one _nodes call, evaluates each
    basis once on the contiguous panels of its requests and each weight
    once on the panels of the requests that need it, and sums every
    (job, panel) row with one _sums call.
    """
    out = [(0.0, 0.0)] * len(jobs)
    bases, weights = {}, {}  # callable -> its slot
    live = []  # [job index, loop, basis slot, component, weight slot or None, request]
    for i, (component, weight, domain, *own) in enumerate(jobs):
        domain = Interval.of(domain)
        if domain.lo < domain.hi:
            loop = _adaptive(domain, spec)
            basis = bases.setdefault(own[0] if own else f, len(bases))
            slot = None if weight is None else weights.setdefault(weight, len(weights))
            live.append([i, loop, basis, component, slot, next(loop)])
    bases, weights = list(bases), list(weights)
    width = len(_XK)
    failed = None  # (job index, error) of the first failing job
    while live:
        groups = {}  # basis slot -> request -> its jobs
        for job in live:
            groups.setdefault(job[2], {}).setdefault(job[5], []).append(job)
        # a block per request: its basis slot, its nodes in the round and in
        # its basis's values, and its jobs; a span per basis: its nodes
        blocks, spans, wanted, lo, hi = [], {}, {}, [], []
        for slot, requests in groups.items():
            first = len(lo)
            for request, members in requests.items():
                a = len(lo)
                lo += request[0]
                hi += request[1]
                nodes = slice(a * width, len(lo) * width)
                local = slice(nodes.start - first * width, nodes.stop - first * width)
                for job in members:
                    if job[4] is not None:
                        wanted.setdefault(job[4], {})[len(blocks)] = nodes
                blocks.append((slot, nodes, local, members))
            spans[slot] = slice(first * width, len(lo) * width)
        x, half = _nodes(lo, hi)
        x = x.ravel()
        values = {}  # basis slot -> its (k, m) values on the nodes of its span
        for slot, nodes in spans.items():
            fx = np.asarray(bases[slot](x[nodes]), dtype=float)
            if fx.ndim != 2 or fx.shape[1] != nodes.stop - nodes.start:
                raise ValueError("basis must map an (m,) node array to (k, m) values")
            values[slot] = fx
        weighted = {}  # (weight slot, block index) -> the weight on the block's nodes
        for slot, needed in wanted.items():
            if len(needed) == 1:  # the block's own nodes, a view
                ((index, nodes),) = needed.items()
                weighted[slot, index] = weights[slot](x[nodes])
                continue
            parts = [x[nodes] for nodes in needed.values()]
            fw = weights[slot](np.concatenate(parts))
            start = 0
            for index, part in zip(needed, parts):
                weighted[slot, index] = fw[start : start + part.size]
                start += part.size
        rows, row_half, order = [], [], []
        for index, (slot, nodes, local, members) in enumerate(blocks):
            fx = values[slot][:, local]
            for job in members:
                row = fx[job[3]]
                if job[4] is not None:
                    row = row * weighted[job[4], index]
                rows.append(row)
            row_half += half[nodes.start // width : nodes.stop // width] * len(members)
            order += members
        sums = _sums(np.concatenate(rows).reshape(-1, width), row_half)
        live, start = [], 0
        for job in order:
            stop = start + len(job[5][0])
            try:
                job[5] = job[1].send(sums[start:stop])
                live.append(job)
            except StopIteration as done:
                out[job[0]] = done.value
            except (ValueError, NonConvergence) as err:
                if failed is None or job[0] < failed[0]:
                    failed = (job[0], err)
            start = stop
        if failed is not None:  # a later job's result would not be returned
            live = [job for job in live if job[0] < failed[0]]
    if failed is not None:
        raise failed[1]
    return out


def integrate_1d_with_error(f, domain, spec: QuadratureSpec | None = None):
    """Adaptively integrate ``f`` over the finite ``domain``; returns (value, error) as floats.

    ``f`` maps an ``(m,)`` node array to ``(m,)`` values, and ``domain`` is
    an Interval or a (lo, hi) tuple.  Raises NonConvergence when the
    subdivision budget is exhausted before the tolerance is met.  This is
    the one-job case of the many-job form: ``f`` as a 1-row basis, and no
    weight.

    Many-job form: ``domain`` a list of jobs (component, weight, domain) or
    (component, weight, domain, basis), and ``f`` the basis of the jobs that
    name none (None if every job names one); a basis maps an ``(m,)`` node
    array to ``(k, m)`` values.  Job j integrates
    ``basis(x)[component] * weight(x)`` over its domain, or
    ``basis(x)[component]`` itself where its weight is None (a unit weight,
    with no multiply).  Returns one (value, error) per job, each with the
    bits of that job's lone call, or raises the error of the first job (in
    list order) whose lone call raises (module docstring).
    """
    spec = spec or QuadratureSpec()
    if isinstance(domain, list):
        return _lockstep(f, domain, spec)
    return _lockstep(lambda x: _values(f, x)[None], [(0, None, domain)], spec)[0]


def integrate_1d(f, domain, spec: QuadratureSpec | None = None):
    """Adaptive 1D integral of ``f`` over ``domain`` (see module docstring)."""
    value, _ = integrate_1d_with_error(f, domain, spec)
    return value


def find_root(f, bracket, tol: float = 1e-12) -> float:
    """Root of ``f`` inside ``bracket`` with |f(root)| <= tol.

    Bisection down to two adjacent doubles: the midpoint 0.5 lo + 0.5 hi
    (which cannot overflow) replaces the end whose f has its sign, until it
    equals an end.  Returns an end where f is 0, a midpoint where f is 0, or
    else the end of the last bracket with the smaller |f|.  Raises NoBracket
    when f(lo) and f(hi) do not differ in sign, and NonConvergence when f is
    NaN at a midpoint or |f(root)| > tol (a jump, not a root).
    """
    box = Interval.of(bracket)
    lo, hi = float(box.lo), float(box.hi)
    flo, fhi = float(f(lo)), float(f(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if not (flo < 0.0 < fhi or fhi < 0.0 < flo):
        raise NoBracket(f"f({lo}) = {flo:.3e} and f({hi}) = {fhi:.3e} do not differ in sign")
    while (mid := 0.5 * lo + 0.5 * hi) != lo and mid != hi:
        fmid = float(f(mid))
        if fmid == 0.0:
            return mid
        if math.isnan(fmid):
            raise NonConvergence(f"f({mid}) is NaN inside the bracket [{box.lo}, {box.hi}]")
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    root, froot = (lo, flo) if abs(flo) <= abs(fhi) else (hi, fhi)
    if not abs(froot) <= tol:
        raise NonConvergence(f"|f({root})| = {abs(froot):.3e} > tol = {tol:.3e} at a sign change")
    return root


# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier (pcg64.h)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_DOUBLE = 2.0**-53  # a 53-bit int times this is a double in [0, 1)


def _words(n) -> list:
    """The uint32 words of the int ``n >= 0``, least significant first, [0] for 0."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _seed(seed, key) -> tuple[int, int]:
    """PCG64's (initial state, sequence) of SeedSequence(seed, spawn_key=key), as numpy derives them.

    The entropy words (the seed's, zero-padded to the pool size when a key
    follows, then each key element's) are hashed into a pool of 4 words, and
    the pool into 8 output words: generate_state(4, uint64).
    """
    entropy = _words(seed)
    if key:
        entropy += [0] * (_POOL_SIZE - len(entropy))
        for k in key:
            entropy += _words(k)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, out = _INIT_B, []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _M32
        value = value * const & _M32
        out.append(value ^ value >> 16)
    u64 = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]
    return u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]


class _Stream:
    """numpy's Generator(PCG64(SeedSequence(seed, spawn_key=key))), bit for bit, for the package's draws.

    PCG64 is a 128-bit LCG whose output is XSL-RR of the new state; a 32-bit
    draw takes the low half of a 64-bit one and keeps the high half for the
    next.  ``uniform`` and ``integers`` (on ranges of fewer than 2**32
    values) are those of numpy's Generator.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed, key):
        state, sequence = _seed(seed, key)
        self._inc = inc = (sequence << 1 | 1) & _M128
        self._state = ((inc + state) * _PCG_MULT + inc) & _M128  # two steps from 0, the seed added between
        self._half = None

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            word, self._half = self._half, None
            return word
        word = self._next64()
        self._half = word >> 32
        return word & _M32

    def uniform(self, low=0.0, high=1.0, size=None):
        """low + (high - low) u, u a 53-bit double in [0, 1): a float, or a float64 array of ``size`` draws."""
        low = float(low)
        span = float(high) - low
        if size is None:
            return low + span * ((self._next64() >> 11) * _DOUBLE)
        return np.array([low + span * ((self._next64() >> 11) * _DOUBLE) for _ in range(size)], dtype=float)

    def integers(self, low, high=None) -> int:
        """An int in [low, high), or in [0, low) without ``high``, by Lemire's rejection on 32-bit draws."""
        if high is None:
            low, high = 0, low
        rng = high - 1 - low
        if not 0 <= rng < _M32:
            raise ValueError(f"integers takes ranges of 1 to 2**32 - 1 values, not [{low}, {high})")
        if rng == 0:
            return low
        excl = rng + 1
        m = self._next32() * excl
        if m & _M32 < excl:
            threshold = (2**32 - excl) % excl
            while m & _M32 < threshold:
                m = self._next32() * excl
        return low + (m >> 32)


def rng_stream(seed: int, *key: int) -> _Stream:
    """Deterministic, independent random stream for (seed, key...).

    numpy's Generator(PCG64(SeedSequence(seed, spawn_key=key))) bit for bit
    (module docstring), for its ``uniform`` and ``integers``.
    """
    return _Stream(seed, key)
