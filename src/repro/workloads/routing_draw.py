"""The MoE router's routed draw, in the standard library.

:class:`~repro.workloads.moe.ExpertRouter` draws the per-expert token counts
of one layer execution as ``Multinomial(n, p)``, where ``p`` mixes the
uniform split with a ``Dirichlet(2, ..., 2)`` preference vector.  This module
is a bit-exact port of what numpy 2.x's ``Generator`` computes for that draw,
and of nothing else:

* ``SeedSequence(entropy=seed, spawn_key=(layer, microbatch))`` hashed into
  ``PCG64`` (a 128-bit LCG with the XSL-RR output), and its ``next_double``;
* the 256-level ziggurat standard normal (tables in
  :mod:`repro.workloads.ziggurat_tables`), ``standard_gamma`` for shapes
  above 1 by Marsaglia-Tsang, and the Dirichlet normalisation;
* numpy's pairwise ``sum``;
* ``multinomial`` as a chain of binomials: inversion when ``n * min(p, 1 - p)
  <= 30``, BTPE (Kachitvichyanukul & Schmeiser) otherwise.

Every floating-point expression keeps the operand order of numpy's C source,
so the counts -- and every MoE trace built on them -- are the ones numpy
drew.  The repository defines them now, not whichever numpy is installed:
``tests/test_routing_draw.py`` pins golden counts recorded with numpy and
runs a numpy differential when numpy is present.

:func:`routed_counts` is the one entry point.  Its ``lru_cache``, one draw
per layer execution, is one of the package's two process-wide memos (the
other is the timeline's dataflow order): the trace generator and every
timeline of a job share each slow draw, and a draw is a pure function of
canonical scalars, so no call order shows.
"""

from __future__ import annotations

import functools
import math

from repro.workloads.ziggurat_tables import FI, KI, WI

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1

# SeedSequence's hashing constants and pool size.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4

#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: ``next_double``'s scale: 53 random bits onto [0, 1).
_DOUBLE_SCALE = 1.0 / 9007199254740992.0

#: Where the ziggurat's tail starts, and its inverse.
ZIGGURAT_R = 3.6541528853610087963519472518
_ZIGGURAT_INV_R = 0.27366123732975827203338247596


def _words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int (``[0]`` for zero)."""
    words = []
    while True:
        words.append(value & _MASK32)
        value >>= 32
        if not value:
            return words


def seed_state(entropy: int, spawn_key: tuple[int, ...] = ()) -> tuple[int, int, int, int]:
    """``SeedSequence(entropy, spawn_key=spawn_key).generate_state(4, np.uint64)``."""
    run = _words(entropy)
    spawn = [word for key in spawn_key for word in _words(key)]
    if spawn and len(run) < _POOL_SIZE:
        # Padding keeps a spawn key from aliasing longer run entropy.
        run += [0] * (_POOL_SIZE - len(run))
    assembled = run + spawn

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [
        hashmix(assembled[i] if i < len(assembled) else 0) for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(assembled)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(assembled[src]))

    hash_const = _INIT_B
    state = []
    for index in range(2 * _POOL_SIZE):
        value = pool[index % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> _XSHIFT))
    return tuple(state[2 * i] | state[2 * i + 1] << 32 for i in range(_POOL_SIZE))


def _log(value: float) -> float:
    """C's ``log``: ``-inf`` at zero, where :func:`math.log` raises."""
    return math.log(value) if value > 0.0 else -math.inf


class Generator:
    """numpy's ``Generator(PCG64(SeedSequence(entropy, spawn_key)))``, router subset."""

    __slots__ = ("_state", "_inc")

    def __init__(self, entropy: int, spawn_key: tuple[int, ...] = ()):
        seed_hi, seed_lo, inc_hi, inc_lo = seed_state(entropy, spawn_key)
        # pcg64_srandom_r: step from zero, add the seed, step again.
        self._inc = ((((inc_hi << 64) | inc_lo) << 1) | 1) & _MASK128
        state = (self._inc + ((seed_hi << 64) | seed_lo)) & _MASK128
        self._state = (state * _PCG_MULT + self._inc) & _MASK128

    def random_raw(self) -> int:
        """The next 64-bit output: step the LCG, then XSL-RR."""
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        value = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((value >> rot) | (value << (64 - rot))) & _MASK64

    def next_double(self) -> float:
        return (self.random_raw() >> 11) * _DOUBLE_SCALE

    def standard_normal(self) -> float:
        """numpy's ``random_standard_normal`` (256-level ziggurat)."""
        while True:
            r = self.random_raw()
            idx = r & 0xFF
            r >>= 8
            rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
            x = rabs * WI[idx]
            if r & 0x1:
                x = -x
            if rabs < KI[idx]:
                return x  # ~99.3% of draws
            if idx == 0:
                while True:
                    xx = -_ZIGGURAT_INV_R * math.log1p(-self.next_double())
                    yy = -math.log1p(-self.next_double())
                    if yy + yy > xx * xx:
                        return -(ZIGGURAT_R + xx) if (rabs >> 8) & 0x1 else ZIGGURAT_R + xx
            elif (FI[idx - 1] - FI[idx]) * self.next_double() + FI[idx] < math.exp(
                -0.5 * x * x
            ):
                return x

    def standard_gamma(self, shape: float) -> float:
        """numpy's ``random_standard_gamma`` for ``shape > 1`` (Marsaglia-Tsang)."""
        if not shape > 1.0:
            raise ValueError(f"only shapes above 1 are ported, got {shape!r}")
        b = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9 * b)
        while True:
            while True:
                x = self.standard_normal()
                v = 1.0 + c * x
                if v > 0.0:
                    break
            v = v * v * v
            u = self.next_double()
            if u < 1.0 - 0.0331 * (x * x) * (x * x):
                return b * v
            if _log(u) < 0.5 * x * x + b * (1.0 - v + math.log(v)):
                return b * v

    def dirichlet(self, alpha: float, size: int) -> list[float]:
        """``dirichlet([alpha] * size)``: gammas scaled by their running sum's inverse."""
        values = [self.standard_gamma(alpha) for _ in range(size)]
        total = 0.0
        for value in values:
            total = total + value
        scale = 1.0 / total
        return [value * scale for value in values]

    def binomial(self, n: int, p: float) -> int:
        """numpy's ``random_binomial``: inversion or BTPE on ``min(p, 1 - p)``."""
        if n == 0 or p == 0.0:
            return 0
        if p <= 0.5:
            if p * n <= 30.0:
                return self._binomial_inversion(n, p)
            return self._binomial_btpe(n, p)
        q = 1.0 - p
        if q * n <= 30.0:
            return n - self._binomial_inversion(n, q)
        return n - self._binomial_btpe(n, q)

    def multinomial(self, n: int, pvals: list[float]) -> list[int]:
        """numpy's ``random_multinomial``: one conditional binomial per category."""
        counts = [0] * len(pvals)
        remaining_p = 1.0
        left = n
        for index in range(len(pvals) - 1):
            counts[index] = drawn = self.binomial(left, pvals[index] / remaining_p)
            left -= drawn
            if left <= 0:
                break
            remaining_p -= pvals[index]
        if left > 0:
            counts[-1] = left
        return counts

    def _binomial_inversion(self, n: int, p: float) -> int:
        q = 1.0 - p
        qn = math.exp(n * math.log(q))
        np_ = n * p
        limit = np_ + 10.0 * math.sqrt(np_ * q + 1)
        bound = int(n if n < limit else limit)
        x = 0
        px = qn
        u = self.next_double()
        while u > px:
            x += 1
            if x > bound:
                x = 0
                px = qn
                u = self.next_double()
            else:
                u -= px
                px = ((n - x + 1) * p * px) / (x * q)
        return x

    def _binomial_btpe(self, n: int, p: float) -> int:
        """BTPE for ``p <= 0.5``; the C source's ``goto`` steps are named inline."""
        next_double = self.next_double
        r = min(p, 1.0 - p)
        q = 1.0 - r
        fm = n * r + r
        m = math.floor(fm)
        p1 = math.floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
        xm = m + 0.5
        xl = xm - p1
        xr = xm + p1
        c = 0.134 + 20.5 / (15.3 + m)
        a = (fm - xl) / (fm - xl * r)
        laml = a * (1.0 + a / 2.0)
        a = (xr - fm) / (xr * q)
        lamr = a * (1.0 + a / 2.0)
        p2 = p1 * (1.0 + 2.0 * c)
        p3 = p2 + c / laml
        p4 = p3 + c / lamr
        nrq = n * r * q
        while True:  # Step 10
            u = next_double() * p4
            v = next_double()
            if u <= p1:  # triangle: accept outright
                return math.floor(xm - p1 * v + u)
            if u <= p2:  # Step 20: parallelograms
                x = xl + (u - p1) / c
                v = v * c + 1.0 - abs(m - x + 0.5) / p1
                if v > 1.0:
                    continue
                y = math.floor(x)
            elif u <= p3:  # Step 30: left exponential tail
                if v == 0.0:
                    continue
                y = math.floor(xl + math.log(v) / laml)
                if y < 0:
                    continue
                v = v * (u - p2) * laml
            else:  # Step 40: right exponential tail
                if v == 0.0:
                    continue
                y = math.floor(xr - math.log(v) / lamr)
                if y > n:
                    continue
                v = v * (u - p3) * lamr
            k = abs(y - m)  # Step 50
            if not (k > 20 and k < nrq / 2.0 - 1):
                # Explicit evaluation of f(y) / f(m).
                s = r / q
                a = s * (n + 1)
                f = 1.0
                if m < y:
                    for i in range(m + 1, y + 1):
                        f *= a / i - s
                elif m > y:
                    for i in range(y + 1, m + 1):
                        f /= a / i - s
                if v > f:
                    continue
                return y
            # Step 52: squeeze on log f(y) / f(m), then Stirling's bound.
            rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
            t = -k * k / (2 * nrq)
            big_a = _log(v)
            if big_a < t - rho:
                return y
            if big_a > t + rho:
                continue
            x1 = float(y + 1)
            f1 = float(m + 1)
            z = float(n + 1 - m)
            w = float(n - y + 1)
            if big_a > (
                xm * math.log(f1 / x1)
                + (n - m + 0.5) * math.log(z / w)
                + (y - m) * math.log(w * r / (x1 * q))
                + _stirling(f1)
                + _stirling(x1)
                + _stirling(z)
                + _stirling(w)
            ):
                continue
            return y


def _stirling(value: float) -> float:
    """One Stirling-series correction term of BTPE's final acceptance test."""
    square = value * value
    return (
        (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / square) / square) / square) / square)
        / value
        / 166320.0
    )


def pairwise_sum(values: list[float]) -> float:
    """numpy's ``pairwise_sum``: 8 accumulators per block of at most 128."""
    count = len(values)
    if count < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if count <= 128:
        acc = values[:8]
        end = count - count % 8
        for start in range(8, end, 8):
            for lane in range(8):
                acc[lane] += values[start + lane]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for value in values[end:]:
            total += value
        return total
    half = count // 2
    half -= half % 8
    return pairwise_sum(values[:half]) + pairwise_sum(values[half:])


#: Bounded: one entry per distinct layer execution, a tuple of num_experts
#: ints (a routed e2e workload draws 64-192 of them).
@functools.lru_cache(maxsize=1024)
def routed_counts(
    seed: int,
    layer: int,
    microbatch: int,
    num_experts: int,
    total_assignments: int,
    imbalance: float,
) -> tuple[int, ...]:
    """Global per-expert counts of one routed layer execution (memoised).

    The memo stays process-wide: a hit returns exactly what a fresh draw
    would (an int ``imbalance`` draws as its float), it saves most draws of a
    routed job, and on the execution context it would only be threaded
    through ``TraceGenerator``, ``ExpertRouter`` and the timeline's router.

    The stream is a pure function of ``(seed, layer, microbatch)`` through a
    SeedSequence spawn key, so nearby executions draw independent streams and
    any two routers sharing a seed draw the identical one.  The expected load
    per expert is uniform; ``imbalance`` mixes in a Dirichlet preference
    vector, a crude but effective stand-in for a real gating network's skew.
    """
    rng = Generator(seed, (layer, microbatch))
    preference = rng.dirichlet(2.0, num_experts)
    uniform = (1.0 - imbalance) * (1.0 / num_experts)
    probabilities = [uniform + imbalance * weight for weight in preference]
    total = pairwise_sum(probabilities)
    return tuple(rng.multinomial(total_assignments, [p / total for p in probabilities]))
