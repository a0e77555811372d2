"""Seeded binomial draws, bit for bit those of numpy's ``default_rng``.

:func:`binomial_pairs` seeds one generator per index ``i`` as
``numpy.random.default_rng([seed, i])`` does (SeedSequence, then PCG64)
and draws ``x = binomial(n, p)`` and then ``binomial(x, p2)`` from it,
consuming the stream exactly as numpy's ``random_binomial``: inversion
when n·r <= 30 with r = min(p, 1 - p), BTPE otherwise. The seeding's
lane constants, which no seed changes, are derived once per count.

References: O'Neill, "PCG: a family of simple fast space-efficient
statistically good algorithms for random number generation",
HMC-CS-2014-0905 (PCG64 is its XSL-RR 128/64 generator); Kachitvichyanukul
and Schmeiser, "Binomial random variate generation", CACM 31(2):216,
1988 (BTPE), with the constants of numpy's ``distributions.c``.
Arithmetic follows that C code as numpy 2.4.6 runs it, operation by
operation: its inversion computes q**n as ``exp(n * log1p(-p))``; ``n``
is an int64, so where a C sum wraps (``n + 1`` at 2**63 - 1, ``-k * k``)
the wrap is reproduced; and where numpy sums in doubles, so does this.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from math import exp, floor, log, log1p, sqrt

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_INV_2_53 = 1.0 / 9007199254740992.0
_MULT_A = 0x931E8875


def _powers(start: int, mult: int, count: int) -> tuple[int, ...]:
    """``start * mult**k`` mod 2**32 for k < count."""
    out = [start]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _M32)
    return tuple(out)


# SeedSequence's entropy hash: its call j xors with _HASH_A[j] and
# multiplies by _HASH_A[j + 1]. The multipliers do not depend on the data.
_HASH_A = _powers(0x43B0D7E5, _MULT_A, 17)
# calls 4..15 mix each pool word into every other: (src, dst, xor, mult)
_CROSS = tuple(
    (src, dst, _HASH_A[j], _HASH_A[j + 1])
    for j, (src, dst) in enumerate(
        ((s, d) for s in range(4) for d in range(4) if s != d), start=4
    )
)
# the output hash of words 0..7 as (pool word, xor, mult, shift): the
# words pair little-endian into uint64 s0..s3, and PCG64 takes
# s0 * 2**64 + s1 as its state seed (words 0..3) and s2:s3 as its stream
# (words 4..7)
_HASH_B = _powers(0x8B51F9DD, 0x58F38DED, 9)
_OUTPUT = tuple(
    (k & 3, _HASH_B[k], _HASH_B[k + 1], (64, 96, 0, 32)[k & 3]) for k in range(8)
)
# a mix step (0xCA01F9DD * x - 0x4973F715 * y) mod 2**32, with the
# subtraction as an addition so that no lane borrows from the next
_MIX_L, _MIX_R = 0xCA01F9DD, (1 << 32) - 0x4973F715


@lru_cache(maxsize=16)
def _lanes(count: int) -> tuple:
    """The words of :func:`_generators` that no seed changes, for ``count`` lanes."""
    rep = sum(1 << 128 * i for i in range(count))
    m32 = _M32 * rep
    first = tuple((_HASH_A[i] * rep, _HASH_A[i + 1]) for i in range(4))
    # pool words that a short entropy leaves empty hold the hash of 0
    zero_fill = tuple((v ^ v >> 16) & m32 for v in (x * m & m32 for x, m in first))
    cross = tuple((s, d, x * rep, m) for s, d, x, m in _CROSS)
    output = tuple((i, x * rep, m, shift) for i, x, m, shift in _OUTPUT)
    index = sum(i << 128 * i for i in range(count))
    return rep, m32, index, zero_fill, first, cross, output


def _generators(seed: int, count: int) -> list[list[int]]:
    """The PCG64 ``[state, inc]`` of ``default_rng([seed, i])`` for each
    i < count.

    The entropies ``[seed, i]`` differ only in their last word, so the
    SeedSequence hashes of all of them run at once: generator i lives in
    the 128-bit lane at bit ``128 * i`` of every pool int. Each step keeps
    its lane values below 2**65 and masks them back to 32 bits. A call
    does only the seed's mixing: :func:`_lanes` makes the rest per count.
    """
    rep, m32, index, zero_fill, first, cross, output = _lanes(count)
    entropy = []
    while True:  # the seed's 32-bit words, little end first; 0 is [0]
        entropy.append((seed & _M32) * rep)
        seed >>= 32
        if not seed:
            break
    entropy.append(index)
    # words past the pool sit after it, for the steps that mix them in
    pool = [*zero_fill, *entropy[4:]]
    for i, (word, (hx, hm)) in enumerate(zip(entropy, first)):
        v = (word ^ hx) * hm & m32
        pool[i] = (v ^ v >> 16) & m32
    steps = cross
    if len(entropy) > 4:  # each word past the pool mixes into every pool word
        h = _powers(_HASH_A[16], _MULT_A, 4 * len(entropy) - 15)
        steps += tuple(
            (src, dst, h[k] * rep, h[k + 1])
            for k, (src, dst) in enumerate(
                (s, d) for s in range(4, len(entropy)) for d in range(4)
            )
        )
    for src, dst, hx, hm in steps:
        v = (pool[src] ^ hx) * hm & m32
        v = (_MIX_L * pool[dst] + _MIX_R * ((v ^ v >> 16) & m32)) & m32
        pool[dst] = (v ^ v >> 16) & m32
    seeds = [0, 0]
    for k, (i, gx, gm, shift) in enumerate(output):
        v = (pool[i] ^ gx) * gm & m32
        seeds[k >> 2] |= ((v ^ v >> 16) & m32) << shift
    gens = []
    for i in range(count):
        inc = (seeds[1] >> 128 * i << 1 | 1) & _M128
        # from state 0: step, add the state seed, step
        state = inc + (seeds[0] >> 128 * i & _M128)
        gens.append([(state * _PCG_MULT + inc) & _M128, inc])
    return gens


def _next_double(gen: list[int]) -> float:
    """One PCG64 step, then its 53-bit uniform double in [0, 1)."""
    state = (gen[0] * _PCG_MULT + gen[1]) & _M128
    gen[0] = state
    rot = state >> 122
    x = ((state >> 64) ^ state) & _M64
    return (((x >> rot | x << (64 - rot)) & _M64) >> 11) * _INV_2_53


def _stirling(x: float) -> float:
    """The Stirling-series correction at ``x`` in BTPE's final test."""
    x2 = x * x
    series = 13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2
    return series / x / 166320.0


def _wrap64(v: int) -> int:
    """``v`` as the C int64 arithmetic that computed it leaves it."""
    return (v + (1 << 63) & _M64) - (1 << 63)


def _inversion(gen: list[int], n: int, p: float) -> int:
    q = 1.0 - p
    qn = exp(n * log1p(-p))
    np_ = n * p
    bound = int(min(n, np_ + 10.0 * sqrt(np_ * q + 1)))
    x = 0
    px = qn
    u = _next_double(gen)
    while u > px:
        x += 1
        if x > bound:
            x = 0
            px = qn
            u = _next_double(gen)
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
    return x


def _btpe(gen: list[int], n: int, r: float) -> int:
    q = 1.0 - r
    fm = n * r + r
    m = floor(fm)
    nrq = n * r * q
    p1 = floor(2.195 * sqrt(nrq) - 4.6 * q) + 0.5
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
    while True:
        u = _next_double(gen) * p4
        v = _next_double(gen)
        if u <= p1:  # triangular region: accept at once
            return floor(xm - p1 * v + u)
        if u <= p2:  # parallelograms
            x = xl + (u - p1) / c
            v = v * c + 1.0 - abs(m - x + 0.5) / p1
            if v > 1.0:
                continue
            y = floor(x)
        elif u <= p3:  # left exponential tail
            if v == 0.0:
                continue
            y = floor(xl + log(v) / laml)
            if y < 0:
                continue
            v = v * (u - p2) * laml
        else:  # right exponential tail
            if v == 0.0:
                continue
            y = floor(xr - log(v) / lamr)
            if y > n:
                continue
            v = v * (u - p3) * lamr
        k = abs(y - m)
        if k <= 20 or k >= nrq / 2.0 - 1:
            # explicit evaluation of f(y) / f(m)
            s = r / q
            a = s * _wrap64(n + 1)
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
        # squeeze on log(f(y) / f(m)); log(v) of v <= 0 accepts
        if v <= 0.0:
            return y
        rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.1666666666666) / nrq + 0.5)
        t = _wrap64(-k * k) / (2 * nrq)
        big_a = log(v)
        if big_a < t - rho:
            return y
        if big_a > t + rho:
            continue
        x1 = float(y + 1)
        f1 = float(m + 1)
        # numpy sums these two in doubles, from n rounded to a double
        z = float(n) + 1.0 - m
        w = float(n) - y + 1.0
        if big_a > (
            xm * log(f1 / x1)
            + (n - m + 0.5) * log(z / w)
            + (y - m) * log(w * r / (x1 * q))
            + _stirling(f1)
            + _stirling(z)
            + _stirling(x1)
            + _stirling(w)
        ):
            continue
        return y


def _binomial(gen: list[int], n: int, p: float) -> int:
    if n == 0 or p == 0.0:
        return 0
    if p <= 0.5:
        return _inversion(gen, n, p) if p * n <= 30.0 else _btpe(gen, n, p)
    q = 1.0 - p
    return n - (_inversion(gen, n, q) if q * n <= 30.0 else _btpe(gen, n, q))


def binomial_pairs(
    seed: int, draws: Sequence[tuple[int, float, float]]
) -> list[tuple[int, int]]:
    """For each ``draws[i] = (n, p, p2)``, the pair ``(x, binomial(x, p2))``
    with ``x = binomial(n, p)``, both drawn from the generator of
    ``numpy.random.default_rng([seed, i])``.

    ``seed`` is an int >= 0, each ``n`` an int in [0, 2**63 - 1] and each
    ``p``, ``p2`` a float in [0, 1].
    """
    pairs = []
    for gen, (n, p, p2) in zip(_generators(seed, len(draws)), draws):
        x = _binomial(gen, n, p)
        pairs.append((x, _binomial(gen, x, p2)))
    return pairs
