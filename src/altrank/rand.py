"""Counter-based deterministic randomness.

Every draw is a pure function of (seed, counter), so partitioning a stream
across workers cannot change the values at any index.  Uniformity over a
range is exact: each counter owns a block of 2^16 raw 64-bit words and
rejection walks within the block, which touches no other counter.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import Element, FieldCtx

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

DEFAULT_RATIONAL_BOX = 1000


def mix64(x: int) -> int:
    """The splitmix64 finalizer."""
    z = x & MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *parts) -> int:
    """Fold integer or string labels into a child seed."""
    s = master & MASK64
    for part in parts:
        if isinstance(part, str):
            for byte in part.encode("utf-8"):
                s = mix64((s + GOLDEN * (byte + 1)) & MASK64)
        else:
            s = mix64((s + GOLDEN * ((part & MASK64) + 1)) & MASK64)
    return s


def raw_word(seed: int, counter: int, attempt: int) -> int:
    return mix64((seed + GOLDEN * (((counter << 16) | attempt) + 1)) & MASK64)


def uniform_below(seed: int, counter: int, bound: int) -> int:
    """Exactly uniform value in [0, bound) for this (seed, counter)."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    limit = (1 << 64) - ((1 << 64) % bound)
    for attempt in range(1 << 16):
        w = raw_word(seed, counter, attempt)
        if w < limit:
            return w % bound
    raise RuntimeError("rejection sampling failed to terminate")


class CounterStream:
    """Sequential convenience wrapper advancing its own counter."""

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self.counter = 0

    def below(self, bound: int) -> int:
        v = uniform_below(self.seed, self.counter, bound)
        self.counter += 1
        return v

    def element(self, ctx: FieldCtx, box: int = DEFAULT_RATIONAL_BOX) -> Element:
        """Uniform field element: residue, or integer in [-box, box] over Q."""
        if ctx.kind == "prime":
            return self.below(ctx.p)
        return Fraction(self.below(2 * box + 1) - box)

    def vector(self, ctx: FieldCtx, n: int, box: int = DEFAULT_RATIONAL_BOX):
        """n elements from consecutive counters, as n calls of ``element``."""
        lo, seed = self.counter, self.seed
        self.counter += n
        if ctx.kind == "prime":
            return tuple(uniform_below(seed, c, ctx.p) for c in range(lo, lo + n))
        return tuple(Fraction(uniform_below(seed, c, 2 * box + 1) - box) for c in range(lo, lo + n))


def random_matrix(ctx: FieldCtx, nrows: int, ncols: int, stream: CounterStream, box: int = DEFAULT_RATIONAL_BOX):
    from .matrices import Matrix

    return Matrix(ctx, [[stream.element(ctx, box) for _ in range(ncols)] for _ in range(nrows)], ncols)


def random_alternating(ctx: FieldCtx, n: int, stream: CounterStream, box: int = DEFAULT_RATIONAL_BOX):
    from .matrices import alternating_from_upper, upper_pairs

    coords = [stream.element(ctx, box) for _ in upper_pairs(n)]
    return alternating_from_upper(ctx, n, coords)


def random_invertible(ctx: FieldCtx, n: int, stream: CounterStream, box: int = DEFAULT_RATIONAL_BOX):
    """First invertible matrix along the stream."""
    while True:
        m = random_matrix(ctx, n, n, stream, box)
        if m.det() != 0:
            return m
