"""Seedable 64-bit pseudo-random generator with a fully specified update rule.

This is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014). The state is one
64-bit word advanced by the odd constant 0x9E3779B97F4A7C15 per draw; the
output is that state pushed through two xor-shift-multiply rounds. It is
used instead of the interpreter's ambient generator so that every sampled
object is bit-reproducible from its integer seed, on any platform, forever.

``below_each`` draws many bounded values at once. Draw j after state s has
state s + j*GAMMA, so the mixing of a whole block of draws needs no loop:
each draw is a 128-bit lane of one Python int, every lane is xor-shifted
and multiplied by the same big-integer operations, and masking each
shifted value and each product to the lanes' low 64 bits keeps lanes from
leaking into each other. The values and the final state are exactly those
of the same calls to ``below``, so seed streams do not depend on which of
the two a caller uses.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator
from functools import cache

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_BLOCK = 2048  # raw outputs per big-integer evaluation


@cache
def _lanes() -> tuple[int, int, int]:
    """Lane j (bits 128j..128j+127) of each: 1, 2^64 - 1 and (j + 1)*GAMMA.
    Built from bytes on first use, so importing the module stays cheap."""
    ones = int.from_bytes((b"\1" + bytes(15)) * _BLOCK, "little")
    steps = b"".join(j.to_bytes(16, "little") for j in range(1, _BLOCK + 1))
    return ones, ones * MASK64, _GAMMA * int.from_bytes(steps, "little")


def _block(state: int) -> list[int]:
    """The next _BLOCK outputs of a generator in ``state``, in draw order."""
    ones, mask, strides = _lanes()
    z = (state * ones + strides) & mask
    z = ((z ^ ((z >> 30) & mask)) * _MIX1) & mask
    z = ((z ^ ((z >> 27) & mask)) * _MIX2) & mask
    z ^= (z >> 31) & mask
    words = memoryview(z.to_bytes(16 * _BLOCK, sys.byteorder)).cast("Q")
    # each lane's low word: first of its pair little-endian, else second,
    # with the lanes themselves in reverse order
    return (words[::2] if sys.byteorder == "little" else words[::-2]).tolist()


class SplitMix64:
    """Deterministic stream of 64-bit words from a single integer seed."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_uint64(self) -> int:
        self.state = (self.state + _GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform draw from range(bound), modulo bias removed by rejection;
        1 <= bound <= 2^64, since one 64-bit draw must cover the range."""
        if not 0 < bound <= 1 << 64:
            raise ValueError(f"bound must be in 1..2^64, got {bound}")
        limit = ((1 << 64) // bound) * bound
        while True:
            z = self.next_uint64()
            if z < limit:
                return z % bound

    def below_each(
        self, bounds: Iterable[int], times: int
    ) -> Iterator[list[int]]:
        """Yield ``times`` lists, each equal to ``[self.below(b) for b in
        bounds]``, leaving ``self.state`` where those calls would have left
        it before each list is yielded.

        Raw outputs are computed a block at a time (see the module
        docstring) and buffered across lists. A list whose outputs include
        one at or above the smallest rejection limit, which happens with
        probability below len(bounds) * max(bounds) / 2^64, is drawn by
        ``below`` itself, so rejection follows one rule.
        """
        bounds = tuple(bounds)
        for bound in bounds:
            if not 0 < bound <= 1 << 64:
                raise ValueError(f"bound must be in 1..2^64, got {bound}")
        floor = min((((1 << 64) // b) * b for b in bounds), default=1 << 64)
        width = len(bounds)
        raw, used, head = [], 0, self.state  # head: the state after raw[-1]
        left = self.state  # where the last list left the generator
        for _ in range(times):
            if self.state != left:  # drawn from elsewhere meanwhile
                raw, used, head = [], 0, self.state
            while len(raw) - used < width:
                raw = raw[used:] + _block(head)
                used, head = 0, (head + _BLOCK * _GAMMA) & MASK64
            chunk = raw[used : used + width]
            if max(chunk, default=0) >= floor:
                draws = [self.below(b) for b in bounds]
                raw, used, head = [], 0, self.state
            else:
                draws = [z % b for z, b in zip(chunk, bounds)]
                used += width
                self.state = (head - (len(raw) - used) * _GAMMA) & MASK64
            left = self.state
            yield draws
