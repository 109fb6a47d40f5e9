"""Seedable 64-bit pseudo-random generator with a fully specified update rule.

This is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014). The state is one
64-bit word advanced by the odd constant 0x9E3779B97F4A7C15 per draw; the
output is that state pushed through two xor-shift-multiply rounds. It is
used instead of the interpreter's ambient generator so that every sampled
object is bit-reproducible from its integer seed, on any platform, forever.

``below_lanes`` draws the same W bounds for many samples at once, a step at
a time. Sample s of a chunk of up to ``LANES`` samples takes draws s*W + k,
k = 0..W-1, so draw k of every sample in the chunk is one Python int: lane s
(bits 128s..128s+127) holds the state s0 + (s*W + k + 1)*GAMMA, and each
step adds GAMMA to every lane. The lanes are mixed by the same big-integer
operations as one draw, and masking each shifted value and each product to
the lanes' low 64 bits keeps lanes from leaking into each other. Every lane
of a step has the same bound b, so all of them are reduced together
(Barrett, CRYPTO '86): with m = floor(2^64 / b), q = (z*m) >> 64 is z // b or
one less, r = z - q*b is below min(2b, 2^64), and subtracting b where bit 64
of r + 2^64 - b is set leaves z mod b.

A lane with an output at or above the smallest rejection limit sets bit 64
of a flag word. After a chunk the samples before the first flagged one are
kept, that sample is drawn by ``below`` itself, and the next chunk starts
after it, so rejection follows one rule: the values and the final state are
exactly those of the same calls to ``below``, and seed streams do not depend
on which of the two a caller uses.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator, Sequence

MASK64 = (1 << 64) - 1
LANES = 2048  # samples per chunk, one 128-bit lane each

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _pack(values) -> int:
    """One 128-bit lane per value, the first value in the lowest lane."""
    return int.from_bytes(b"".join(v.to_bytes(16, "little") for v in values), "little")


class LaneDraws:
    """One chunk of ``SplitMix64.below_lanes``: iterating it yields, for
    each bound in turn, an int whose lane s holds sample s's draw below that
    bound. ``ones`` has a 1 at the lowest bit of every lane. Once the
    iteration has ended, the first ``kept`` lanes are the draws of scalar
    ``below`` calls and the rest are to be dropped."""

    __slots__ = ("ones", "kept", "_steps")

    def __init__(self, lanes: int, steps: Iterable[int] = ()):
        self.ones = _pack([1] * lanes)
        self.kept = lanes
        self._steps = iter(steps)

    def __iter__(self) -> Iterator[int]:
        return self._steps

    def unpack(self, packed: int) -> list[int]:
        """The low 64-bit word of each of the first ``kept`` lanes."""
        data = (packed & ((1 << 128 * self.kept) - 1)).to_bytes(16 * self.kept, "little")
        return [word for word, in struct.iter_unpack("<Q8x", data)]


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

    def below_lanes(self, bounds: Sequence[int], samples: int) -> Iterator[LaneDraws]:
        """Draw ``[self.below(b) for b in bounds]`` for each of ``samples``
        samples, as chunks of packed lanes (see the module docstring).

        A chunk's ``kept`` and ``self.state`` are final once the chunk has
        been read to its end; taking the next chunk reads what is left of
        it. The chunks keep ``samples`` lanes in all and leave
        ``self.state`` where the scalar calls would. ``bounds`` is read
        again for every chunk, so a ``range`` costs no memory however long
        it is.
        """
        for bound in bounds:
            if not 0 < bound <= 1 << 64:
                raise ValueError(f"bound must be in 1..2^64, got {bound}")
        floor = min((((1 << 64) // b) * b for b in bounds), default=1 << 64)
        while samples > 0:
            lanes = min(samples, LANES)
            chunk = LaneDraws(lanes)
            chunk._steps = self._lane_steps(chunk, bounds, floor)
            yield chunk
            for _ in chunk:  # a chunk left unfinished still moves the state
                pass
            samples -= chunk.kept
            if chunk.kept < lanes:  # the first flagged sample, drawn by below
                yield LaneDraws(1, [self.below(b) for b in bounds])
                samples -= 1

    def _lane_steps(self, chunk: LaneDraws, bounds, floor: int) -> Iterator[int]:
        ones = chunk.ones
        mask, step, high = ones * MASK64, ones * _GAMMA, ones << 64
        over = ones * ((1 << 64) - floor)  # bit 64 of z + over: z >= floor
        start, stride = self.state, len(bounds) * _GAMMA
        state = _pack((start + s * stride) & MASK64 for s in range(chunk.kept))
        flags = 0
        for b in bounds:
            state = (state + step) & mask
            z = ((state ^ ((state >> 30) & mask)) * _MIX1) & mask
            z = ((z ^ ((z >> 27) & mask)) * _MIX2) & mask
            z ^= (z >> 31) & mask
            flags |= z + over
            z -= (((z * ((1 << 64) // b)) >> 64) & mask) * b
            yield z - (((z + high - ones * b) >> 64) & ones) * b
        flagged = (flags >> 64) & ones
        if flagged:
            chunk.kept = ((flagged & -flagged).bit_length() - 1) // 128
        self.state = (start + chunk.kept * stride) & MASK64
