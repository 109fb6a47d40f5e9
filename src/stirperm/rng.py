"""Seedable 64-bit pseudo-random generator with a fully specified update rule.

This is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014). The state is one
64-bit word advanced by the odd constant 0x9E3779B97F4A7C15 per draw; the
output is that state pushed through two xor-shift-multiply rounds. It is
used instead of the interpreter's ambient generator so that every sampled
object is bit-reproducible from its integer seed, on any platform, forever.

Output k of a seed depends on nothing but seed + k*GAMMA, so scalar draws are
mixed ahead of use: a generator keeps a short list of outputs and refills it
by mixing consecutive states as the 128-bit lanes of one int, with the same
``_mix`` as the chain kernel below. Every refill mixes 256 outputs. A fresh
generator that draws one order-9 word mixes 248 it never uses, so it takes
28-38 us where mixing only its 8 took 6-9 us (Python 3.11, a 2-core host);
a generator that draws for long pays nothing for it. ``state`` is the state
after the draws handed out so far, seed + (draws taken)*GAMMA whatever is
buffered, and assigning it drops the buffer.

``below_chain`` runs one chain of W bounds for many samples at once, a step
at a time: a sample's count starts at 1 and gains 1 at each bound b whose
draw ``below(b)`` is at least the count so far. Sample s of a chunk of up to
``LANES`` samples takes draws s*W + k, k = 0..W-1, so draw k of every sample
in the chunk is one Python int: lane s (bits ws..ws+w-1, w bits a lane)
holds the state s0 + (s*W + k + 1)*GAMMA, and each step adds GAMMA to every
lane. The lanes are mixed by ``_mix``, as the refills are, and masking each
shifted value and each product to the lanes' low 64 bits keeps lanes from
leaking into each other.

Every lane of a step has the same bound b, so all of them are compared with
their counts by one direct remainder (Lemire, Kaser & Kurz, "Faster
Remainder by Direct Computation", Softw. Pract. Exp. 49(6), 2019): with
f = 64 + bitlen(b) and m = ceil(2^f / b), z mod b = floor(((m*z) mod 2^f) * b
/ 2^f) for every z < 2^64. Their argument needs only f >= 64 + log2 b:
m*b = 2^f + d with 0 <= d < b, and z = q*b + r give m*z = q*2^f + (q*d + r*m)
and (q*d + r*m)*b = r*2^f + d*z, where 0 <= d*z < b*2^64 <= 2^f. So
q*d + r*m < 2^f is (m*z) mod 2^f, and its product with b lies in
[r*2^f, (r + 1)*2^f). Hence z mod b >= c exactly when
((m*z) mod 2^f) * b >= c * 2^f. Scaled by 2^(at - f), with top the bit
length of the largest bound and at = 64 + top, that test is one carry: each
lane keeps room = 2^(at+top) - c*2^at for its count c, and bit at + top of
((m*z) mod 2^f) * (b << (at - f)) + room is the test, which the step moves
to bit at and subtracts from room.

No sum leaves its lane when w >= 129 and w >= 65 + 2*top: b >= 2^(f-65),
so m <= 2^65 and m*z < 2^129; the scaled product is below b*2^at <
2^(at+top), and so is room, so their sum is below 2^(65+2*top). Lanes are
whole bytes: 17 for every bound below 2^32, 25 at 2^64 - k. Room stays
non-negative while every count stays below its bound: a count is at most k
before step k, and ``below_chain`` checks k < b_k <= 2^64 - k before its
first draw; the chain's own bounds b_k = 2k + 1 meet it.

A lane with an output at or above the smallest rejection limit sets bit 64
of a flag word. After a chunk the samples before the first flagged one are
kept, that sample's chain is drawn by ``below`` itself, and the next chunk
starts after it, so rejection follows one rule: the counts and the final
state are exactly those of the same calls to ``below``, and seed streams do
not depend on which of the two a caller uses. A chunk of one sample is
drawn by ``below`` too: one lane pays for the per-step scalar work of the
comparison and gains no width to spread it over.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator, Sequence
from functools import cache, lru_cache

MASK64 = (1 << 64) - 1
LANES = 2048  # samples per chunk, one lane each

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


# outputs per refill, measured: past 128 a refill costs no less per output
# (123 ns at 128 and 256, 117 ns at 1024)
_REFILL = 256


def _mix(z: int, mask: int) -> int:
    """SplitMix64's output function on every lane of ``z`` at once; ``mask``
    is 2^64 - 1 in each lane, which keeps lanes from leaking into each other."""
    z = ((z ^ ((z >> 30) & mask)) * _MIX1) & mask
    z = ((z ^ ((z >> 27) & mask)) * _MIX2) & mask
    return z ^ ((z >> 31) & mask)


@cache
def _refill_table() -> tuple:
    """(ones, mask, state offsets, unpack) of a refill, built on first use.
    Lane s of the offsets is (_REFILL - s)*GAMMA: the last output of a
    refill is mixed in the lowest lane and unpacked first."""
    ones = _pack([1] * _REFILL, 16)
    offsets = _pack([(i * _GAMMA) & MASK64 for i in range(_REFILL, 0, -1)], 16)
    return ones, ones * MASK64, offsets, struct.Struct("<" + "Q8x" * _REFILL).unpack


def _pack(values: Sequence[int], width: int) -> int:
    """One lane of ``width`` bytes per value below 2^64, the first value in
    the lowest lane."""
    return int.from_bytes(
        struct.pack("<" + f"Q{width - 8}x" * len(values), *values), "little"
    )


@lru_cache(maxsize=2)  # a full chunk, and the last one of a count
def _chunk_constants(lanes: int, width: int) -> tuple[int, int, int]:
    """(ones, mask, ramp) of a chunk of ``width``-byte lanes: 1, 2^64 - 1
    and s in each lane s."""
    ones = int.from_bytes(b"\1".ljust(width, b"\0") * lanes, "little")
    return ones, ones * MASK64, _pack(range(lanes), width)


class SplitMix64:
    """Deterministic stream of 64-bit words from a single integer seed.

    ``state`` is the state after the draws handed out so far; outputs mixed
    ahead but not yet drawn do not count, and assigning ``state`` drops
    them."""

    __slots__ = ("_end", "_buffer")

    def __init__(self, seed: int):
        self._buffer: list[int] = []
        self.state = seed

    @property
    def state(self) -> int:
        return (self._end - len(self._buffer) * _GAMMA) & MASK64

    @state.setter
    def state(self, value: int) -> None:
        self._end = value & MASK64  # the state after the last buffered output
        self._buffer.clear()

    def _refill(self) -> None:
        """Mix the next ``_REFILL`` outputs into the buffer, last one first,
        so that ``pop`` hands them out in order."""
        ones, mask, offsets, unpack = _refill_table()
        end = self._end
        outputs = _mix((end * ones + offsets) & mask, mask)
        self._buffer += unpack(outputs.to_bytes(16 * _REFILL, "little"))
        self._end = (end + _REFILL * _GAMMA) & MASK64

    def next_uint64(self) -> int:
        buffer = self._buffer
        if not buffer:
            self._refill()
        return buffer.pop()

    def below(self, bound: int) -> int:
        """Uniform draw from range(bound), modulo bias removed by rejection;
        1 <= bound <= 2^64, since one 64-bit draw must cover the range."""
        if not 0 < bound <= 1 << 64:
            raise ValueError(f"bound must be in 1..2^64, got {bound}")
        buffer = self._buffer
        while True:
            if not buffer:
                self._refill()
            z = buffer.pop()
            # the rejection limit 2^64 - (2^64 mod bound) exceeds 2^64 - bound,
            # so it is computed only for z above that
            if z + bound <= 1 << 64 or z < ((1 << 64) // bound) * bound:
                return z % bound

    def below_chain(self, bounds: Sequence[int], samples: int) -> Iterator[int]:
        """Yield the count of each of ``samples`` samples: 1, plus 1 for
        every bound b whose draw ``self.below(b)`` is at least the count so
        far (see the module docstring). The draws, rejections and final
        state are those of the scalar calls.

        Bound k, counting from 1, must lie in k + 1..2^64 - k, so that every
        count stays below its bound; all are checked before the first draw.
        A chunk moves ``self.state`` past all its kept samples before it
        yields the first of their counts, and the next chunk starts wherever
        the state then is. ``bounds`` is read again for every chunk, so a
        ``range`` costs no memory however long it is.
        """
        for k, bound in enumerate(bounds, start=1):
            if not k < bound <= (1 << 64) - k:
                raise ValueError(f"bound {k} must be in {k + 1}..2^64 - {k}, got {bound}")
        if min(samples, LANES) > 1:  # lanes run: a lone sample reads none of this
            floor = min((((1 << 64) // b) * b for b in bounds), default=1 << 64)
            top = max(bounds, default=1).bit_length()
            at = 64 + top
            width = (max(129, 65 + 2 * top) + 7) // 8  # bytes a lane
            stride = (len(bounds) * _GAMMA) & MASK64
        while samples > 0:
            lanes = min(samples, LANES)
            kept = 0
            if lanes > 1:
                ones, mask, ramp = _chunk_constants(lanes, width)
                step = ones * _GAMMA
                over = ones * ((1 << 64) - floor)  # bit 64 of z + over: z >= floor
                one = ones << at  # a count of 1 in room's scale
                start = self.state
                state = (start * ones + ramp * stride) & mask
                room = (one << top) - one  # 2^(at+top) - count*2^at; every count starts at 1
                flags = bits = 0
                for b in bounds:
                    state = (state + step) & mask
                    z = _mix(state, mask)
                    flags |= z + over
                    if b.bit_length() != bits:
                        bits = b.bit_length()
                        f = 64 + bits
                        below_f, shift = (1 << f) - 1, at - f
                        low = ones * below_f
                    # m = ceil(2^f / b); bit at + top of t: z mod b >= count
                    t = ((z * (below_f // b + 1)) & low) * (b << shift) + room
                    room -= (t >> top) & one
                flagged = (flags >> 64) & ones
                kept = ((flagged & -flagged).bit_length() - 1) // (8 * width) if flagged else lanes
                self.state = (start + kept * stride) & MASK64
                counts = (((one << top) - room) >> at).to_bytes(width * lanes, "little")
                for count, in struct.iter_unpack(f"<Q{width - 8}x", counts[: width * kept]):
                    yield count
                samples -= kept
            if kept < lanes:  # a lone sample, or the first flagged one: drawn by below
                count = 1
                for b in bounds:
                    count += self.below(b) >= count
                yield count
                samples -= 1
