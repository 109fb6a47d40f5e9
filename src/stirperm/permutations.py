"""Stirling permutations: validation, statistics, enumeration, sampling.

A Stirling permutation of order n is a word of length 2n using each value
1..n exactly twice, in which every entry lying strictly between the two
copies of a value i is larger than i. The three statistics counted here are
positions i = 0..2n of the word a_1...a_2n:

  ascent   i = 0, or a_i < a_(i+1)
  descent  i = 2n, or a_i > a_(i+1)
  plateau  a_i = a_(i+1)

so position 0 always counts as an ascent and position 2n as a descent, and
the three counts always sum to 2n + 1.

Every permutation of order n arises exactly once by inserting the adjacent
pair nn into one of the 2n - 1 gaps of a permutation of order n - 1 (the
pair can never be split later, and removing it recovers the parent and the
gap uniquely). Enumeration and uniform sampling both walk that insertion
tree; enumeration visits parents in their own enumeration order and gaps
left to right, a deterministic order kept stable so recorded outputs stay
valid. It builds the words a block at a time: one ``bytes`` object of 2n
one-byte entries per word, holding the children of at most
``_BLOCK_PARENTS`` consecutive parents, so each order holds one block.

The enumeration oracles (triangle rows by each statistic, plateau moments,
adjacency indicators) read one census per order, walked once and cached:
the number of words with each (descents, plateau mask), where bit v of the
mask is set when the two copies of v are adjacent. They are adjacent at
most once, so the plateau count is the mask's popcount and the ascent
count is 2n + 1 - descents - plateaux. The census compares every adjacent
pair of every word, a whole block at a time, as lanes of one integer
(``_word_sums``); it takes nothing from the insertion tree but the words.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from typing import Iterator, NamedTuple, Sequence

from .polynomial import double_factorial
from .rng import SplitMix64

#: Orders above this are refused by full enumeration; Q_9 already has
#: 34,459,425 elements and each further order multiplies by 2n - 1.
MAX_ENUMERATION_ORDER = 9

STAT_LABELS = ("descents", "plateaux", "ascents")

#: Parents whose children ``_word_blocks`` builds and yields as one block.
_BLOCK_PARENTS = 64

# low and high byte of the 16-bit one-hot lane 2^(v-1) of an entry v <= 9
_ONE_HOT_LOW = bytes((1 << v - 1) & 255 if 0 < v <= 8 else 0 for v in range(256))
_ONE_HOT_HIGH = bytes(v == 9 for v in range(256))

# an entry 0..9 as the byte of its digit, for ``format_word``
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


class InvalidPermutation(ValueError):
    """Rejected word; ``reason`` is 'length', 'multiset' or 'nesting'.

    For nesting rejections ``value`` is the offending smaller entry found
    strictly between the two copies of some larger value (the message names
    both).
    """

    def __init__(self, reason: str, message: str, value: int | None = None):
        super().__init__(message)
        self.reason = reason
        self.value = value


class ResourceLimitExceeded(RuntimeError):
    """Request exceeds a documented size cap (CLI exit code 3)."""


class StatCounts(NamedTuple):
    ascents: int
    descents: int
    plateaux: int

    @property
    def total(self) -> int:
        return self.ascents + self.descents + self.plateaux


class StirlingPermutation(NamedTuple):
    """A validated word; construct through ``from_word``, which checks the
    invariants. The plain constructor does not check them."""

    order: int
    word: tuple[int, ...]

    @classmethod
    def from_word(cls, order: int, word: Sequence[int]) -> "StirlingPermutation":
        validate_word(order, word)
        return cls(order, tuple(word))


def validate_word(order: int, word: Sequence[int]) -> None:
    """Raise InvalidPermutation naming the first violated condition."""
    if order < 1:
        raise InvalidPermutation("length", f"order must be >= 1, got {order}")
    if len(word) != 2 * order:
        raise InvalidPermutation(
            "length",
            f"word has length {len(word)}, expected {2 * order} for order {order}",
        )
    counts = Counter(word)
    expected = set(range(1, order + 1))
    if set(counts) != expected or any(c != 2 for c in counts.values()):
        raise InvalidPermutation(
            "multiset",
            f"word is not a permutation of the multiset {{1,1,...,{order},{order}}}",
        )
    first: dict[int, int] = {}
    second: dict[int, int] = {}
    for pos, v in enumerate(word):
        if v in first:
            second[v] = pos
        else:
            first[v] = pos
    for v in range(1, order + 1):
        lo, hi = first[v], second[v]
        for pos in range(lo + 1, hi):
            if word[pos] < v:
                raise InvalidPermutation(
                    "nesting",
                    f"entry {word[pos]} lies between the two copies of {v}",
                    value=word[pos],
                )


def word_statistics(word: Sequence[int]) -> StatCounts:
    """Ascent/descent/plateau counts with the boundary conventions above."""
    ascents = 1
    descents = 1
    plateaux = 0
    for j in range(len(word) - 1):
        a, b = word[j], word[j + 1]
        if a < b:
            ascents += 1
        elif a > b:
            descents += 1
        else:
            plateaux += 1
    return StatCounts(ascents, descents, plateaux)


def enumerate_words(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every order-n word exactly once, as plain tuples.

    Order: parents in their own enumeration order, insertion gaps left to
    right. The words are decoded from ``_word_blocks``, so at most one block
    per order is held at a time.
    """
    for block in _word_blocks(n):
        yield from zip(*[iter(block)] * (2 * n))


def _word_blocks(n: int) -> Iterator[bytes]:
    """The order-n words in enumeration order, as blocks of 2n one-byte
    entries per word; each block holds the children of at most
    ``_BLOCK_PARENTS`` consecutive parents."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n > MAX_ENUMERATION_ORDER:
        raise ResourceLimitExceeded(
            f"enumeration of order {n} refused: the set has "
            f"{double_factorial(n)} elements (cap is order {MAX_ENUMERATION_ORDER})"
        )
    blocks: Iterator[bytes] = iter((b"\x01\x01",))
    for m in range(2, n + 1):
        blocks = _insert_pairs(blocks, m)
    return blocks


def _insert_pairs(parent_blocks: Iterator[bytes], m: int) -> Iterator[bytes]:
    # child word p*(2m-1) + g of a block is parent p with mm at gap g: one
    # strided slice assignment per (gap, parent entry) and two for the pair
    width, size = 2 * m - 2, 2 * m
    stride = (2 * m - 1) * size
    for parents in parent_blocks:
        for start in range(0, len(parents), _BLOCK_PARENTS * width):
            chunk = parents[start:start + _BLOCK_PARENTS * width]
            columns = [chunk[b::width] for b in range(width)]
            pair = bytes((m,)) * (len(chunk) // width)
            out = bytearray(len(pair) * stride)
            for g in range(2 * m - 1):
                base = g * size
                for b, column in enumerate(columns):
                    out[base + b + 2 * (b >= g)::stride] = column
                out[base + g::stride] = pair
                out[base + g + 1::stride] = pair
            yield bytes(out)


def sample_word(n: int, rng: SplitMix64) -> tuple[int, ...]:
    """One uniform word of order n drawn from ``rng``.

    Starting from 11 and inserting the pair kk into a uniformly chosen gap
    for k = 2..n is uniform on the whole set: removing the adjacent pair nn
    from any order-n word gives a unique parent and gap, so each order-n
    word has exactly one construction path, chosen with probability
    prod_k 1/(2k - 1) = 1/(2n - 1)!!.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    word = [1, 1]
    for k in range(2, n + 1):
        gap = rng.below(2 * k - 1)
        word[gap:gap] = (k, k)
    return tuple(word)


@functools.cache
def enumeration_census(n: int) -> tuple[tuple[int, int, int], ...]:
    """Sorted (descents, plateau mask, count) triples over all order-n
    words, from one walk of ``_word_blocks`` scanned a block at a time by
    ``_word_sums`` (see the module docstring)."""
    counts: Counter[int] = Counter()
    for block in _word_blocks(n):
        counts.update(_word_sums(block, n))
    return tuple(
        sorted(((s >> 9) + 1, (s & 511) << 1, c) for s, c in counts.items())
    )


def _word_sums(block: bytes, n: int) -> Sequence[int]:
    """For each order-n word of ``block``, in order: 512 times its descents
    among positions 0..2n-2, plus the sum of 2^(v-1) over its plateaux v v.

    Entry j of the block becomes 16-bit lane j of one int x, holding the
    one-hot 2^(v-1) of its value v; y = x >> 16 holds entry j+1 in lane j.
    Lane j of x + (2^15 - 1) - y then has bit 15 set exactly where entry j
    exceeds entry j+1, and lane j of x & y is the one-hot of a plateau. Each
    word's last lane is masked out, as it meets the next word. Multiplying
    by a 1 in each of the word's 2n lanes puts the sum of its lanes in its
    top lane.

    Exactness through order 9 (``MAX_ENUMERATION_ORDER``): a one-hot is at
    most 2^8, so every lane of x + (2^15 - 1) - y lies within 2^15 +- 2^8;
    a lane of the masked sum is at most 512 + 256, and a window of 2n lanes,
    which may straddle two words, sums to at most 2n*512 + 2*511 < 2^15. So
    no borrow or carry crosses a lane.
    """
    size = 2 * n
    lanes = bytearray(2 * len(block))
    lanes[0::2] = block.translate(_ONE_HOT_LOW)
    lanes[1::2] = block.translate(_ONE_HOT_HIGH)
    x = int.from_bytes(lanes, "little")
    y = x >> 16
    below, descent, plateau, word = _lane_constants(size, len(block))
    total = ((((x + below - y) & descent) >> 6) | (x & y & plateau)) * word
    view = memoryview(total.to_bytes(len(lanes) + 2 * size, sys.byteorder)).cast("H")
    if sys.byteorder == "big":  # the bytes came most significant lane first
        view = view[::-1]
    return view[size - 1:len(block):size]


@functools.lru_cache(maxsize=2)  # a full block's length, and one partial block's
def _lane_constants(size: int, length: int) -> tuple[int, int, int, int]:
    """``_word_sums``'s constants for ``length`` entries of words of ``size``
    entries: 2^15 - 1 in every lane, bit 15 and then all 16 bits of every
    lane but each word's last, and a 1 in each of one word's lanes."""
    words = length // size
    return (
        int.from_bytes(b"\xff\x7f" * length, "little"),
        int.from_bytes((b"\x00\x80" * (size - 1) + b"\x00\x00") * words, "little"),
        int.from_bytes((b"\xff\xff" * (size - 1) + b"\x00\x00") * words, "little"),
        int.from_bytes(b"\x01\x00" * size, "little"),
    )


def brute_force_triangle(n: int, stat: str = "descents") -> tuple[int, ...]:
    """Counts of order-n words by statistic value 1..n, by full enumeration.

    This is the independent oracle the recurrence builders are checked
    against; it shares no code with them.
    """
    if stat not in STAT_LABELS:
        raise ValueError(f"stat must be one of {STAT_LABELS}, got {stat!r}")
    counts = [0] * (n + 1)
    pick = STAT_LABELS.index(stat)
    for descents, mask, count in enumeration_census(n):
        plateaux = mask.bit_count()
        counts[(descents, plateaux, 2 * n + 1 - descents - plateaux)[pick]] += count
    return tuple(counts[1:])


def format_word(word: Sequence[int]) -> str:
    """Text form: digits run together while all values fit in one digit,
    comma-separated from order 10 up. Entries are non-negative."""
    if word and max(word) > 9:
        return ",".join(map(str, word))
    return bytes(word).translate(_DIGITS).decode()


def parse_word(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        raise InvalidPermutation("length", "empty permutation text")
    try:
        if "," in text:
            return tuple(int(part) for part in text.split(","))
        return tuple(int(ch) for ch in text)
    except ValueError:
        raise InvalidPermutation(
            "multiset", f"cannot parse permutation text {text!r}"
        ) from None
