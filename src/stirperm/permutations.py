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
valid.

The enumeration oracles (triangle rows by each statistic, plateau moments,
adjacency indicators) read one census per order, walked once and cached:
the number of words with each (descents, plateau mask), where bit v of the
mask is set when the two copies of v are adjacent. They are adjacent at
most once, so the plateau count is the mask's popcount and the ascent
count is 2n + 1 - descents - plateaux.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from .polynomial import double_factorial
from .rng import SplitMix64

#: Orders above this are refused by full enumeration; Q_9 already has
#: 34,459,425 elements and each further order multiplies by 2n - 1.
MAX_ENUMERATION_ORDER = 9

STAT_LABELS = ("descents", "plateaux", "ascents")


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


@dataclass(frozen=True)
class StatCounts:
    ascents: int
    descents: int
    plateaux: int

    @property
    def total(self) -> int:
        return self.ascents + self.descents + self.plateaux


@dataclass(frozen=True)
class StirlingPermutation:
    """A validated word; construct through ``from_word`` at trust boundaries.

    The plain constructor does not re-check the invariants (enumeration and
    sampling build only valid words and run hot).
    """

    order: int
    word: tuple[int, ...]

    @classmethod
    def from_word(cls, order: int, word: Sequence[int]) -> "StirlingPermutation":
        validate_word(order, word)
        return cls(order, tuple(word))

    def statistics(self) -> StatCounts:
        return word_statistics(self.word)

    def reverse(self) -> "StirlingPermutation":
        # validity is preserved: the set of entries between the two copies
        # of any value is unchanged by reversal
        return StirlingPermutation(self.order, self.word[::-1])

    def __str__(self) -> str:
        return format_word(self.word)


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
    right. Streams; nothing is materialized.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n > MAX_ENUMERATION_ORDER:
        raise ResourceLimitExceeded(
            f"enumeration of order {n} refused: the set has "
            f"{double_factorial(n)} elements (cap is order {MAX_ENUMERATION_ORDER})"
        )
    yield from _insert_all(n)


def _insert_all(n: int) -> Iterator[tuple[int, ...]]:
    if n == 1:
        yield (1, 1)
        return
    pair = (n, n)
    for parent in _insert_all(n - 1):
        for gap in range(2 * n - 1):
            yield parent[:gap] + pair + parent[gap:]


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


def sample_uniform(n: int, seed: int) -> StirlingPermutation:
    """Uniform order-n permutation, bit-reproducible from the seed."""
    return StirlingPermutation(n, sample_word(n, SplitMix64(seed)))


@functools.cache
def enumeration_census(n: int) -> tuple[tuple[int, int, int], ...]:
    """Sorted (descents, plateau mask, count) triples over all order-n
    words, from one walk of ``enumerate_words`` (see the module docstring)."""
    counts: Counter[tuple[int, int]] = Counter()
    for word in enumerate_words(n):
        descents = 1
        mask = 0
        it = iter(word)
        a = next(it)
        for b in it:
            if a > b:
                descents += 1
            elif a == b:
                mask |= 1 << a
            a = b
        counts[descents, mask] += 1
    return tuple((d, mask, c) for (d, mask), c in sorted(counts.items()))


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
    comma-separated from order 10 up."""
    if word and max(word) > 9:
        return ",".join(str(v) for v in word)
    return "".join(str(v) for v in word)


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
