import itertools
from collections import Counter

import pytest

from stirperm.permutations import (
    InvalidPermutation,
    ResourceLimitExceeded,
    StirlingPermutation,
    brute_force_triangle,
    enumerate_words,
    enumeration_census,
    format_word,
    parse_word,
    sample_word,
    validate_word,
    word_statistics,
)
from stirperm.polynomial import double_factorial
from stirperm.rng import MASK64, SplitMix64
from stirperm.triangle import triangle_row


def test_validate_accepts_all_of_order_two():
    for text in ("1122", "1221", "2211"):
        q = StirlingPermutation.from_word(2, parse_word(text))
        assert q.word == parse_word(text)


def test_validate_rejects_nesting_violation():
    with pytest.raises(InvalidPermutation) as exc:
        validate_word(2, (1, 2, 1, 2))
    assert exc.value.reason == "nesting"
    assert exc.value.value == 1


def test_validate_rejects_wrong_length_and_multiset():
    with pytest.raises(InvalidPermutation) as exc:
        validate_word(2, (1, 2, 2, 1, 1))
    assert exc.value.reason == "length"
    with pytest.raises(InvalidPermutation) as exc:
        validate_word(2, (1, 1, 1, 2))
    assert exc.value.reason == "multiset"


def test_order_one_is_the_doubled_singleton():
    assert StirlingPermutation.from_word(1, (1, 1)).order == 1
    with pytest.raises(InvalidPermutation):
        validate_word(1, (1, 2))


@pytest.mark.parametrize(
    "word,expected",
    [
        ((1, 1), (1, 1, 1)),
        ((1, 2, 2, 1), (2, 2, 1)),
        ((1, 1, 2, 2), (2, 1, 2)),
        ((2, 2, 1, 1), (1, 2, 2)),
    ],
)
def test_statistics_boundary_conventions(word, expected):
    s = word_statistics(word)
    assert (s.ascents, s.descents, s.plateaux) == expected


def test_enumerate_order_one_and_two():
    assert list(enumerate_words(1)) == [(1, 1)]
    assert sorted(enumerate_words(2)) == [
        (1, 1, 2, 2),
        (1, 2, 2, 1),
        (2, 2, 1, 1),
    ]


def test_enumerate_counts_and_uniqueness():
    for n in range(1, 8):
        words = list(enumerate_words(n))
        assert len(words) == double_factorial(n)
        assert len(set(words)) == len(words)


def test_enumerate_order_three_by_insertion_oracle():
    # independently rebuild order 3 by inserting 33 into each order-2 word
    expected = set()
    for parent in ((1, 1, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1)):
        for gap in range(5):
            expected.add(parent[:gap] + (3, 3) + parent[gap:])
    assert set(enumerate_words(3)) == expected
    assert len(expected) == 15


def test_enumeration_stat_sum_reverse_and_top_adjacency():
    for n in range(1, 8):
        for word in enumerate_words(n):
            s = word_statistics(word)
            assert s.total == 2 * n + 1
            assert s.ascents >= 1 and s.descents >= 1 and s.plateaux >= 1
            r = word_statistics(word[::-1])
            assert (r.ascents, r.descents) == (s.descents, s.ascents)
            assert r.plateaux == s.plateaux
            top = word.index(n)
            assert word[top + 1] == n  # the two largest entries sit adjacent


def test_every_enumerated_word_validates():
    for n in range(1, 6):
        for word in enumerate_words(n):
            validate_word(n, word)


def test_reverse_is_valid_permutation():
    # the entries between the two copies of any value are the same reversed
    word = (1, 2, 2, 3, 3, 1)
    assert word[::-1] == (1, 3, 3, 2, 2, 1)
    validate_word(3, word[::-1])


def test_enumeration_cap_refusal():
    with pytest.raises(ResourceLimitExceeded):
        next(enumerate_words(10))
    with pytest.raises(ValueError):
        next(enumerate_words(0))


def test_enumeration_order_is_stable():
    # parents in enumeration order, gaps left to right; the first order-2
    # parent is 2211 (pair inserted at gap 0 of 11), so the frozen prefix is
    first = list(itertools.islice(enumerate_words(3), 6))
    assert first == [
        (3, 3, 2, 2, 1, 1),
        (2, 3, 3, 2, 1, 1),
        (2, 2, 3, 3, 1, 1),
        (2, 2, 1, 3, 3, 1),
        (2, 2, 1, 1, 3, 3),
        (3, 3, 1, 2, 2, 1),
    ]


def test_brute_force_triangle_small_orders():
    assert brute_force_triangle(2, "descents") == (1, 2)
    assert brute_force_triangle(2, "plateaux") == (1, 2)
    assert brute_force_triangle(3, "descents") == (1, 8, 6)
    assert sum(brute_force_triangle(3, "ascents")) == 15
    with pytest.raises(ValueError):
        brute_force_triangle(3, "peaks")


def test_triangle_rows_equidistributed_across_statistics():
    for n in range(1, 8):
        descents = brute_force_triangle(n, "descents")
        assert descents == brute_force_triangle(n, "plateaux")
        assert descents == brute_force_triangle(n, "ascents")


def _insert_all(n):
    # the recursive enumerator the block enumerator replaced, kept as the
    # reference for its order: parents in order, gaps left to right
    if n == 1:
        yield (1, 1)
        return
    for parent in _insert_all(n - 1):
        for gap in range(2 * n - 1):
            yield parent[:gap] + (n, n) + parent[gap:]


def _adjacency_mask(word):
    mask = 0
    for a, b in zip(word, word[1:]):
        if a == b:
            mask |= 1 << a
    return mask


def test_enumeration_census_matches_a_per_word_scan():
    # reference: the descents of word_statistics, the scan behind
    # sample --stats, and a mask of the adjacent equal pairs
    for n in range(1, 8):
        expected = Counter()
        for word in enumerate_words(n):
            stats = word_statistics(word)
            mask = _adjacency_mask(word)
            assert bin(mask).count("1") == stats.plateaux
            expected[stats.descents, mask] += 1
        census = enumeration_census(n)
        assert census == tuple((d, m, c) for (d, m), c in sorted(expected.items()))
        assert enumeration_census(n) is census
    assert enumeration_census(2) == ((1, 0b110, 1), (2, 0b100, 1), (2, 0b110, 1))


@pytest.mark.parametrize("parents", [1, 2, 5])
def test_small_blocks_keep_the_order_and_the_census(monkeypatch, parents):
    # partial last blocks, and neighbouring words whose boundary lanes the
    # scan must not compare, at every block boundary
    from stirperm import permutations

    monkeypatch.setattr(permutations, "_BLOCK_PARENTS", parents)
    for n in range(1, 7):
        enumeration_census.cache_clear()
        try:
            assert list(enumerate_words(n)) == list(_insert_all(n))
            expected = Counter(
                (word_statistics(w).descents, _adjacency_mask(w)) for w in _insert_all(n)
            )
            assert enumeration_census(n) == tuple(
                (d, m, c) for (d, m), c in sorted(expected.items())
            )
        finally:
            enumeration_census.cache_clear()


def test_block_scan_at_the_top_lane_of_order_nine():
    # value 9 is the one-hot 2^8, the high byte of a lane; order 9 is the
    # widest word the lane bound covers
    from stirperm.permutations import _word_sums

    rng = SplitMix64(2026)
    words = [sample_word(9, rng) for _ in range(300)]
    sums = _word_sums(bytes(v for word in words for v in word), 9)
    assert len(sums) == len(words)
    for word, total in zip(words, sums):
        assert ((total >> 9) + 1, (total & 511) << 1) == (
            word_statistics(word).descents,
            _adjacency_mask(word),
        )


def test_order_eight_oracle_matches_the_recurrence_row():
    # the top order of triangle --oracle
    census = enumeration_census(8)
    assert sum(c for _, _, c in census) == double_factorial(8) == 2_027_025
    for stat in ("descents", "plateaux", "ascents"):
        assert brute_force_triangle(8, stat) == triangle_row(8)


def test_oracle_suites_walk_each_order_once(monkeypatch):
    from stirperm import permutations, verify

    walks = Counter()
    real = permutations._word_blocks

    def counting(n):
        walks[n] += 1
        return real(n)

    monkeypatch.setattr(permutations, "_word_blocks", counting)
    enumeration_census.cache_clear()
    try:
        for suite in ("triangle", "moments", "identities"):
            assert all(r.passed for r in verify.run_suite(suite, quick=True))
    finally:
        enumeration_census.cache_clear()
    assert walks and max(walks.values()) == 1, walks


def test_sampler_is_deterministic_and_valid():
    assert sample_word(1, SplitMix64(999)) == (1, 1)
    golden = (1, 1, 6, 6, 3, 5, 7, 7, 5, 9, 9, 3, 2, 8, 8, 4, 4, 2)
    assert sample_word(9, SplitMix64(12345)) == golden
    assert sample_word(9, SplitMix64(12345)) == sample_word(9, SplitMix64(12345))
    for seed in range(25):
        validate_word(6, sample_word(6, SplitMix64(seed)))


def test_sampler_stream_advances():
    # an order-4 word takes n - 1 = 3 gap draws (none rejected on this seed),
    # and the next word continues the stream from where the first left it
    gamma = 0x9E3779B97F4A7C15  # the documented per-draw state increment
    rng = SplitMix64(7)
    first = sample_word(4, rng)
    after_first = rng.state
    assert after_first == (7 + 3 * gamma) & MASK64
    second = sample_word(4, rng)
    assert rng.state == (7 + 6 * gamma) & MASK64
    assert sample_word(4, SplitMix64(after_first)) == second
    rng2 = SplitMix64(7)
    assert sample_word(4, rng2) == first


def test_splitmix_rejection_bounds():
    rng = SplitMix64(3)
    draws = [rng.below(5) for _ in range(2000)]
    assert set(draws) == {0, 1, 2, 3, 4}
    with pytest.raises(ValueError):
        rng.below(0)


def test_word_text_format_round_trip():
    assert format_word((1, 2, 2, 1)) == "1221"
    assert parse_word("1221") == (1, 2, 2, 1)
    big = tuple([10, 10] + [i for i in range(1, 10) for _ in range(2)])
    assert parse_word(format_word(big)) == big
    assert "," in format_word(big)
    with pytest.raises(InvalidPermutation):
        parse_word("12a1")


def _generator_format_word(word):
    # the generator form ``format_word`` had before its byte table: the reference
    if word and max(word) > 9:
        return ",".join(str(v) for v in word)
    return "".join(str(v) for v in word)


def test_word_text_matches_the_generator_form():
    words = [w for n in range(1, 7) for w in enumerate_words(n)]
    rng = SplitMix64(2024)
    words += [sample_word(9, rng) for _ in range(1000)]
    words += [sample_word(n, rng) for n in (10, 12) for _ in range(200)]
    assert [format_word(w) for w in words] == [_generator_format_word(w) for w in words]
