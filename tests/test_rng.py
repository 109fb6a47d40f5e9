from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stirperm import rng as rng_module
from stirperm import verify
from stirperm.distribution import sample_statistic_histogram
from stirperm.rng import LANES, MASK64, SplitMix64

GAMMA = 0x9E3779B97F4A7C15  # the documented per-draw state increment
GAMMA_INV = pow(GAMMA, -1, 1 << 64)
# the first output of this seed is 2^64 - 1, which every odd bound >= 3 rejects
REJECTING_SEED = 0x31628AF67B2131AB


def rejecting_at(draw):
    """The seed whose output ``draw`` (counting from 0) is 2^64 - 1."""
    return (REJECTING_SEED - draw * GAMMA) & MASK64


# with one bound per sample the rejected output is sample 5,000's, in the
# third chunk
LATE_REJECTING_SEED = rejecting_at(5000)
# with three bounds per sample, the middle draw of lane 100 of the second chunk
MID_LANE_REJECTING_SEED = rejecting_at(3 * (LANES + 100) + 1)


# outputs of the published reference implementation, splitmix64.c
PUBLISHED = {
    1234567: [6457827717110365317, 3203168211198807973, 9817491932198370423],
    0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F],
}


def textbook_step(state):
    """One scalar step of splitmix64.c: the next state and its output."""
    state = (state + GAMMA) & MASK64
    z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


class Textbook:
    """SplitMix64 one textbook step per draw, with ``below`` by rejection."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next_uint64(self):
        self.state, z = textbook_step(self.state)
        return z

    def below(self, bound):
        limit = ((1 << 64) // bound) * bound
        while True:
            z = self.next_uint64()
            if z < limit:
                return z % bound


def refill_edges(refills=3):
    """Draw counts at which the buffer runs dry, for the first ``refills``
    refills."""
    return [k * rng_module._REFILL for k in range(1, refills + 1)]


def scalar_count(rng, bounds):
    """One sample of ``below_chain`` drawn by scalar ``below`` calls."""
    count = 1
    for b in bounds:
        count += rng.below(b) >= count
    return count


def scalar_chain(seed, bounds, samples):
    rng = SplitMix64(seed)
    return [scalar_count(rng, bounds) for _ in range(samples)], rng.state


def lane_chain(seed, bounds, samples):
    rng = SplitMix64(seed)
    return list(rng.below_chain(bounds, samples)), rng.state


def chain_bound(k, kind):
    """A bound that ``below_chain`` accepts at position k (from 1): the
    least, the histogram's 2k + 1, one that rejects about half of all
    outputs, and the largest."""
    return (k + 1, 2 * k + 1, 2**63 + 1, 2**64 - k)[kind]


def test_rejection_branch_consumes_a_second_draw():
    assert SplitMix64(REJECTING_SEED).next_uint64() == MASK64
    rng = SplitMix64(REJECTING_SEED)
    assert rng.below(3) == 1
    assert rng.state == (REJECTING_SEED + 2 * GAMMA) & MASK64
    assert lane_chain(REJECTING_SEED, [3], 1) == ([2], rng.state)
    assert sample_statistic_histogram(6, 10, REJECTING_SEED) == (0, 0, 1, 0, 4, 5, 0)


@pytest.mark.parametrize(
    "bounds,samples",
    [
        ([], 4),
        ([7], 0),
        ([7], 3000),  # two chunks, the second one partial
        (range(3, 1000, 2), 9),  # the histogram's bounds at order 500
        (range(3, 4099, 2), 3),  # 2,048 steps
        # the least bounds: every count can reach its bound less one
        ([k + 1 for k in range(1, 2049)], 2),
        ([2**64 - k for k in range(1, 2050)], 2),  # the largest bounds
        # 5,500 draws a sample, every bound far above any count
        ([2**64 - 5500, 2**63 + 1, 10**18, 3 * 2**61 + 7, 6000] * 1100, 2),
        ([], LANES + 1),
        ([7], 1),
        ([7], 6000),  # three chunks
        ([5, 3], LANES - 1),
        ([5, 3], LANES),
        ([5, 3, 7], LANES + 1),
        ([3, 5, 7], 2 * LANES + 4),
        # edge bounds: the least k + 1 and the largest 2^64 - k, powers of two,
        # which reject nothing, and 2^63 + 1, which rejects about half of all
        # outputs
        ([2, 2**64 - 2, 2**62, 5, 2**63 + 1, 2**64 - 6, 8], 40),
        ([3, 2**63 + 1, 10**18], 40),
        # bit lengths 31, 32, 33, 64 and back down: the direct remainder's
        # f changes at each crossing, and the largest bound sets the lanes'
        # width
        ([2**30 + 1, 2**31 - 1, 2**31, 2**31 + 1, 6, 2**32 - 1, 2**32, 2**32 + 1,
          2**33 - 1, 11, 2**33, 2**64 - 12, 2**63 + 1, 2**33 + 1, 2**33 - 1, 17,
          2**32 + 1, 2**32, 2**32 - 1, 2**31 + 1, 2**31 - 1, 23, 2**30 - 1], 40),
    ],
)
@pytest.mark.parametrize(
    "seed", [1, REJECTING_SEED, LATE_REJECTING_SEED, MID_LANE_REJECTING_SEED]
)
def test_kernel_equals_scalar_below_across_blocks(seed, bounds, samples):
    assert lane_chain(seed, bounds, samples) == scalar_chain(seed, bounds, samples)


POWER_EDGES = st.builds(
    lambda j, d: (1 << j) + d, st.integers(0, 64), st.sampled_from([-1, 0, 1])
).filter(lambda b: 1 <= b <= MASK64)
DIVISORS = st.one_of(POWER_EDGES, st.integers(1, MASK64))


def direct_product(z, b):
    """((m*z) mod 2^f) * b and f, as the chain kernel takes them: f = 64 +
    bitlen(b) and m = ceil(2^f / b). The product's bits from f up are z mod
    b (Lemire, Kaser & Kurz 2019)."""
    f = 64 + b.bit_length()
    return ((z * -(-(1 << f) // b)) % (1 << f)) * b, f


def quotient_edges(b, k, c):
    """The 64-bit z at 0, 2^64 - 1, and k*b - 1, k*b and k*b + c, with k
    and c reduced to a quotient of a 64-bit z and a remainder by b."""
    k %= MASK64 // b + 2
    c %= b
    return [z for z in (0, MASK64, k * b - 1, k * b, k * b + c) if 0 <= z <= MASK64]


def test_direct_remainder_at_every_power_of_two_edge():
    for j in range(65):
        for b in ((1 << j) - 1, 1 << j, (1 << j) + 1):
            if 1 <= b <= MASK64:
                for z in quotient_edges(b, MASK64 // b, -1) + [1, b - 1, b]:
                    product, f = direct_product(z, b)
                    assert product >> f == z % b, (z, b)


@settings(max_examples=300, deadline=None)
@given(DIVISORS, st.integers(0, MASK64), st.integers(0, MASK64))
def test_direct_remainder_equals_the_remainder(b, k, c):
    for z in quotient_edges(b, k, c):
        product, f = direct_product(z, b)
        assert product >> f == z % b
        # the kernel's test of a count c: one comparison, no division
        assert (product >= (c % b) << f) == (z % b >= c % b)


@settings(max_examples=200, deadline=None)
@given(DIVISORS.filter(lambda b: b >= 2), st.integers(0, MASK64), st.integers(0, MASK64))
@example(2**32 + 1, MASK64 // (2**32 + 1) - 1, 1)
@example(2**64 - 1, 0, 1)
@example(2**63 + 1, 1, 1)
def test_kernel_compares_chosen_outputs_with_their_count(b, k, c):
    # lane 0 of a two-sample chain [b] compares output 0 of the seed with
    # the count 1, so a remainder misjudged at or near a multiple of b shows
    for z in quotient_edges(b, k, c):
        seed = seed_for_output(z)
        assert lane_chain(seed, [b], 2) == scalar_chain(seed, [b], 2)


def chunk_starts(rng, counts):
    """The indices of the counts before which ``rng.state`` moved: where
    each chunk, or each scalar redraw, begins."""
    starts, last = [], rng.state
    for i, _ in enumerate(counts):
        if rng.state != last:
            starts.append(i)
            last = rng.state
    return starts


def test_rejection_at_the_start_redraws_the_first_sample():
    rng = SplitMix64(REJECTING_SEED)
    counts = rng.below_chain([3, 5, 7], LANES + 1)
    # the first sample alone, by below, then one chunk for the rest
    assert chunk_starts(rng, counts) == [0, 1]
    assert rng.state == scalar_chain(REJECTING_SEED, [3, 5, 7], LANES + 1)[1]


def test_mid_lane_rejection_restarts_after_the_rejected_sample():
    rng = SplitMix64(MID_LANE_REJECTING_SEED)
    counts = rng.below_chain([3, 5, 7], 2 * LANES + 4)
    # a full chunk, then 100 kept lanes of the second, the rejected sample
    # alone, and the remaining 1,951 samples in the next chunk
    assert chunk_starts(rng, counts) == [0, LANES, LANES + 100, LANES + 101]
    assert rng.state == scalar_chain(MID_LANE_REJECTING_SEED, [3, 5, 7], 2 * LANES + 4)[1]


def test_late_rejection_lands_in_the_third_chunk():
    rng = SplitMix64(LATE_REJECTING_SEED)
    assert chunk_starts(rng, rng.below_chain([7], 6000)) == [0, LANES, 2 * LANES, 5000, 5001]


def test_kernel_follows_draws_made_between_chunks():
    rng, reference = SplitMix64(42), SplitMix64(42)
    bounds = range(3, 30, 2)
    for i, count in enumerate(rng.below_chain(bounds, 2 * LANES + 5), start=1):
        assert count == scalar_count(reference, bounds)
        if i % LANES == 0 or i == 2 * LANES + 5:  # the last count of a chunk
            assert rng.state == reference.state
            assert rng.below(11) == reference.below(11)
    assert rng.state == reference.state


def test_lone_sample_is_drawn_by_below_and_two_share_a_chunk():
    bounds = [3, 5, 7]
    for seed in (42, REJECTING_SEED, rejecting_at(2)):
        rng = SplitMix64(seed)  # 42, then a rejected first or third draw
        counts = list(rng.below_chain(bounds, 1))
        assert (counts, rng.state) == scalar_chain(seed, bounds, 1)
        assert rng._buffer  # scalar draws leave the rest of a refill buffered
    rng = SplitMix64(42)
    assert chunk_starts(rng, rng.below_chain(bounds, 2)) == [0]
    assert rng._buffer == [] and rng.state == scalar_chain(42, bounds, 2)[1]


def test_unfinished_chunk_still_moves_the_state():
    # a chunk moves the state past all its samples before its first count
    rng = SplitMix64(9)
    chain = rng.below_chain([3, 5], 3)
    expected, state = scalar_chain(9, [3, 5], 3)
    assert next(chain) == expected[0]
    assert rng.state == state
    assert list(chain) == expected[1:]


def refused_before_drawing(bounds):
    rng = SplitMix64(5)
    rng.next_uint64()
    with pytest.raises(ValueError):
        next(rng.below_chain(bounds, 1))
    after_one = (5 + GAMMA) & MASK64
    return rng.state == after_one and rng.next_uint64() == Textbook(after_one).next_uint64()


@pytest.mark.parametrize("bounds", [[0], [3, -1]])
def test_kernel_rejects_nonpositive_bounds_before_drawing(bounds):
    assert refused_before_drawing(bounds)


# bound k must lie in k + 1..2^64 - k
@pytest.mark.parametrize("bounds", [[1], [3, 2], [2, 3, 3], [2**64], [3, 2**64 - 1]])
def test_kernel_refuses_a_bound_outside_its_range_before_drawing(bounds):
    assert refused_before_drawing(bounds)


CHAIN_BOUNDS = st.lists(st.integers(0, 3), max_size=6).map(
    lambda kinds: [chain_bound(k, kind) for k, kind in enumerate(kinds, start=1)]
)
NEAR_REJECTION = st.integers(0, 400).map(rejecting_at)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 64]),
    st.one_of(st.integers(0, MASK64), NEAR_REJECTION),
    CHAIN_BOUNDS,
    st.integers(0, 150),
)
@example(1, REJECTING_SEED, [2], 3)
@example(3, rejecting_at(7), [3, 5, 7], 10)
@example(64, rejecting_at(200), [3, 5], 150)
def test_chain_equals_scalar_at_any_chunk_size(lanes, seed, bounds, samples):
    with mock.patch.object(rng_module, "LANES", lanes):
        assert lane_chain(seed, bounds, samples) == scalar_chain(seed, bounds, samples)


def test_histogram_equals_scalar_across_three_chunks_with_a_rejection():
    # order 6 draws 5 gaps a sample; the third gap of sample LANES + 10 is
    # rejected, so its chunk keeps 10 lanes and that sample is redrawn alone
    seed = rejecting_at(5 * (LANES + 10) + 2)
    rng = SplitMix64(seed)
    assert chunk_starts(rng, rng.below_chain(range(3, 12, 2), 2 * LANES + 5)) == [
        0, LANES, LANES + 10, LANES + 11,
    ]
    assert sample_statistic_histogram(6, 2 * LANES + 5, seed) == (
        verify._scalar_statistic_histogram(6, 2 * LANES + 5, seed)
    )


def test_bound_above_two_to_the_64_raises_before_drawing():
    rng = SplitMix64(5)
    with pytest.raises(ValueError):
        rng.below(2**64 + 1)
    assert rng.state == 5
    for bounds in ([2**64 + 1], [3, 2**64 + 1]):
        assert refused_before_drawing(bounds)


def test_bound_two_to_the_64_returns_the_raw_output():
    rng, raw = SplitMix64(7), SplitMix64(7)
    for _ in range(3):
        assert rng.below(2**64) == raw.next_uint64()
        assert rng.state == raw.state


@pytest.mark.parametrize("seed", sorted(PUBLISHED))
def test_published_splitmix64_outputs(seed):
    rng, textbook = SplitMix64(seed), Textbook(seed)
    assert [rng.next_uint64() for _ in PUBLISHED[seed]] == PUBLISHED[seed]
    assert [textbook.next_uint64() for _ in PUBLISHED[seed]] == PUBLISHED[seed]
    assert list(verify.SPLITMIX64_VECTORS[seed]) == PUBLISHED[seed]


def test_verify_sampler_suite_checks_the_mixing_itself(monkeypatch):
    # a wrong multiplier changes scalar and lane draws alike, so only the
    # published outputs can tell
    draws_check = "fixed seed reproduces bit-identical draws"
    assert verify.run_suite("sampler", quick=True)[-1] == verify.CheckResult(
        "sampler", draws_check, True
    )
    monkeypatch.setattr(rng_module, "_MIX2", rng_module._MIX2 ^ 2)
    assert verify.run_suite("sampler", quick=True)[-1] == verify.CheckResult(
        "sampler", draws_check, False
    )


@pytest.mark.parametrize("seed", [1234567, 0, REJECTING_SEED, MASK64])
def test_buffered_stream_equals_textbook_across_every_refill_size(seed):
    edges = refill_edges()
    assert edges[0] == rng_module._REFILL and len(edges) >= 3
    rng, textbook = SplitMix64(seed), Textbook(seed)
    checked = set()
    for draws in range(1, edges[-1] + 2):
        assert rng.next_uint64() == textbook.next_uint64()
        assert rng.state == textbook.state
        checked.add(draws)
    assert {e + d for e in edges for d in (-1, 0, 1)} <= checked


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("edge", refill_edges())
def test_rejection_at_a_refill_edge(edge, offset):
    # the rejected output 2^64 - 1 is draw edge + offset, so the redraw comes
    # just before, at or just after the start of a new refill
    seed = (REJECTING_SEED - (edge + offset - 1) * GAMMA) & MASK64
    rng, textbook = SplitMix64(seed), Textbook(seed)
    for _ in range(edge + 4):
        assert rng.below(3) == textbook.below(3)
        assert rng.state == textbook.state
    assert textbook.state == (seed + (edge + 5) * GAMMA) & MASK64


def seed_for_output(z):
    """The seed whose first output is z, inverting the textbook step."""

    def unshift(x, s):  # inverse of x ^ (x >> s)
        y = x
        for _ in range(64 // s + 1):
            y = x ^ (y >> s)
        return y

    z = (unshift(z, 31) * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK64
    z = (unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK64
    return (unshift(z, 30) - GAMMA) & MASK64


# 274177 divides 2^64 + 1, so its limit is 2^64 - bound + 1, the least there is
@pytest.mark.parametrize("bound", [3, 274177, 10**18, 2**63 + 1, 2**64 - 1, 2**64])
def test_below_at_the_rejection_limit(bound):
    # below accepts z <= 2^64 - bound without computing the limit
    # 2^64 - (2^64 mod bound); check every output between the two
    limit = ((1 << 64) // bound) * bound
    assert seed_for_output(MASK64) == REJECTING_SEED
    for z in {(1 << 64) - bound - 1, (1 << 64) - bound, (1 << 64) - bound + 1, limit - 1, limit}:
        if 0 <= z <= MASK64:
            seed = seed_for_output(z)
            assert SplitMix64(seed).next_uint64() == z
            rng, textbook = SplitMix64(seed), Textbook(seed)
            assert rng.below(bound) == textbook.below(bound)
            assert rng.state == textbook.state
            assert (rng.state == (seed + GAMMA) & MASK64) == (z < limit)  # accepted at once


def test_state_counts_the_draws_handed_out_not_the_buffered_ones():
    """The contract the bench's tracer reads: (state - seed) * GAMMA^-1 mod
    2^64 is the number of 64-bit draws handed out, rejected ones included."""
    seed = REJECTING_SEED
    rng = SplitMix64(seed)

    def handed_out():
        return ((rng.state - seed) * GAMMA_INV) & MASK64

    assert handed_out() == 0
    assert rng.below(3) == 1 and handed_out() == 2  # one output rejected
    assert len(rng._buffer) == rng_module._REFILL - 2
    for draws in range(3, 1000):
        rng.next_uint64()
        assert handed_out() == draws
    assert len(list(rng.below_chain([3, 5], 4))) == 4
    assert handed_out() == 999 + 8


def test_assigning_state_drops_the_buffer():
    rng = SplitMix64(11)
    rng.next_uint64()
    assert rng._buffer
    rng.state = 2**64 + 5  # reduced modulo 2^64, as a seed is
    assert rng._buffer == [] and rng.state == 5
    textbook = Textbook(5)
    assert [rng.next_uint64() for _ in range(20)] == [textbook.next_uint64() for _ in range(20)]


SEEDS = st.one_of(
    st.integers(0, MASK64),
    st.sampled_from([REJECTING_SEED, LATE_REJECTING_SEED, (REJECTING_SEED - 7 * GAMMA) & MASK64]),
)
BOUNDS = st.sampled_from([1, 3, 2**63 + 1, 2**64])
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("next"), st.integers(1, 40)),
        st.tuples(st.just("below"), BOUNDS),
        st.tuples(st.just("state"), st.none()),
        st.tuples(st.just("set"), SEEDS),
        st.tuples(st.just("chain"), st.tuples(CHAIN_BOUNDS, st.integers(0, 3))),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(SEEDS, OPERATIONS)
@example(REJECTING_SEED, [("below", 3), ("set", REJECTING_SEED), ("below", 3)])
@example(REJECTING_SEED, [("next", 7), ("chain", ([3], 2)), ("below", 2**63 + 1)])
def test_buffered_generator_equals_textbook(seed, operations):
    rng, textbook = SplitMix64(seed), Textbook(seed)
    for op, arg in operations:
        if op == "next":
            assert [rng.next_uint64() for _ in range(arg)] == [
                textbook.next_uint64() for _ in range(arg)
            ]
        elif op == "below":
            assert rng.below(arg) == textbook.below(arg)
        elif op == "state":
            assert rng.state == textbook.state
        elif op == "set":
            rng.state = textbook.state = arg
        elif op == "chain":
            bounds, samples = arg
            assert list(rng.below_chain(bounds, samples)) == [
                scalar_count(textbook, bounds) for _ in range(samples)
            ]
    assert rng.state == textbook.state
    assert rng.next_uint64() == textbook.next_uint64()
