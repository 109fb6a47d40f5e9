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
# the same stream entered 5,000 draws earlier: with one bound per sample the
# rejected output is sample 5,000's, in the third chunk
LATE_REJECTING_SEED = (REJECTING_SEED - 5000 * GAMMA) & MASK64
# with three bounds per sample, draw 6,445 = 3 * (2048 + 100) + 1 is the
# rejected one: the middle draw of lane 100 of the second chunk
MID_LANE_REJECTING_SEED = (REJECTING_SEED - 6445 * GAMMA) & MASK64


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


def scalar_lists(seed, bounds, samples):
    rng = SplitMix64(seed)
    return [[rng.below(b) for b in bounds] for _ in range(samples)], rng.state


def lane_draws(rng, bounds, samples):
    """Each sample's draws, read back from the chunks' unpacked lanes."""
    lists = []
    for chunk in rng.below_lanes(bounds, samples):
        steps = list(chunk)  # kept is final only once the chunk is read
        lists += [list(draws) for draws in zip(*map(chunk.unpack, steps))]
        if not steps:
            lists += [[] for _ in range(chunk.kept)]
    return lists


def lane_lists(seed, bounds, samples):
    rng = SplitMix64(seed)
    return lane_draws(rng, bounds, samples), rng.state


def test_rejection_branch_consumes_a_second_draw():
    assert SplitMix64(REJECTING_SEED).next_uint64() == MASK64
    rng = SplitMix64(REJECTING_SEED)
    assert rng.below(3) == 1
    assert rng.state == (REJECTING_SEED + 2 * GAMMA) & MASK64
    assert lane_lists(REJECTING_SEED, [3], 1) == ([[1]], rng.state)
    assert sample_statistic_histogram(6, 10, REJECTING_SEED) == (0, 0, 1, 0, 4, 5, 0)


@pytest.mark.parametrize(
    "bounds,samples",
    [
        ([], 4),
        ([7], 0),
        ([7], 3000),  # two chunks, the second one partial
        (list(range(3, 1000, 2)), 9),  # the histogram's bounds at order 500
        ([5] * 2048, 3),
        ([5] * 2047 + [3], 2),
        ([2] * 2049, 2),
        ([3, 2**64 - 1, 2**63 + 1, 1, 10**18] * 1100, 2),  # 5,500 draws a sample
        ([], LANES + 1),
        ([7], 1),
        ([7], 6000),  # three chunks
        ([5, 3], LANES - 1),
        ([5, 3], LANES),
        ([5, 3, 7], LANES + 1),
        ([3, 5, 7], 2 * LANES + 4),
        # edge bounds: 1 and 2^64 never reject, 2^63 + 1 rejects about half
        # of all outputs, 2^64 - 1 only the largest
        ([1, 2, 2**64 - 1, 2**64, 3], 40),
        ([3, 2**63 + 1, 10**18], 40),
    ],
)
@pytest.mark.parametrize(
    "seed", [1, REJECTING_SEED, LATE_REJECTING_SEED, MID_LANE_REJECTING_SEED]
)
def test_kernel_equals_scalar_below_across_blocks(seed, bounds, samples):
    assert lane_lists(seed, bounds, samples) == scalar_lists(seed, bounds, samples)


def test_mid_lane_rejection_restarts_after_the_rejected_sample():
    rng = SplitMix64(MID_LANE_REJECTING_SEED)
    chunks = []
    for chunk in rng.below_lanes([3, 5, 7], 2 * LANES + 4):
        for _ in chunk:
            pass
        chunks.append((chunk.kept, chunk.ones.bit_length()))
    # a full chunk, then 100 kept lanes of the second, the rejected sample
    # alone, and the remaining 1,951 samples in the next chunk
    assert [kept for kept, _ in chunks] == [LANES, 100, 1, LANES + 3 - 100]
    assert chunks[2][1] == 1  # the one-lane chunk of the scalar redraw


def test_kernel_follows_draws_made_between_chunks():
    rng, reference = SplitMix64(42), SplitMix64(42)
    bounds = range(3, 30, 2)
    for chunk in rng.below_lanes(bounds, LANES + 5):
        steps = list(chunk)
        for draws in zip(*map(chunk.unpack, steps)):
            assert list(draws) == [reference.below(b) for b in bounds]
        assert rng.state == reference.state
        assert rng.below(11) == reference.below(11)


def test_unfinished_chunk_still_moves_the_state():
    rng = SplitMix64(9)
    chunks = rng.below_lanes([3, 5], 3)
    next(chunks)  # not read at all
    assert next(chunks, None) is None
    assert rng.state == scalar_lists(9, [3, 5], 3)[1]


@pytest.mark.parametrize("bounds", [[0], [3, -1]])
def test_kernel_rejects_nonpositive_bounds_before_drawing(bounds):
    rng = SplitMix64(5)
    with pytest.raises(ValueError):
        next(rng.below_lanes(bounds, 1))
    assert rng.state == 5


def test_bound_above_two_to_the_64_raises_before_drawing():
    rng = SplitMix64(5)
    with pytest.raises(ValueError):
        rng.below(2**64 + 1)
    assert rng.state == 5
    for bounds in ([2**64 + 1], [3, 2**64 + 1]):
        with pytest.raises(ValueError):
            next(rng.below_lanes(bounds, 1))
        assert rng.state == 5


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
    for _ in rng.below_lanes([3, 5], 4):
        pass
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
        st.tuples(st.just("lanes"), st.tuples(st.lists(BOUNDS, max_size=3), st.integers(0, 3))),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(SEEDS, OPERATIONS)
@example(REJECTING_SEED, [("below", 3), ("set", REJECTING_SEED), ("below", 3)])
@example(REJECTING_SEED, [("next", 7), ("lanes", ([3], 2)), ("below", 2**63 + 1)])
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
        elif op == "lanes":
            bounds, samples = arg
            assert lane_draws(rng, bounds, samples) == [
                [textbook.below(b) for b in bounds] for _ in range(samples)
            ]
    assert rng.state == textbook.state
    assert rng.next_uint64() == textbook.next_uint64()
