import pytest

from stirperm.distribution import sample_statistic_histogram
from stirperm.rng import LANES, MASK64, SplitMix64

GAMMA = 0x9E3779B97F4A7C15  # the documented per-draw state increment
# the first output of this seed is 2^64 - 1, which every odd bound >= 3 rejects
REJECTING_SEED = 0x31628AF67B2131AB
# the same stream entered 5,000 draws earlier: with one bound per sample the
# rejected output is sample 5,000's, in the third chunk
LATE_REJECTING_SEED = (REJECTING_SEED - 5000 * GAMMA) & MASK64
# with three bounds per sample, draw 6,445 = 3 * (2048 + 100) + 1 is the
# rejected one: the middle draw of lane 100 of the second chunk
MID_LANE_REJECTING_SEED = (REJECTING_SEED - 6445 * GAMMA) & MASK64


def scalar_lists(seed, bounds, samples):
    rng = SplitMix64(seed)
    return [[rng.below(b) for b in bounds] for _ in range(samples)], rng.state


def lane_lists(seed, bounds, samples):
    """Each sample's draws, read back from the chunks' unpacked lanes."""
    rng = SplitMix64(seed)
    lists = []
    for chunk in rng.below_lanes(bounds, samples):
        steps = list(chunk)  # kept is final only once the chunk is read
        lists += [list(draws) for draws in zip(*map(chunk.unpack, steps))]
        if not steps:
            lists += [[] for _ in range(chunk.kept)]
    return lists, rng.state


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
