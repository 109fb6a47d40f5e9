import pytest

from stirperm.distribution import sample_statistic_histogram
from stirperm.rng import MASK64, SplitMix64

GAMMA = 0x9E3779B97F4A7C15  # the documented per-draw state increment
# the first output of this seed is 2^64 - 1, which every odd bound >= 3 rejects
REJECTING_SEED = 0x31628AF67B2131AB
# the same stream entered 5,000 draws earlier: the rejected output falls
# inside the kernel's third block, in the middle of a list
LATE_REJECTING_SEED = (REJECTING_SEED - 5000 * GAMMA) & MASK64


def scalar_lists(seed, bounds, times):
    rng = SplitMix64(seed)
    lists = []
    for _ in range(times):
        lists.append(([rng.below(b) for b in bounds], rng.state))
    return lists


def kernel_lists(seed, bounds, times):
    rng = SplitMix64(seed)
    return [(draws, rng.state) for draws in rng.below_each(bounds, times)]


def test_rejection_branch_consumes_a_second_draw():
    assert SplitMix64(REJECTING_SEED).next_uint64() == MASK64
    rng = SplitMix64(REJECTING_SEED)
    assert rng.below(3) == 1
    assert rng.state == (REJECTING_SEED + 2 * GAMMA) & MASK64
    assert kernel_lists(REJECTING_SEED, [3], 1) == [([1], rng.state)]
    assert sample_statistic_histogram(6, 10, REJECTING_SEED) == (0, 0, 1, 0, 4, 5, 0)


@pytest.mark.parametrize(
    "bounds,times",
    [
        ([], 4),
        ([7], 0),
        ([7], 3000),  # one draw per list, past the first block
        (list(range(3, 1000, 2)), 9),  # the histogram's bounds at order 500
        ([5] * 2048, 3),  # exactly one block per list
        ([5] * 2047 + [3], 2),
        ([2] * 2049, 2),
        ([3, 2**64 - 1, 2**63 + 1, 1, 10**18] * 1100, 2),  # 5,500 draws a list
    ],
)
@pytest.mark.parametrize("seed", [1, REJECTING_SEED, LATE_REJECTING_SEED])
def test_kernel_equals_scalar_below_across_blocks(seed, bounds, times):
    assert kernel_lists(seed, bounds, times) == scalar_lists(seed, bounds, times)


def test_kernel_follows_draws_made_between_lists():
    rng, reference = SplitMix64(42), SplitMix64(42)
    bounds = range(3, 100, 2)
    for draws in rng.below_each(bounds, 5):
        assert draws == [reference.below(b) for b in bounds]
        assert rng.state == reference.state
        assert rng.below(11) == reference.below(11)


@pytest.mark.parametrize("bounds", [[0], [3, -1]])
def test_kernel_rejects_nonpositive_bounds_before_drawing(bounds):
    rng = SplitMix64(5)
    with pytest.raises(ValueError):
        next(rng.below_each(bounds, 1))
    assert rng.state == 5


def test_bound_above_two_to_the_64_raises_before_drawing():
    rng = SplitMix64(5)
    with pytest.raises(ValueError):
        rng.below(2**64 + 1)
    assert rng.state == 5
    with pytest.raises(ValueError):
        next(rng.below_each([3, 2**64 + 1], 1))
    assert rng.state == 5


def test_bound_two_to_the_64_returns_the_raw_output():
    rng, raw = SplitMix64(7), SplitMix64(7)
    for _ in range(3):
        assert rng.below(2**64) == raw.next_uint64()
        assert rng.state == raw.state
