"""The package's seeded binomial draws equal numpy's, bit for bit.

``sample_counts`` draws its counts with ``decoyqkd._binomial``; numpy is
the reference it must reproduce, so that seeded reports keep their bytes.
"""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decoyqkd._binomial import _generators, binomial_pairs

INT64_MAX = 2**63 - 1


def numpy_pairs(seed, draws):
    pairs = []
    for index, (n, p, p2) in enumerate(draws):
        rng = np.random.default_rng([seed, index])
        x = int(rng.binomial(n, p))
        pairs.append((x, int(rng.binomial(x, p2))))
    return pairs


def largest_p_at_most(n, bound):
    """The largest float p with p * n <= bound (as a double product)."""
    p = bound / n
    while p * n > bound:
        p = math.nextafter(p, 0.0)
    while math.nextafter(p, 1.0) * n <= bound:
        p = math.nextafter(p, 1.0)
    return p


# numpy draws by inversion while n * min(p, 1 - p) <= 30, by BTPE above
N_EDGE = 1_000_003
R_UNDER = largest_p_at_most(N_EDGE, 30.0)
R_OVER = math.nextafter(R_UNDER, 1.0)
HALF_UNDER = math.nextafter(0.5, 0.0)
HALF_OVER = math.nextafter(0.5, 1.0)

probabilities = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e-3),
    st.floats(1e-14, 1e-9).map(lambda r: 1.0 - r),
    st.sampled_from([0.0, 1.0, 5e-324, 2.2250738585072009e-308, 0.5]),
    st.sampled_from([R_UNDER, R_OVER, HALF_UNDER, HALF_OVER]),
)
trials = st.one_of(
    st.integers(0, INT64_MAX),
    st.integers(0, 200),
    st.integers(0, 10**12),
    st.just(INT64_MAX),
)
draws = st.lists(
    st.tuples(trials, probabilities, probabilities), min_size=1, max_size=3
)


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**200), draws=draws)
@example(seed=7, draws=[(N_EDGE, R_UNDER, 0.02), (N_EDGE, R_OVER, 0.5)])
@example(seed=7, draws=[(N_EDGE, 1 - R_UNDER, R_OVER), (N_EDGE, 1 - R_OVER, 1.0)])
@example(seed=3, draws=[(10**9, HALF_UNDER, HALF_OVER), (10**9, HALF_OVER, 0.2)])
# numpy's int64 sums wrap: -k * k in BTPE's squeeze, n + 1 in its
# explicit evaluation
@example(seed=4, draws=[(INT64_MAX, 0.5, 0.5), (INT64_MAX, HALF_OVER, 1e-18)])
@example(seed=4, draws=[(INT64_MAX, 40 / 2**63, 0.5)])
@example(seed=2**1000, draws=[(1_500_000_000, 1.3e-4, 0.04)] * 3)
@example(seed=0, draws=[(0, 0.5, 0.5), (5, 0.0, 1.0), (5, 1.0, 5e-324)])
# BTPE's last test at huge n and tiny 1 - p, where numpy sums n + 1 - m and
# n - y + 1 in doubles
@example(seed=6, draws=[(0, 0.0, 0.0)] * 2 + [(66303234816930966, 1 - 1.3026e-12, 0)])
@example(seed=44301, draws=[(6788755423570876076, 0.9999999999999888, 0.5)])
# BTPE rejects a left-tail candidate below 0, and a right-tail one above n
@example(seed=12166, draws=[(100, 0.31, 0.5)])
@example(seed=150572, draws=[(61, 0.5, 0.5)])
def test_pairs_equal_numpy(seed, draws):
    assert binomial_pairs(seed, draws) == numpy_pairs(seed, draws)


@pytest.mark.parametrize(
    "seed", [0, 1, 2**32 - 1, 2**32, 2**127 + 5, 2**1000, 3**700]
)
def test_seeds_of_every_length(seed):
    # seeds past four 32-bit words take SeedSequence's second mixing pass
    draws = [(10**6, 0.3, 0.5), (40, 0.2, 0.9), (10**10, 1e-7, 0.01)]
    assert binomial_pairs(seed, draws) == numpy_pairs(seed, draws)


def test_many_moderate_btpe_sessions():
    # n * r from 30 to 5e5, where BTPE's setup constants (c = 0.134 +
    # 20.5 / (15.3 + m) among them) move its region bounds the most
    rng = np.random.default_rng(20261018)
    for seed in range(2000):
        n = rng.integers(61, 10**6, size=3)
        p = rng.uniform(30.0 / n, 0.5)
        p2 = rng.random(3)
        draws = [(int(a), float(b), float(c)) for a, b, c in zip(n, p, p2)]
        assert binomial_pairs(seed, draws) == numpy_pairs(seed, draws), seed


# seeds of one to 35 32-bit words; past four, SeedSequence runs its second
# mixing pass
LANE_SEEDS = (0, 2**32 - 1, 2**32, 2**96, 2**127 + 5, 3**700)


def numpy_generators(seed, count):
    states = [
        np.random.default_rng([seed, i]).bit_generator.state["state"]
        for i in range(count)
    ]
    return [[state["state"], state["inc"]] for state in states]


def test_generators_for_every_count():
    # counts 0..8 in one process, up and then down again, so that each
    # count's lane constants are made once and then met again
    for count in [*range(9), *range(8, -1, -1)]:
        for seed in LANE_SEEDS:
            assert _generators(seed, count) == numpy_generators(seed, count), (
                seed,
                count,
            )


def test_generators_of_a_new_count_from_many_threads():
    # no other test asks for 23 generators, so the threads, more than the
    # cores and released together, are its first users
    count, seed, workers = 23, 2**127 + 5, 4
    barrier = threading.Barrier(workers)
    results = [None] * workers

    def run(slot):
        barrier.wait(timeout=60)
        results[slot] = _generators(seed, count)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    expected = numpy_generators(seed, count)
    assert all(result == expected for result in results)
