import numpy as np

from relgeneric.rng import SplitMix64

# reference outputs of the canonical SplitMix64 stream
SEED0_FIRST3 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
SEED1_FIRST2 = [0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67]


def test_known_streams():
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == SEED0_FIRST3
    r = SplitMix64(1)
    assert [r.next_u64() for _ in range(2)] == SEED1_FIRST2


def test_uniform_range_and_determinism():
    a = SplitMix64(42)
    b = SplitMix64(42)
    xs = [a.uniform() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert xs == [b.uniform() for _ in range(1000)]


def test_vectorized_matches_scalar():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    vec = a.uniforms(257, -2.0, 5.0)
    scal = np.array([b.uniform(-2.0, 5.0) for _ in range(257)])
    assert np.array_equal(vec, scal)
    # the two generators must also agree on what comes next
    assert a.next_u64() == b.next_u64()


def test_uniforms_map_the_scalar_reference_outputs():
    # the top 53 bits of each next_u64 output, scaled to [lo, hi)
    a, b = SplitMix64(7), SplitMix64(7)
    ref = [-2.0 + 7.0 * ((b.next_u64() >> 11) * 2.0**-53) for _ in range(257)]
    assert a.uniforms(257, -2.0, 5.0).tolist() == ref
    assert a.uniform(-2.0, 5.0) == -2.0 + 7.0 * ((b.next_u64() >> 11) * 2.0**-53)


def test_seed_wraps_to_64_bits():
    assert SplitMix64(2**64).next_u64() == SplitMix64(0).next_u64()
