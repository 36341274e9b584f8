"""Bit-string codec: decoding, the quadratic objective, and replication."""

import copy
import math
import pickle
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvoa import (
    BinaryCodec,
    BitGenotype,
    DistanceMode,
    quadratic_fitness,
    random_patient_zero,
    replicate_bits,
    traveler_flip_count,
)
from cvoa.binary import _bias_strength, _nth_set_bit, decode


def hamming(a: BitGenotype, b: BitGenotype) -> int:
    return (a.value ^ b.value).bit_count()


bit_lengths = st.integers(min_value=8, max_value=64)
genotypes = bit_lengths.flatmap(
    lambda n: st.integers(min_value=0, max_value=2**n - 1).map(lambda v: BitGenotype(n, v))
)


class TestDecode:
    def test_ten_bit_fifteen(self):
        assert decode(BitGenotype.from_string("0000001111")) == 15

    def test_ten_bit_zero(self):
        assert decode(BitGenotype.from_string("0000000000")) == 0

    def test_twenty_bit_fifteen_scores_zero(self):
        g = BitGenotype.from_string("00000000000000001111")
        assert decode(g) == 15
        assert quadratic_fitness(g, 15) == 0

    def test_most_significant_bit_first(self):
        assert decode(BitGenotype.from_string("10000000")) == 128

    @given(genotypes)
    def test_string_round_trip(self, g):
        assert BitGenotype.from_string(g.to_string()) == g
        assert len(g.to_string()) == g.length


class TestQuadraticFitness:
    def test_at_target(self):
        assert quadratic_fitness(BitGenotype(10, 15), 15) == 0

    def test_one_off(self):
        assert quadratic_fitness(BitGenotype(10, 16), 15) == 1

    def test_at_zero(self):
        assert quadratic_fitness(BitGenotype(10, 0), 15) == 225

    def test_exhaustive_ten_bit_oracle(self):
        # brute force over all 1024 genotypes against the closed form
        for x in range(1024):
            f = quadratic_fitness(BitGenotype(10, x), 15)
            assert f == (x - 15) ** 2
            assert f >= 0
            assert (f == 0) == (x == 15)

    def test_wide_integer_arithmetic_at_fifty_bits(self):
        g = BitGenotype(50, 2**50 - 1)
        expected = (2**50 - 1 - 15) ** 2
        assert quadratic_fitness(g, 15) == expected
        assert expected > 2**96  # would overflow fixed-width arithmetic


class TestGenotype:
    def test_length_bounds(self):
        with pytest.raises(ValueError):
            BitGenotype(7, 0)
        with pytest.raises(ValueError):
            BitGenotype(65, 0)

    def test_value_must_fit(self):
        with pytest.raises(ValueError):
            BitGenotype(8, 256)
        with pytest.raises(ValueError):
            BitGenotype(8, -1)

    def test_total_order(self):
        assert BitGenotype(8, 3) < BitGenotype(8, 4)
        assert BitGenotype(8, 255) < BitGenotype(9, 0)
        assert sorted([BitGenotype(8, 9), BitGenotype(8, 1)])[0].value == 1

    @given(genotypes, genotypes)
    def test_hash_and_order_follow_length_then_value(self, a, b):
        assert hash(a) == hash((a.length, a.value))
        assert (a < b) == ((a.length, a.value) < (b.length, b.value))
        assert (a == b) == ((a.length, a.value) == (b.length, b.value))

    def test_fields_are_read_only(self):
        g = BitGenotype(10, 15)
        with pytest.raises(AttributeError):
            g.length = 11
        with pytest.raises(AttributeError):
            g.value = 0
        with pytest.raises(AttributeError):
            g.extra = 1

    @given(genotypes)
    def test_pickle_and_deepcopy_round_trip(self, g):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(g, protocol))
            assert type(clone) is BitGenotype and clone == g
        assert type(copy.deepcopy(g)) is BitGenotype and copy.deepcopy(g) == g
        assert copy.copy(g) == g

    def test_repr_names_the_fields(self):
        assert repr(BitGenotype(10, 15)) == "BitGenotype(length=10, value=15)"

    def test_construction_validates_through_post_init(self, monkeypatch):
        seen = []
        original = BitGenotype.__post_init__

        def recording(self):
            seen.append((self.length, self.value))
            original(self)

        monkeypatch.setattr(BitGenotype, "__post_init__", recording)
        BitGenotype(10, 15)
        with pytest.raises(ValueError):
            BitGenotype(10, 1024)
        with pytest.raises(ValueError):
            BitGenotype(65, 0)
        assert seen == [(10, 15), (10, 1024), (65, 0)]


class TestPatientZero:
    def test_requested_length(self):
        assert random_patient_zero(10, Random(0)).length == 10

    def test_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            random_patient_zero(1, Random(0))

    def test_two_draws_differ(self):
        rng = Random(42)
        assert random_patient_zero(20, rng) != random_patient_zero(20, rng)

    def test_bits_are_fair_coins(self):
        rng = Random(7)
        ones = [0] * 10
        draws = 10_000
        for _ in range(draws):
            g = random_patient_zero(10, rng)
            for p in range(10):
                ones[p] += (g.value >> p) & 1
        for count in ones:
            assert abs(count / draws - 0.5) < 0.03


class TestTravelerFlipCount:
    @pytest.mark.parametrize(
        "n,k", [(8, 2), (10, 2), (20, 2), (30, 3), (40, 4), (50, 5), (64, 7)]
    )
    def test_values(self, n, k):
        assert traveler_flip_count(n) == k
        assert traveler_flip_count(n) == max(2, math.ceil(n / 10))


def reference_replicate_bits(parent, mode, rng, *, toward=None):
    """replicate_bits as first written, with position lists; the mask-based
    version must make the same draws and return the same child."""
    n = parent.length
    k = traveler_flip_count(n) if mode is DistanceMode.TRAVELER else 1
    traveling = mode is DistanceMode.TRAVELER
    child = parent.value
    used: set[int] = set()
    for _ in range(k):
        pos = None
        if toward is not None:
            delta = child ^ toward
            e = _bias_strength(delta.bit_count(), traveling)
            if rng.random() < e:
                diff = [p for p in range(n) if (delta >> p) & 1 and p not in used]
                if diff:
                    pos = diff[rng.randrange(len(diff))]
        if pos is None:
            free = [p for p in range(n) if p not in used]
            pos = free[rng.randrange(len(free))]
        used.add(pos)
        child ^= 1 << pos
    return BitGenotype(n, child)


def reference_nth_set_bit(mask, index):
    """_nth_set_bit as first written: clear the lowest set bit index times."""
    for _ in range(index):
        mask &= mask - 1
    return (mask & -mask).bit_length() - 1


class TestNthSetBit:
    @given(st.integers(min_value=1, max_value=2**64 - 1), st.data())
    @settings(max_examples=500)
    def test_matches_reference(self, mask, data):
        index = data.draw(st.integers(min_value=0, max_value=mask.bit_count() - 1))
        assert _nth_set_bit(mask, index) == reference_nth_set_bit(mask, index)

    def test_every_index_of_a_sparse_wide_mask(self):
        mask = (1 << 63) | (1 << 40) | (1 << 17) | (1 << 8) | 1
        assert [_nth_set_bit(mask, i) for i in range(5)] == [0, 8, 17, 40, 63]

    @pytest.mark.parametrize("mask, index", [(0, 0), (0b1011, 3), (1 << 63, 1)])
    def test_index_past_the_last_set_bit_rejected(self, mask, index):
        with pytest.raises(ValueError):
            _nth_set_bit(mask, index)


# toward values: none, within the genotype's width, up to 10 bits wider, negative
towards = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**74 - 1),
    st.integers(min_value=-(2**70), max_value=-1),
)


class TestReplicateBits:
    @given(
        genotypes,
        st.sampled_from(DistanceMode),
        towards,
        st.booleans(),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=500)
    def test_matches_reference_draw_for_draw(self, parent, mode, toward, narrow, seed):
        if narrow and toward is not None and toward >= 0:
            toward %= 1 << parent.length
        expected_rng, rng = Random(seed), Random(seed)
        expected = reference_replicate_bits(parent, mode, expected_rng, toward=toward)
        assert replicate_bits(parent, mode, rng, toward=toward) == expected
        assert rng.getstate() == expected_rng.getstate()

    @given(genotypes, st.booleans())
    @settings(max_examples=200)
    def test_ordinary_flips_exactly_one_bit(self, parent, guided):
        toward = 15 % (1 << parent.length) if guided else None
        child = replicate_bits(parent, DistanceMode.ORDINARY, Random(0), toward=toward)
        assert child.length == parent.length
        assert hamming(parent, child) == 1

    @given(genotypes, st.booleans())
    @settings(max_examples=200)
    def test_traveler_flips_contracted_distinct_bits(self, parent, guided):
        toward = 15 % (1 << parent.length) if guided else None
        child = replicate_bits(parent, DistanceMode.TRAVELER, Random(1), toward=toward)
        assert child.length == parent.length
        assert hamming(parent, child) == traveler_flip_count(parent.length)

    def test_traveler_twenty_bit_distance_two(self):
        parent = BitGenotype(20, 0)
        child = replicate_bits(parent, DistanceMode.TRAVELER, Random(3))
        assert hamming(parent, child) == 2

    def test_traveler_fifty_bit_distance_five(self):
        parent = BitGenotype(50, 0)
        child = replicate_bits(parent, DistanceMode.TRAVELER, Random(3))
        assert hamming(parent, child) == 5

    def test_unguided_positions_uniform(self):
        rng = Random(11)
        parent = BitGenotype(10, 0)
        flips = [0] * 10
        draws = 20_000
        for _ in range(draws):
            child = replicate_bits(parent, DistanceMode.ORDINARY, rng)
            flips[(child.value ^ parent.value).bit_length() - 1] += 1
        for count in flips:
            assert abs(count / draws - 0.1) < 0.02

    def test_guided_step_lands_on_adjacent_target(self):
        # one bit away from the bias value, an ordinary move closes the gap
        rng = Random(5)
        for bit in range(10):
            parent = BitGenotype(10, 15 ^ (1 << bit))
            child = replicate_bits(parent, DistanceMode.ORDINARY, rng, toward=15)
            assert child.value == 15

    def test_guided_never_breaks_flip_contract(self):
        rng = Random(9)
        parent = BitGenotype(10, 15)  # already at the bias value
        for _ in range(200):
            child = replicate_bits(parent, DistanceMode.ORDINARY, rng, toward=15)
            assert hamming(parent, child) == 1


class TestBinaryCodec:
    def test_distance_is_bit_disagreement(self):
        codec = BinaryCodec(bits=10, target=15)
        assert codec.distance(BitGenotype(10, 0b1010), BitGenotype(10, 0b0110)) == 2

    def test_search_space_size(self):
        assert BinaryCodec(bits=10).search_space_size() == 1024
        assert BinaryCodec(bits=20).search_space_size() == 2**20

    def test_text_is_bit_string(self):
        assert BinaryCodec(bits=10).text(BitGenotype(10, 15)) == "0000001111"

    def test_generate_uses_configured_length(self):
        assert BinaryCodec(bits=20).generate_patient_zero(Random(0)).length == 20

    def test_target_must_fit(self):
        with pytest.raises(ValueError):
            BinaryCodec(bits=8, target=256)

    def test_optimum_is_zero(self):
        assert BinaryCodec().optimum_fitness() == 0

    def test_fitness_matches_free_function(self):
        codec = BinaryCodec(bits=10, target=15)
        g = BitGenotype(10, 100)
        assert codec.fitness(g) == quadratic_fitness(g, 15)
