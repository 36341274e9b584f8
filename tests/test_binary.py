"""Bit-string codec: parsing, the quadratic objective, and replication;
the brood contract of both codecs."""

import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvoa.binary
from cvoa import (
    BinaryCodec,
    DistanceMode,
    ExternalEvaluator,
    ExternalNetCodec,
    NetCodec,
    NetGenotype,
    replicate_net,
    run_pandemic,
    traveler_flip_count,
)
from cvoa.binary import _E_TRAVELER, BitGenotype, _bias_strength, _nth_set_bit, bit_brood
from conftest import uniform


def hamming(a: int, b: int) -> int:
    return (a ^ b).bit_count()


bit_lengths = st.integers(min_value=8, max_value=64)
# (n, genotype): an n-bit genotype is a plain int in [0, 2**n)
sized_genotypes = bit_lengths.flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=2**n - 1))
)


class TestDecode:
    # a bit string parses most significant bit first into the genotype's value
    def test_ten_bit_fifteen(self):
        assert BitGenotype.from_string("0000001111") == 15

    def test_ten_bit_zero(self):
        assert BitGenotype.from_string("0000000000") == 0

    def test_twenty_bit_fifteen_scores_zero(self):
        g = BitGenotype.from_string("00000000000000001111")
        assert g == 15 and g.length == 20
        assert BinaryCodec(bits=20).fitness(g) == 0

    def test_most_significant_bit_first(self):
        assert BitGenotype.from_string("10000000") == 128

    @given(sized_genotypes)
    def test_string_round_trip(self, sized):
        n, g = sized
        text = BinaryCodec(bits=n).text(g)
        assert len(text) == n
        parsed = BitGenotype.from_string(text)
        assert parsed == g and parsed.length == n


class TestQuadraticFitness:
    """BinaryCodec.fitness, the one copy of (g - target)^2."""

    def test_at_target(self):
        assert BinaryCodec(bits=10, target=15).fitness(15) == 0

    def test_one_off(self):
        assert BinaryCodec(bits=10, target=15).fitness(16) == 1

    def test_at_zero(self):
        assert BinaryCodec(bits=10, target=15).fitness(0) == 225

    def test_exhaustive_ten_bit_oracle(self):
        # brute force over all 1024 genotypes against the closed form
        codec = BinaryCodec(bits=10, target=15)
        for x in range(1024):
            f = codec.fitness(x)
            assert f == (x - 15) ** 2
            assert f >= 0
            assert (f == 0) == (x == 15)

    def test_wide_integer_arithmetic_at_fifty_bits(self):
        g = 2**50 - 1
        expected = (2**50 - 1 - 15) ** 2
        fitness = BinaryCodec(bits=50, target=15).fitness(g)
        assert type(fitness) is int and fitness == expected
        assert expected > 2**96  # would overflow fixed-width arithmetic


class TestGenotype:
    """The parse-only BitGenotype: bit-string text and its length."""

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
        # equals, hashes and orders as its value
        assert BitGenotype(8, 3) < BitGenotype(8, 4) < 5
        assert BitGenotype(8, 255) == 255 and hash(BitGenotype(8, 255)) == hash(255)
        assert sorted([BitGenotype(8, 9), 1]) == [1, 9]

    def test_construction_validates_through_post_init(self, monkeypatch):
        seen = []
        original = BitGenotype.__post_init__

        def recording(self):
            seen.append((self.length, int(self)))
            original(self)

        monkeypatch.setattr(BitGenotype, "__post_init__", recording)
        BitGenotype(10, 15)
        with pytest.raises(ValueError):
            BitGenotype(10, 1024)
        with pytest.raises(ValueError):
            BitGenotype(65, 0)
        assert seen == [(10, 15), (10, 1024), (65, 0)]

    def test_is_parse_only(self):
        # genotypes are ints: the package exports no wrapper and no decoder
        assert not hasattr(cvoa, "BitGenotype")
        assert not hasattr(cvoa.binary, "decode")
        assert not hasattr(BitGenotype, "to_string")


class TestPatientZero:
    """BinaryCodec.generate_patient_zero: one getrandbits draw of `bits` bits."""

    def test_requested_length(self):
        rng = Random(0)
        codec = BinaryCodec(bits=10)
        draws = [codec.generate_patient_zero(rng) for _ in range(200)]
        assert all(type(g) is int and 0 <= g < 2**10 for g in draws)
        assert max(draws).bit_length() == 10

    def test_same_draw_as_getrandbits(self):
        # replayed on a clone of the stream: the draw and the state after it match
        rng = Random(4)
        clone = Random()
        clone.setstate(rng.getstate())
        assert BinaryCodec(bits=50).generate_patient_zero(rng) == clone.getrandbits(50)
        assert rng.getstate() == clone.getstate()

    def test_below_minimum_rejected(self):
        with pytest.raises(ValueError, match="unsupported bit length 1"):
            BinaryCodec(bits=1)

    def test_two_draws_differ(self):
        rng = Random(42)
        codec = BinaryCodec(bits=20)
        assert codec.generate_patient_zero(rng) != codec.generate_patient_zero(rng)

    def test_bits_are_fair_coins(self):
        rng = Random(7)
        codec = BinaryCodec(bits=10)
        ones = [0] * 10
        draws = 10_000
        for _ in range(draws):
            g = codec.generate_patient_zero(rng)
            for p in range(10):
                ones[p] += (g >> p) & 1
        for count in ones:
            assert abs(count / draws - 0.5) < 0.03


class TestTravelerFlipCount:
    @pytest.mark.parametrize(
        "n,k", [(8, 2), (10, 2), (20, 2), (30, 3), (40, 4), (50, 5), (64, 7)]
    )
    def test_values(self, n, k):
        assert traveler_flip_count(n) == k
        assert traveler_flip_count(n) == max(2, math.ceil(n / 10))


def reference_replicate_bits(parent, n, mode, rng, *, toward=None):
    """One child as first written, with position lists; the mask-based
    bit_brood must make the same draws and yield the same child."""
    k = traveler_flip_count(n) if mode is DistanceMode.TRAVELER else 1
    traveling = mode is DistanceMode.TRAVELER
    child = parent
    used: set[int] = set()
    for _ in range(k):
        pos = None
        if toward is not None:
            delta = child ^ toward
            e = _E_TRAVELER if traveling else _bias_strength(delta.bit_count())
            if rng.random() < e:
                diff = [p for p in range(n) if (delta >> p) & 1 and p not in used]
                if diff:
                    pos = diff[rng.randrange(len(diff))]
        if pos is None:
            free = [p for p in range(n) if p not in used]
            pos = free[rng.randrange(len(free))]
        used.add(pos)
        child ^= 1 << pos
    return child


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


def one_bit_child(parent, n, mode, rng, *, toward=None):
    """The one-child brood of bit_brood."""
    return next(bit_brood(parent, n, mode, 1, rng, toward=toward))


class TestReplicateBits:
    @given(
        sized_genotypes,
        st.sampled_from(DistanceMode),
        towards,
        st.booleans(),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=500)
    def test_matches_reference_draw_for_draw(self, sized, mode, toward, narrow, seed):
        n, parent = sized
        if narrow and toward is not None and toward >= 0:
            toward %= 1 << n
        expected_rng, rng = Random(seed), Random(seed)
        expected = reference_replicate_bits(parent, n, mode, expected_rng, toward=toward)
        assert one_bit_child(parent, n, mode, rng, toward=toward) == expected
        assert rng.getstate() == expected_rng.getstate()

    @given(sized_genotypes, st.booleans())
    @settings(max_examples=200)
    def test_ordinary_flips_exactly_one_bit(self, sized, guided):
        n, parent = sized
        toward = 15 % (1 << n) if guided else None
        child = one_bit_child(parent, n, DistanceMode.ORDINARY, Random(0), toward=toward)
        assert type(child) is int and 0 <= child < 2**n
        assert hamming(parent, child) == 1

    @given(sized_genotypes, st.booleans())
    @settings(max_examples=200)
    def test_traveler_flips_contracted_distinct_bits(self, sized, guided):
        n, parent = sized
        toward = 15 % (1 << n) if guided else None
        child = one_bit_child(parent, n, DistanceMode.TRAVELER, Random(1), toward=toward)
        assert type(child) is int and 0 <= child < 2**n
        assert hamming(parent, child) == traveler_flip_count(n)

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("mode", list(DistanceMode))
    def test_length_below_one_rejected(self, n, mode):
        # the position draw alone would fail on randbelow's empty range, not name the length
        with pytest.raises(ValueError, match="bit length"):
            one_bit_child(0, n, mode, Random(0))

    def test_traveler_longer_than_the_parent_rejected_before_any_draw(self):
        rng = Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match=r"flips 2 distinct bits, more than n=1"):
            one_bit_child(0, 1, DistanceMode.TRAVELER, rng)
        assert rng.getstate() == state

    def test_traveler_twenty_bit_distance_two(self):
        child = one_bit_child(0, 20, DistanceMode.TRAVELER, Random(3))
        assert hamming(0, child) == 2

    def test_traveler_fifty_bit_distance_five(self):
        child = one_bit_child(0, 50, DistanceMode.TRAVELER, Random(3))
        assert hamming(0, child) == 5

    def test_unguided_positions_uniform(self):
        rng = Random(11)
        flips = [0] * 10
        draws = 20_000
        for _ in range(draws):
            child = one_bit_child(0, 10, DistanceMode.ORDINARY, rng)
            flips[child.bit_length() - 1] += 1
        for count in flips:
            assert abs(count / draws - 0.1) < 0.02

    def test_guided_step_lands_on_adjacent_target(self):
        # one bit away from the bias value, an ordinary move closes the gap
        rng = Random(5)
        for bit in range(10):
            parent = 15 ^ (1 << bit)
            assert one_bit_child(parent, 10, DistanceMode.ORDINARY, rng, toward=15) == 15

    def test_guided_never_breaks_flip_contract(self):
        rng = Random(9)
        parent = 15  # already at the bias value
        for _ in range(200):
            child = one_bit_child(parent, 10, DistanceMode.ORDINARY, rng, toward=15)
            assert hamming(parent, child) == 1


def one_child(codec, parent, mode, traveler_rate, rng):
    """One child of parent as the codec's one-child operator draws it: the
    reference bit replicator, or replicate_net, steered as the codec steers."""
    if isinstance(codec, BinaryCodec):
        return reference_replicate_bits(parent, codec.bits, mode, rng, toward=codec.target)
    if isinstance(codec, ExternalNetCodec):
        return replicate_net(parent, mode, traveler_rate, rng, toward=None)
    return replicate_net(parent, mode, traveler_rate, rng, toward=codec.target)


codecs = st.one_of(
    bit_lengths.flatmap(
        lambda n: st.builds(BinaryCodec, st.just(n), st.integers(min_value=0, max_value=2**n - 1))
    ),
    st.integers(min_value=0, max_value=2**32).map(
        lambda seed: NetCodec(target=NetCodec.generate_patient_zero(Random(seed)))
    ),
    # no target, so replication is unguided; the evaluator never runs here
    st.just(ExternalNetCodec(ExternalEvaluator(["python3"]))),
)


class TestBroodContract:
    """Codec.replicate, for both codecs: a brood of `count` children, drawn
    lazily, each as the one-child operator would draw it."""

    @given(
        codecs,
        st.sampled_from(DistanceMode),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=-1, max_value=4),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=300)
    def test_brood_is_count_one_child_draws(self, codec, mode, count, traveler_rate, seed):
        rng = Random(seed)
        parent = codec.generate_patient_zero(rng)
        clone = Random()
        clone.setstate(rng.getstate())
        brood = list(codec.replicate(parent, mode, count, traveler_rate, rng))
        expected = [one_child(codec, parent, mode, traveler_rate, clone) for _ in range(count)]
        assert brood == expected
        assert rng.getstate() == clone.getstate()

    @pytest.mark.parametrize(
        "codec",
        [
            BinaryCodec(bits=20),
            BinaryCodec(bits=50, target=2**49 + 15),
            NetCodec(target=NetGenotype(1, 2, (3, 4))),
        ],
        ids=["binary-20", "binary-50", "nn"],
    )
    @pytest.mark.parametrize("mode", list(DistanceMode))
    def test_children_are_drawn_lazily(self, codec, mode):
        # a draw between children lands between their draws, as in infect's routing
        for seed in range(20):
            rng = Random(seed)
            parent = codec.generate_patient_zero(rng)
            clone = Random()
            clone.setstate(rng.getstate())
            interleaved = []
            for child in codec.replicate(parent, mode, 8, 3, rng):
                interleaved += [child, rng.random()]
            expected = []
            for _ in range(8):
                expected += [one_child(codec, parent, mode, 3, clone), clone.random()]
            assert interleaved == expected
            assert rng.getstate() == clone.getstate()


class TestBinaryCodec:
    def test_distance_is_bit_disagreement(self):
        codec = BinaryCodec(bits=10, target=15)
        assert codec.distance(0b1010, 0b0110) == 2

    def test_search_space_size(self):
        assert BinaryCodec(bits=10).search_space_size() == 1024
        assert BinaryCodec(bits=20).search_space_size() == 2**20

    def test_text_is_bit_string(self):
        assert BinaryCodec(bits=10).text(15) == "0000001111"
        assert BinaryCodec(bits=64).text(2**63) == "1" + "0" * 63

    def test_generate_uses_configured_length(self):
        g = BinaryCodec(bits=20).generate_patient_zero(Random(0))
        assert type(g) is int and 0 <= g < 2**20
        assert g == Random(0).getrandbits(20)

    def test_target_must_fit(self):
        with pytest.raises(ValueError):
            BinaryCodec(bits=8, target=256)

    def test_optimum_is_zero(self):
        assert BinaryCodec().optimum_fitness() == 0

    def test_search_builds_no_bit_genotype(self, monkeypatch):
        built = []
        original = BitGenotype.__post_init__

        def recording(self):
            built.append(int(self))
            original(self)

        monkeypatch.setattr(BitGenotype, "__post_init__", recording)
        codec = BinaryCodec(bits=20, target=15)
        best = run_pandemic(uniform(5, seed=2), codec).best.genotype
        assert built == []
        assert BitGenotype.from_string(codec.text(best)) == best and built == [best]
