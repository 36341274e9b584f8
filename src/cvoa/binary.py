"""Fixed-length bit-string codification with the quadratic benchmark objective.

A genotype is the unsigned integer x that an n-bit string spells, most
significant bit first, scored with f(x) = (x - target)^2, so fitness 0
identifies the target exactly. The codec's replicate operator flips single
bits for ordinary moves and max(2, ceil(n/10)) distinct bits for traveler
moves.

Flip positions are uniform by default. When a `toward` value is supplied,
position choice is biased to close the bit-level gap to that value, with
the bias eased off far from it; the flip-count contract is unchanged. The
codec wires its own target in as `toward`, which is what makes default
benchmark runs converge inside the short pandemic window.

Genotypes are plain `int`s in [0, 2**n), not (length, value) pairs: every
genotype of one codec has the same length, so the codec owns it, and the
engine hashes and compares every candidate in C.

The codec breeds a spreader's whole brood in one call: `bit_brood` yields
the children one at a time, drawing each only when the caller asks for
it, and computes once per brood what its children share (the parent's
gap to `toward` and its bias strength, the stream's bound `random`, the
traveler flip count). Flip positions come from bit masks rather than
position lists, walking a mask a byte at a time to find its k-th set
bit. Ordinary moves, most children, take a one-flip path with no mask of
used positions; traveler moves loop over their flips. The two paths stay
apart because each merge measured kept every draw but cost more per
evaluation: one loop for both moves ran 13% more bytecodes, and a
per-brood mask for each child's first flip 4% more. Every position is
drawn by `params.randbelow`, which draws exactly as `Random.randrange`
does, so a fixed seed still flips the same bits.
"""

from __future__ import annotations

import math
from random import Random
from typing import Iterator, NamedTuple

from .params import DistanceMode, Validated, is_integer, randbelow

MIN_BITS = 8
MAX_BITS = 64

# bias schedule: (near, mid, far, traveler) selection pressure by distance
_E_FAR = 0.7
_E_MID = 0.85
_E_NEAR = 1.0
_E_TRAVELER = 0.9
_H_MID = 6
_H_NEAR = 2

_TRAVELER = DistanceMode.TRAVELER


class BitGenotype(int):
    """A bit string parsed from text: its value as an `int`, plus `length`.

    It equals, hashes and orders as its value. Construction validates
    through __post_init__. Only text parsing builds one; the engine and the
    codec work on plain `int`s.
    """

    def __new__(cls, length: int, value: int) -> "BitGenotype":
        self = int.__new__(cls, value)
        self.length = length
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        if not MIN_BITS <= self.length <= MAX_BITS:
            raise ValueError(f"bit length {self.length} outside [{MIN_BITS},{MAX_BITS}]")
        if not 0 <= self < (1 << self.length):
            raise ValueError(f"value {int(self)} does not fit in {self.length} bits")

    @classmethod
    def from_string(cls, bits: str) -> "BitGenotype":
        return cls(len(bits), int(bits, 2))


def traveler_flip_count(n: int) -> int:
    return max(2, math.ceil(n / 10))


def _bias_strength(hamming: int) -> float:
    if hamming <= _H_NEAR:
        return _E_NEAR
    if hamming <= _H_MID:
        return _E_MID
    return _E_FAR


def bit_brood(
    parent: int,
    n: int,
    mode: DistanceMode,
    count: int,
    rng: Random,
    *,
    toward: int | None = None,
) -> Iterator[int]:
    """The `count` children of parent, each flipping exactly 1 (ordinary)
    or k distinct (traveler) of its n bits, drawn lazily: each child's
    draws are made only when the iterator is asked for it.

    With `toward` set, each flip prefers a position where the child still
    differs from that value; without it every position choice is uniform.
    Either way each child differs from the parent in exactly the
    contracted number of positions, all below bit n. An ordinary child's
    bias depends on the parent alone, so it is computed once per brood; a
    traveler flip's bias is the constant _E_TRAVELER.
    """
    if n < 1:
        raise ValueError(f"bit length must be positive, got {n}")
    random = rng.random
    full = (1 << n) - 1
    if mode is _TRAVELER:
        flips = traveler_flip_count(n)
        if flips > n:
            raise ValueError(f"a traveler flips {flips} distinct bits, more than n={n}")
        for _ in range(count):
            child = parent
            free = full
            for _ in range(flips):
                # a guided flip prefers a free position where the child still
                # differs from toward, and falls back to any free one
                mask = free
                if toward is not None and random() < _E_TRAVELER:
                    mask = ((child ^ toward) & free) or free
                bit = 1 << _nth_set_bit(mask, randbelow(rng, mask.bit_count()))
                free ^= bit
                child ^= bit
            yield child
        return
    # ordinary: one flip from the whole length; the bias depends on the parent alone
    e, diff = 0.0, 0
    if toward is not None:
        delta = parent ^ toward
        e = _bias_strength(delta.bit_count())
        diff = delta & full
    k = diff.bit_count()
    for _ in range(count):
        if toward is not None and random() < e and diff:
            yield parent ^ (1 << _nth_set_bit(diff, randbelow(rng, k)))
        else:
            yield parent ^ (1 << randbelow(rng, n))


# _BYTE_SET_BITS[b]: positions of the set bits of byte value b, lowest first;
# each entry is the lowest set bit of b followed by the entry for b without it
_BYTE_SET_BITS: list[tuple[int, ...]] = [()]
for _b in range(1, 256):
    _BYTE_SET_BITS.append(((_b & -_b).bit_length() - 1,) + _BYTE_SET_BITS[_b & (_b - 1)])
del _b


def _nth_set_bit(mask: int, index: int) -> int:
    """Position of the index-th set bit of mask, counting from bit 0 up.

    Walks the mask a byte at a time against a table of set-bit positions.
    """
    shift = 0
    while mask:
        positions = _BYTE_SET_BITS[mask & 255]
        if index < len(positions):
            return shift + positions[index]
        index -= len(positions)
        mask >>= 8
        shift += 8
    raise ValueError("index is not below the number of set bits")


class _BinaryCodecFields(NamedTuple):
    bits: int = 10
    target: int = 15


class BinaryCodec(Validated, _BinaryCodecFields):
    """Codec over n-bit genotypes, plain `int`s in [0, 2**bits), scored by
    (g - target)^2."""

    __slots__ = ()

    def __post_init__(self) -> None:
        for name, value in zip(self._fields, self):
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not MIN_BITS <= self.bits <= MAX_BITS:
            raise ValueError(f"unsupported bit length {self.bits}")
        if not 0 <= self.target < (1 << self.bits):
            raise ValueError(f"target {self.target} does not fit in {self.bits} bits")

    def generate_patient_zero(self, rng: Random) -> int:
        # each bit an independent fair coin
        return rng.getrandbits(self.bits)

    def replicate(
        self, parent: int, mode: DistanceMode, count: int, traveler_rate: int, rng: Random
    ) -> Iterator[int]:
        # traveler distance is length-derived for bit strings; the rate
        # field only parameterizes variable-length codecs
        return bit_brood(parent, self.bits, mode, count, rng, toward=self.target)

    def fitness(self, genotype: int) -> int:
        # exact integer arithmetic: at 50 bits the square exceeds 2^96
        d = genotype - self.target
        return d * d

    def distance(self, a: int, b: int) -> int:
        return (a ^ b).bit_count()

    def search_space_size(self) -> int:
        return 1 << self.bits

    def text(self, genotype: int) -> str:
        return format(genotype, f"0{self.bits}b")

    def optimum_fitness(self) -> int:
        return 0
