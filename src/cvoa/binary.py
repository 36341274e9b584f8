"""Fixed-length bit-string codification with the quadratic benchmark objective.

Genotypes decode big-endian to an unsigned integer x and are scored with
f(x) = (x - target)^2, so fitness 0 identifies the target exactly. The
codec's replicate operator flips single bits for ordinary moves and
max(2, ceil(n/10)) distinct bits for traveler moves.

Flip positions are uniform by default. When a `toward` value is supplied,
position choice is biased to close the bit-level gap to that value, with
the bias eased off far from it; the flip-count contract is unchanged. The
codec wires its own target in as `toward`, which is what makes default
benchmark runs converge inside the short pandemic window.

The engine hashes and compares every candidate several times per
iteration, so a genotype is a `(length, value)` tuple underneath (hashing
and ordering run in C), and replication picks flip positions from bit
masks rather than position lists, walking a mask a byte at a time to
find its k-th set bit. Ordinary moves, most of all calls, take
a one-flip path with no mask of used positions and no loop; traveler moves
loop over their flips. Position draws go through `params.randbelow`, which
makes the same draws as `Random.randrange` with fewer Python frames, so a
fixed seed still flips the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from random import Random

from .params import DistanceMode, randbelow

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


class BitGenotype(tuple):
    """Immutable bit string of fixed length: the tuple (length, value).

    Equality, hashing and ordering are the tuple's, so a genotype hashes as
    hash((length, value)), orders by length, then value, and equals the
    plain tuple (length, value). Construction validates through
    __post_init__.
    """

    __slots__ = ()

    length = property(itemgetter(0), doc="Number of bits.")
    value = property(itemgetter(1), doc="The bits as an unsigned integer, most significant first.")

    def __new__(cls, length: int, value: int) -> "BitGenotype":
        self = tuple.__new__(cls, (length, value))
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        n, v = self
        if not MIN_BITS <= n <= MAX_BITS:
            raise ValueError(f"bit length {n} outside [{MIN_BITS},{MAX_BITS}]")
        if not 0 <= v < (1 << n):
            raise ValueError(f"value {v} does not fit in {n} bits")

    def __getnewargs__(self) -> tuple[int, int]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"BitGenotype(length={self.length!r}, value={self.value!r})"

    @classmethod
    def from_string(cls, bits: str) -> "BitGenotype":
        return cls(len(bits), int(bits, 2))

    def to_string(self) -> str:
        return format(self.value, f"0{self.length}b")


def decode(g: BitGenotype) -> int:
    """Unsigned integer value of the genotype (most-significant bit first)."""
    return g.value


def quadratic_fitness(g: BitGenotype, target: int) -> int:
    # exact integer arithmetic; at n=50 the square exceeds 2^100
    d = decode(g) - target
    return d * d


def random_patient_zero(n: int, rng: Random) -> BitGenotype:
    """Fresh genotype with each bit an independent fair coin."""
    if not MIN_BITS <= n <= MAX_BITS:
        raise ValueError(f"unsupported bit length {n}, expected [{MIN_BITS},{MAX_BITS}]")
    return BitGenotype(n, rng.getrandbits(n))


def traveler_flip_count(n: int) -> int:
    return max(2, math.ceil(n / 10))


def _bias_strength(hamming: int, traveling: bool) -> float:
    if traveling:
        return _E_TRAVELER
    if hamming <= _H_NEAR:
        return _E_NEAR
    if hamming <= _H_MID:
        return _E_MID
    return _E_FAR


def replicate_bits(
    parent: BitGenotype,
    mode: DistanceMode,
    rng: Random,
    *,
    toward: int | None = None,
) -> BitGenotype:
    """Flip exactly 1 (ordinary) or k distinct (traveler) bits of parent.

    With `toward` set, each flip prefers a position where the child still
    differs from that value; without it every position choice is uniform.
    Either way the child differs from the parent in exactly the contracted
    number of positions and keeps its length.
    """
    n, child = parent
    if mode is not _TRAVELER:
        # the one-flip path: the traveler loop below run once, with nothing used yet
        if toward is not None:
            delta = child ^ toward
            h = delta.bit_count()
            if rng.random() < (_E_NEAR if h <= _H_NEAR else _E_MID if h <= _H_MID else _E_FAR):
                diff = delta & ((1 << n) - 1)
                if diff:
                    pos = _nth_set_bit(diff, randbelow(rng, diff.bit_count()))
                    return BitGenotype(n, child ^ (1 << pos))
        return BitGenotype(n, child ^ (1 << randbelow(rng, n)))
    full = (1 << n) - 1
    used = 0
    for _ in range(traveler_flip_count(n)):
        pos = None
        if toward is not None:
            delta = child ^ toward
            e = _bias_strength(delta.bit_count(), True)
            if rng.random() < e:
                diff = delta & full & ~used
                if diff:
                    pos = _nth_set_bit(diff, randbelow(rng, diff.bit_count()))
        if pos is None:
            if used:
                free = full & ~used
                pos = _nth_set_bit(free, randbelow(rng, free.bit_count()))
            else:
                pos = randbelow(rng, n)
        used |= 1 << pos
        child ^= 1 << pos
    return BitGenotype(n, child)


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


@dataclass(frozen=True)
class BinaryCodec:
    """Codec over n-bit genotypes scored by (decode(g) - target)^2."""

    bits: int = 10
    target: int = 15

    def __post_init__(self) -> None:
        if not MIN_BITS <= self.bits <= MAX_BITS:
            raise ValueError(f"unsupported bit length {self.bits}")
        if not 0 <= self.target < (1 << self.bits):
            raise ValueError(f"target {self.target} does not fit in {self.bits} bits")

    def generate_patient_zero(self, rng: Random) -> BitGenotype:
        return random_patient_zero(self.bits, rng)

    def replicate(
        self, parent: BitGenotype, mode: DistanceMode, traveler_rate: int, rng: Random
    ) -> BitGenotype:
        # traveler distance is length-derived for bit strings; the rate
        # field only parameterizes variable-length codecs
        return replicate_bits(parent, mode, rng, toward=self.target)

    def fitness(self, genotype: BitGenotype) -> int:
        # quadratic_fitness inlined: this runs once per fresh genotype
        d = genotype[1] - self.target
        return d * d

    def distance(self, a: BitGenotype, b: BitGenotype) -> int:
        return (a.value ^ b.value).bit_count()

    def search_space_size(self) -> int:
        return 1 << self.bits

    def text(self, genotype: BitGenotype) -> str:
        return genotype.to_string()

    def optimum_fitness(self) -> int:
        return 0
