"""Codec contract shared by all solution codifications.

A codec owns the genotype representation: how patient zeros are drawn, how
an infected individual replicates into a mutated child, and how fitness is
computed. Genotypes must be immutable, hashable and equality-comparable;
they need no order, because the engine keeps its populations in the order
it discovers them, and a fixed seed reproduces that order. The engine
hashes and compares every candidate several times per iteration (ledger
lookups), so genotypes should do both cheaply. Both codecs' genotypes
are builtin-backed and do both in C: the binary codec's are plain `int`s,
their length kept by the codec, and the nn codec's are named tuples.

A codec may also offer a batch hook, `fitness_all(genotypes)`. The engine
calls it once with all of a pandemic's patient zeros, in strain order, and
then once per iteration of a strain, with the genotypes it has not scored
yet, each once and in discovery order; it
caches the scores the hook returns and never asks for them again. The
hook may score them together (concurrently, say); it returns an iterable
of the scores in the same order, and iterating it raises at the first
failure in that order, after the scores before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Any, Protocol, runtime_checkable

from .params import DistanceMode


class EvaluationError(RuntimeError):
    """A fitness evaluation failed (crash, malformed reply, non-finite value).

    Carries whatever partial results the caller attached before aborting.
    """

    def __init__(self, message: str, *, partial: Any = None) -> None:
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class EvaluatedIndividual:
    """A genotype paired with its (finite) fitness."""

    genotype: Any
    fitness: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.fitness):
            raise EvaluationError(f"non-finite fitness {self.fitness!r} for {self.genotype!r}")


@runtime_checkable
class Codec(Protocol):
    def generate_patient_zero(self, rng: Random) -> Any:
        ...

    def replicate(self, parent: Any, mode: DistanceMode, traveler_rate: int, rng: Random) -> Any:
        ...

    def fitness(self, genotype: Any) -> float:
        ...

    def distance(self, a: Any, b: Any) -> int:
        """Hamming-style distance used to spread patient zeros apart."""
        ...

    def search_space_size(self) -> int:
        """Cardinality of the genotype space (for evaluated-fraction stats)."""
        ...

    def text(self, genotype: Any) -> str:
        """Human-readable genotype form used in logs and result files."""
        ...
