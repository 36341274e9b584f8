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

Every score enters the engine through SharedLedger.evaluate_all: first a
pandemic's patient zeros, in strain order, then once per iteration of a
strain the genotypes not scored yet, each once and in discovery order. A
codec's batch hook `fitness_all(genotypes)`, if it has one, scores each
such batch in one call (concurrently, say) and returns an iterable of one
score per genotype, in order, that raises at the first failure after the
scores before it; without the hook, `fitness` scores one at a time. Each
score must be finite; a failure, a non-finite score or a miscounted batch
is an EvaluationError, raised once the scores before it are cached.
"""

from __future__ import annotations

from random import Random
from typing import Any, NamedTuple, Protocol, runtime_checkable

from .params import DistanceMode


class EvaluationError(RuntimeError):
    """A fitness evaluation failed (crash, malformed reply, non-finite value).

    run_pandemic sets `partial` to its PandemicResult so far.
    """

    partial: Any = None


class EvaluatedIndividual(NamedTuple):
    """A genotype paired with its fitness, finite as the ledger checked it."""

    genotype: Any
    fitness: float


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
