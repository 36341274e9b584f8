"""Epidemic-propagation metaheuristic with pluggable solution codecs.

The search mimics a disease outbreak: infected individuals replicate into
mutated candidates, some die, some isolate, some recover and may be
reinfected, and the best individual ever evaluated is the answer. Several
strains can advance in lockstep against a shared ledger of dead and
recovered genotypes.

The nn codec's names load on first use, so a binary run never imports
`cvoa.nn`.
"""

import importlib

from .binary import BinaryCodec, traveler_flip_count
from .codec import Codec, EvaluatedIndividual, EvaluationError
from .engine import (
    Disposition,
    IterationRecord,
    SharedLedger,
    StrainResult,
    Termination,
    die,
    infect,
    new_infection,
)
from .multistrain import (
    MultiStrainConfig,
    PandemicResult,
    PzStrategy,
    run_pandemic,
    run_strain,
    seed_patient_zeros,
)
from .params import DistanceMode, EpidemicParameters, Objective, ParameterError

__version__ = "1.0.0"

# re-exported from .nn, which loads when one of them is first read
_NN_NAMES = frozenset({
    "ArchitectureSpec",
    "ExternalEvaluator",
    "ExternalNetCodec",
    "NetCodec",
    "NetGenotype",
    "mutate_position",
    "parse_net_text",
    "replicate_net",
    "resize_layers",
})


def __getattr__(name: str):
    # import_module, not `from . import nn`: that form reads this attribute
    # first and would recurse
    if name == "nn" or name in _NN_NAMES:
        nn = importlib.import_module(".nn", __name__)
        return nn if name == "nn" else getattr(nn, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the documented API; the other names imported above, and the nn names,
# stay importable
__all__ = [
    "BinaryCodec",
    "EpidemicParameters",
    "MultiStrainConfig",
    "run_pandemic",
    "run_strain",
    "__version__",
]
