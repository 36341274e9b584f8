"""Epidemic-propagation metaheuristic with pluggable solution codecs.

The search mimics a disease outbreak: infected individuals replicate into
mutated candidates, some die, some isolate, some recover and may be
reinfected, and the best individual ever evaluated is the answer. Several
strains can advance in lockstep against a shared ledger of dead and
recovered genotypes.
"""

from .binary import (
    BinaryCodec,
    BitGenotype,
    quadratic_fitness,
    random_patient_zero,
    replicate_bits,
    traveler_flip_count,
)
from .codec import Codec, EvaluatedIndividual, EvaluationError
from .engine import (
    Disposition,
    IterationRecord,
    PopulationLedger,
    SharedLedger,
    StrainResult,
    Termination,
    die,
    infect,
    new_infection,
    run_strain,
    select_best,
)
from .multistrain import (
    MultiStrainConfig,
    PandemicResult,
    PzStrategy,
    run_pandemic,
    seed_patient_zeros,
)
from .nn import (
    ArchitectureSpec,
    ExternalEvaluator,
    NetCodec,
    NetGenotype,
    mutate_position,
    parse_net_text,
    replicate_net,
    resize_layers,
    surrogate_fitness,
)
from .params import (
    DistanceMode,
    EpidemicParameters,
    Objective,
    ParameterError,
    validate_parameters,
)

__version__ = "1.0.0"

# the documented API; the other names imported above stay importable
__all__ = [
    "BinaryCodec",
    "EpidemicParameters",
    "MultiStrainConfig",
    "run_pandemic",
    "run_strain",
    "__version__",
]
