"""Sabotage toolkit: complexity measures, adversary certificates, exact simulation.

Construct sabotage variants of small Boolean functions, compute block and
fractional block sensitivity with LP certificates, evaluate non-negative
adversary matrices, and simulate the weak/strong query procedures exactly
on dense statevectors.
"""

from .adversary import (
    AdversaryCertificate,
    AdversaryError,
    Relation,
    RelationBound,
    build_fbs_adversary,
    build_indexing_relation,
    build_sabotage_adversary,
    evaluate_certificate,
    relation_bound,
    spectral_norm,
)
from .boolfn import (
    BitString,
    BoolFnError,
    PartialFunction,
    catalog,
    load_function,
    make_indexing,
    make_named,
)
from .measures import FbsSolution, MeasureError, block_sensitivity, fbs, fbs_global
from .protocols import (
    ConvertedAlgorithm,
    IndexFinderReport,
    ProtocolError,
    convert_strong,
    find_index_amplified,
    find_index_repeat,
    grover_baseline,
    run_converted,
    sample_interrupt,
)
from .qsim import (
    Gate,
    GroverResult,
    HybridReport,
    Measurement,
    Oracle,
    QueryAlgorithm,
    RegisterLayout,
    SimTrace,
    SimulationError,
    amplitude_amplify,
    algorithm_from_json,
    algorithm_to_json,
    deutsch_parity,
    evolve,
    grover_find_mark,
    grover_or,
    hybrid_sum,
    oracle_bit,
    oracle_strong,
    oracle_weak,
    run,
)
from .sabotage import (
    HardDistribution,
    SabString,
    SabotageError,
    StrongInput,
    enumerate_sabotaged,
    eval_sab,
    hard_distribution,
    make_strong,
    sabotage_dagger,
    sabotage_star,
)

__version__ = "0.1.0"
