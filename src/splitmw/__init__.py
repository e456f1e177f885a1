"""splitmw: an exact-arithmetic matroid toolkit.

Computes Tutte polynomials by two independent engines, enumerates cyclic
flats, recognizes split matroids, decides the three Merino-Welsh
inequalities, and emits machine-checked certificate trees showing that
concrete split matroids satisfy the multiplicative inequality.
"""

from .errors import (
    ClassificationFailureError,
    ColoopsPresentError,
    EmptyBasesError,
    ExchangeViolationError,
    ExhaustivenessFailureError,
    InputError,
    LimitExceededError,
    LoopsPresentError,
    NotCleanInputError,
    NotSplitError,
    SplitMWError,
    WrongBasisSizeError,
)
from .flats import (
    CyclicFlatReport,
    cyclic_flats,
    flats,
    is_connected_split,
    is_copaving,
    is_paving,
    is_split,
)
from .graphs import (
    Multigraph,
    count_acyclic_orientations,
    count_spanning_trees,
    count_totally_cyclic_orientations,
    multigraph_from_dict,
)
from .isomorphism import (
    are_isomorphic,
    certificate,
    certificates_match,
    is_minimal_matroid,
    recognize_minimal,
)
from .matroid import (
    Matroid,
    from_bases,
    graphic,
    matroid_from_dict,
    minimal,
    rank2_from_partition,
    uniform,
)
from .merino_welsh import (
    MinimalFamilySummary,
    MWReport,
    Rank2Census,
    check_mw,
    minimal_family_suite,
    rank2_census_partitions,
    rank2_threshold_check,
    verify_rank2_exhaustive,
)
from .prooftrace import (
    BaseCaseClassification,
    ProofNode,
    ProofTrace,
    classify_base_case,
    no_clean_pivot,
    to_dot,
    trace,
)
from .tutte import (
    TuttePolynomial,
    TutteMemo,
    set_memo_capacity,
    tutte_dc,
    tutte_from_dict,
    tutte_subset_sum,
)

__version__ = "0.1.0"
