"""splitmw: an exact-arithmetic matroid toolkit.

Computes Tutte polynomials by two independent engines, enumerates cyclic
flats, recognizes split matroids, decides the three Merino-Welsh
inequalities, and emits machine-checked certificate trees showing that
concrete split matroids satisfy the multiplicative inequality.

Importing the package loads no submodule: every public name is imported
from its submodule on first use (PEP 562), so a CLI verb starts with only
the code it runs.
"""

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "errors": ("ClassificationFailureError", "ColoopsPresentError",
               "EmptyBasesError", "ExchangeViolationError", "InputError",
               "LimitExceededError", "LoopsPresentError", "NotCleanInputError",
               "NotSplitError", "SplitMWError", "WrongBasisSizeError"),
    "matroid": ("Matroid", "from_bases", "graphic", "matroid_from_dict",
                "minimal", "rank2_from_partition", "recognize_minimal",
                "uniform"),
    "flats": ("CyclicFlatReport", "cyclic_flats", "is_connected_split",
              "is_copaving", "is_paving", "is_split"),
    "graphs": ("Multigraph", "count_acyclic_orientations",
               "count_spanning_trees", "count_totally_cyclic_orientations",
               "multigraph_from_dict"),
    "merino_welsh": ("MWReport", "Rank2Census", "check_mw",
                     "rank2_census_partitions", "rank2_threshold_check",
                     "verify_rank2_exhaustive"),
    "prooftrace": ("ProofNode", "ProofTrace", "to_dot", "trace"),
    "tutte": ("TuttePolynomial", "TutteMemo", "tutte_dc", "tutte_from_dict",
              "tutte_subset_sum"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
