"""infatom: non-negative information-atom decompositions with coverings.

Decomposes the information content of systems of discrete random
variables into non-negative atoms, each counted a known number of times
(its covering number).  Joint entropies and mutual informations become
row sums of a 0/1 parthood table over antichain-labeled terms; synergy
appears as a 2-covered atom measuring how far the system is from
behaving like plain sets, accompanied by an equal-sized 1-covered ghost
atom that cancels it from per-source informations.

Importing the package loads none of its submodules: each exported name
loads its submodule on first access (PEP 562), and is read from that
submodule on every access rather than kept here.
"""

import importlib
import sys

#: Submodule -> the names it exports at package level.
_EXPORTS = {
    "dist": (
        "DEFAULT_EPS",
        "ProbTable",
        "and_gate",
        "conditional_mi",
        "copy_gate",
        "dump_csv",
        "dump_json",
        "entropy",
        "extend_with_joint",
        "gen_gate",
        "interaction_information",
        "is_deterministic_function",
        "is_independent",
        "load_table",
        "marginalize",
        "mutual_information",
        "parity_gate",
        "random_table",
        "two_coins_copy_gate",
        "xor_gate",
    ),
    "errors": (
        "AntichainError",
        "DecompositionFormatError",
        "DuplicateOutcome",
        "GateSpecError",
        "InfatomError",
        "InfeasibleRedundancy",
        "LabelError",
        "LatticeRangeError",
        "MalformedRow",
        "NegativeAtomSize",
        "NegativeProbability",
        "NotSetTheoretic",
        "RedundancyValueError",
        "TableError",
        "TotalMassInvalid",
        "ValidationFailed",
        "VariableSetError",
        "WrongArity",
    ),
    "lattice": (
        "Antichain",
        "LatticeView",
        "bottom",
        "enumerate_antichains",
        "leq",
        "lift_map",
        "top",
    ),
    "terms": (
        "TermValue",
        "check_inclusion_exclusion3",
        "delta_H",
        "eval_term",
        "reduce_antichain",
        "redundancy_bounds",
    ),
    "decomp": (
        "Atom",
        "AtomLabel",
        "AtomSet",
        "CheckResult",
        "Decomposition",
        "ParthoodTable",
        "PidView",
        "ScanSummary",
        "ValidationReport",
        "XorUniqueness",
        "decomposition_from_json",
        "decomposition_to_json",
        "feasible_interval",
        "lift_decomposition",
        "parse_label",
        "pid_view",
        "sample_table",
        "scan_random",
        "solve_n_parity",
        "solve_set_theoretic",
        "solve_trivariate",
        "validate",
        "verify_xor_uniqueness",
    ),
}

#: Exported name -> the full name of the submodule that defines it.
_SOURCE = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name: str):
    # Nothing is stored in this module's globals, so ``infatom.X`` always
    # reads the submodule's current binding, even after it is rebound.
    # A loaded submodule is read from ``sys.modules``: going through
    # ``import_module`` again would more than double the cost of an access.
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules.get(module) or importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
