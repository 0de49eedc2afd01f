"""infatom: non-negative information-atom decompositions with coverings.

Decomposes the information content of systems of discrete random
variables into non-negative atoms, each counted a known number of times
(its covering number).  Joint entropies and mutual informations become
row sums of a 0/1 parthood table over antichain-labeled terms; synergy
appears as a 2-covered atom measuring how far the system is from
behaving like plain sets, accompanied by an equal-sized 1-covered ghost
atom that cancels it from per-source informations.
"""

from .dist import (
    DEFAULT_EPS,
    ProbTable,
    and_gate,
    conditional_mi,
    copy_gate,
    dump_csv,
    dump_json,
    entropy,
    extend_with_joint,
    gen_gate,
    interaction_information,
    is_deterministic_function,
    is_independent,
    load_table,
    marginalize,
    mutual_information,
    parity_gate,
    random_table,
    two_coins_copy_gate,
    xor_gate,
)
from .errors import (
    AntichainError,
    DecompositionFormatError,
    DuplicateOutcome,
    GateSpecError,
    InfatomError,
    InfeasibleRedundancy,
    LabelError,
    LatticeRangeError,
    MalformedRow,
    NegativeAtomSize,
    NegativeProbability,
    NotSetTheoretic,
    TableError,
    TotalMassInvalid,
    ValidationFailed,
    VariableSetError,
    WrongArity,
)
from .lattice import (
    Antichain,
    LatticeView,
    bottom,
    covering,
    enumerate_antichains,
    leq,
    lift_map,
    top,
)
from .terms import (
    TermValue,
    check_inclusion_exclusion3,
    delta_H,
    eval_term,
    reduce_antichain,
    redundancy_bounds,
)
from .decomp import (
    Atom,
    AtomLabel,
    AtomSet,
    CheckResult,
    Decomposition,
    ParthoodTable,
    PidView,
    ScanSummary,
    ValidationReport,
    XorUniqueness,
    decomposition_from_json,
    decomposition_to_json,
    feasible_interval,
    lift_decomposition,
    parse_label,
    pid_view,
    sample_table,
    scan_random,
    solve_n_parity,
    solve_set_theoretic,
    solve_trivariate,
    validate,
    verify_xor_uniqueness,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
