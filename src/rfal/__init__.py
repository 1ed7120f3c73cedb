"""Exact inference engine for graded if-then rules over rational truth degrees.

Provability degrees are computed through least-model fixpoints, certified by
Hilbert-style proof objects, and cross-validated against a brute-force
semantic oracle.  All arithmetic is exact rational; there is no floating
point anywhere in the inference path.
"""

from .algebra import (
    GOEDEL,
    LUKASIEWICZ,
    PRODUCT,
    Algebra,
    as_unit_degree,
    decimal_expansion,
    format_degree,
    parse_rational,
    rational_from_json,
    rational_to_json,
    residuum,
    tnorm,
)
from .engine import (
    DEFAULT_LIMITS,
    ClosureTrace,
    EngineLimits,
    UndecidedError,
    least_model,
    provability_degree,
)
from .lsets import (
    FuzzySet,
    is_contained,
    scalar_multiple,
    subsethood,
    union,
)
from .logic import (
    Evaluation,
    Implication,
    ParseError,
    Theory,
    is_model,
    parse_implication,
    parse_set,
    parse_theory,
    serialize_theory,
    truth_degree,
)
from .oracle import (
    BudgetExceededError,
    GridSpec,
    OffGridError,
    semantic_degree_grid,
)
from .proofs import (
    Proof,
    ProofBuilder,
    ProofFormatError,
    ProofStep,
    SynthesisError,
    Verdict,
    check_proof,
    synthesize_proof,
    theory_hash,
)

__version__ = "0.1.0"
