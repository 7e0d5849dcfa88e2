"""Nullity sequences, kernels, and exact counts for embedded Toeplitz
matrices over prime fields.

A Toeplitz spec of order n is the digit data (a_0..a_n down the first
row, b_1..b_n down the first column) of an (n+1) x (n+1) matrix over
GF(q).  Extending a spec by one digit pair embeds the old matrix in the
new one twice, so each spec carries a whole nullity string.  This
package computes those strings and kernels exactly, predicts counts by
nullity through a small transition-weight model, and can cross-validate
every prediction against exhaustive enumeration.
"""

__version__ = "0.1.0"

from .field import (
    DEFAULT_MAX_Q,
    PrimeField,
    is_prime,
)
from .toeplitz import (
    ToeplitzSpec,
    canonical_vectors,
    extend,
    kernel_basis,
    nullity_string,
    rank_nullity,
    truncate,
)
from .kernel_structure import (
    PreconditionError,
    check_ascent_span,
    check_descent_interior_zeros,
    check_plateau_shift,
    check_single_generator_ends,
    iter_valid_strings,
    shift_omega,
    shift_sigma,
    validate_nullity_string,
    validate_nullity_string_by_patterns,
)
from .counting import (
    CountTable,
    PairState,
    RuleClass,
    closed_eta,
    closed_theta,
    count_string,
    count_table,
    invertible_formula,
    iter_positive_strings,
    nullity1_structured_count,
    nullity_count_closed,
    positive_excursion_count,
    positive_string_counts,
    rank_spectrum,
    state_distribution,
    theta_eta,
    transition_weights,
)
from .enumeration import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    Check,
    Counterexample,
    RankCrossCheckError,
    Report,
    XorShift64,
    brute_force_strings,
    brute_force_table,
    extension_census,
    sample_census,
    spec_index,
    verify_exhaustive,
)

__all__ = [
    "__version__",
    # field
    "DEFAULT_MAX_Q", "PrimeField", "is_prime",
    # toeplitz
    "ToeplitzSpec", "canonical_vectors", "extend", "kernel_basis",
    "nullity_string", "rank_nullity", "truncate",
    # kernel structure
    "PreconditionError", "check_ascent_span", "check_descent_interior_zeros",
    "check_plateau_shift", "check_single_generator_ends", "iter_valid_strings",
    "shift_omega", "shift_sigma", "validate_nullity_string",
    "validate_nullity_string_by_patterns",
    # counting
    "CountTable", "PairState", "RuleClass", "closed_eta", "closed_theta",
    "count_string", "count_table", "invertible_formula", "iter_positive_strings",
    "nullity1_structured_count", "nullity_count_closed", "positive_excursion_count",
    "positive_string_counts", "rank_spectrum", "state_distribution", "theta_eta",
    "transition_weights",
    # enumeration
    "DEFAULT_BUDGET", "BudgetExceededError", "Check", "Counterexample",
    "RankCrossCheckError", "Report", "XorShift64", "brute_force_strings",
    "brute_force_table", "extension_census", "sample_census", "spec_index",
    "verify_exhaustive",
]
