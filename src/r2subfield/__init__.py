"""Binary subfield codes of linear codes over F2[x]/(x^3 - x).

The construction takes three simplicial complexes on {1, ..., m} (each
optionally complemented, or the whole product globally complemented), forms
the defining set D inside R^m for the eight-element ring R, and studies the
binary code whose coordinates are trace values across D.  The package
computes exact weight distributions by enumeration, instantiates the
closed-form predicted tables for the nine defining-set families, and checks
Griesmer optimality, minimality, and self-orthogonality.
"""

from .algebra import f2_gram_is_zero
from .analysis import (
    ashikhmin_barg_minimal,
    code_report,
    distance_optimal_by_griesmer,
    griesmer_sum,
    is_griesmer_code,
    optimality_condition,
    predicted_parameters,
    predicted_weight_table,
    run_sweep,
    self_orth_mod4,
    spec_for_family,
    spectral_minimality,
    spectral_self_orthogonality,
    table10_conditions,
)
from .codegen import (
    CodeSummary,
    DefiningSetSpec,
    DegenerateConfigurationError,
    InvariantError,
    min_distance,
)
from .simplicial import ComplexSpec, Subset, char_sum, complex_size, enumerate_members, subset

__version__ = "0.1.0"
