"""Exact engine for generalized cluster patterns and their composite realizations."""

from .polyring import (
    ElementarySymbols,
    LaurentPolynomial,
    NotBlockSymmetricError,
    PsiDomainError,
    PsiKernelError,
    RationalFunction,
    SymbolBlock,
    VariableTable,
    block_symmetric,
    elementary_reduce,
    psi_hat,
    ratfn_eq,
)
from .semifield import (
    P0_ZERO,
    GroupRingElement,
    SemifieldElement,
    SemifieldKind,
    SemifieldMismatchError,
    project_np,
    psi,
    sf_add,
    sf_eq,
    sf_inv,
    sf_mul,
    sf_pow,
    specialize_Z,
)
from .pattern import (
    ExchangeMatrix,
    ExchangePolynomial,
    GeneralizedSeed,
    NotSkewSymmetrizableError,
    mutate_B,
    mutate_seed,
    reduced_words,
    validate_seed,
    walk,
)
from .composite import (
    Aggregates,
    CompositeSeed,
    Realization,
    aggregates,
    build_realization,
    composite_mutate,
    composite_walk,
    enlarge,
    initial_composite_seed,
    sigma_of_word,
)
from .invariants import (
    CompositeInvariants,
    GeneralizedInvariants,
    c_matrix,
    f_polynomials,
    g_matrix,
    separation_reconstruct_composite,
    separation_reconstruct_generalized,
)
from .cases import case_document, case_realization, run_table_check

__version__ = "0.1.0"
