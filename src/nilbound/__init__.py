"""Certified lower bounds for minimal faithful nilrepresentations of nilpotent Lie algebras."""

from nilbound.linalg import Matrix, Subspace, rref, kernel_basis, span, intersect, complement_extending
from nilbound.liealg import (
    LieAlgebra,
    Filtration,
    Representation,
    bracket,
    center,
    lower_central_series,
    default_filtration,
    admissible_p0_set,
    validate_filtration,
)
from nilbound.bounds import (
    BoundProblem,
    BoundSolution,
    is_feasible,
    solve_bruteforce,
    solve_exact,
    theorem_mainbound,
    lower_bound_report,
)
from nilbound.decomposition import (
    OperatorChain,
    Decomposition,
    AdaptedBasis,
    find_rank_vector,
    decompose,
    verify_decomposition,
    build_adapted_basis,
    verify_block_structure,
    extract_profile,
)

__version__ = "0.1.0"
