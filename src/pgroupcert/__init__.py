"""Exact certificates for finite Heisenberg-group bundle constructions.

The library computes, in exact rational arithmetic, the Chern-class
cancellation data behind effective p-group actions on trivial bundles
over even tori, the sharp abelian-subgroup bounds of the Heisenberg
groups involved, and product-subgroup constructions glued along families
of symplectic forms over F_p.  Every result can be serialized as a
re-checkable JSON certificate.
"""

from .exterior import (
    OmegaPowerRow,
    SymmetrizationError,
    a_table,
    atilde_table,
    omega_power_table,
    symmetrization_coefficients,
)
from .groups import (
    HeisenbergElement,
    brute_force_lambda,
    enumerate_group,
    gen_a,
    gen_b,
    gen_f,
    group_order,
    identity,
    max_abelian_exponent,
    max_abelian_order,
)
from .products import (
    ProductBound,
    ProductSubgroupSpec,
    isotropy_free_dimension,
    olshanskii_search,
    product_subgroup_bound,
)
from .series import (
    BundleDescriptor,
    OmegaSeries,
    chern_F,
    chern_G,
    direct_sum,
    line_power_chern,
    pullback_w,
    series_inverse,
    series_mul,
)
from .solver import (
    CertificationError,
    ConstructionCertificate,
    DeltaSolution,
    DivisibilityError,
    LambdaRow,
    PreconditionError,
    RootFamily,
    SearchExhausted,
    certify,
    compute_M,
    epsilon_witness,
    find_prime,
    find_roots,
    lambda_table,
    rank_formula,
    solve_deltas,
)
from .symplectic import (
    BudgetExceeded,
    Subspace,
    SymplecticForm,
    enumerate_isotropic,
    enumerate_subspaces,
    gaussian_binomial,
)
from .verify import VerificationReport, verify_document

__version__ = "0.1.0"
