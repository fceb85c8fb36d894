"""Exact certificates for finite Heisenberg-group bundle constructions.

The library computes, in exact rational arithmetic, the Chern-class
cancellation data behind effective p-group actions on trivial bundles
over even tori, the sharp abelian-subgroup bounds of the Heisenberg
groups involved, and product-subgroup constructions glued along families
of symplectic forms over F_p.  Every result can be serialized as a
re-checkable JSON certificate.

The names below are loaded on first use (PEP 562): ``import
pgroupcert.certdoc`` loads only the modules certdoc needs, and
``from pgroupcert import certify`` loads the solver and what it imports.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULE_EXPORTS = {
    "exterior": (
        "OmegaPowerRow",
        "a_table",
        "atilde_table",
        "omega_power_table",
        "symmetrization_coefficients",
    ),
    "groups": (
        "LambdaRow",
        "brute_force_lambda",
        "epsilon_witness",
        "group_order",
        "max_abelian_exponent",
        "max_abelian_order",
    ),
    "products": (
        "ProductBound",
        "ProductSubgroupSpec",
        "olshanskii_search",
        "product_subgroup_bound",
    ),
    "series": ("OmegaSeries", "chern_G", "direct_sum"),
    "solver": (
        "CertificationError",
        "ConstructionCertificate",
        "DeltaSolution",
        "DivisibilityError",
        "PreconditionError",
        "RootFamily",
        "SearchExhausted",
        "certify",
        "compute_M",
        "find_prime",
        "find_roots",
        "lambda_table",
        "rank_formula",
        "solve_deltas",
    ),
    "symplectic": (
        "BudgetExceeded",
        "SymplecticForm",
        "enumerate_isotropic",
        "gaussian_binomial",
    ),
    "verify": ("VerificationReport", "verify_document"),
}

#: Exported name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
