"""The package namespace: names load on first use, and each entry point loads only what it needs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pgroupcert

ROOT = Path(__file__).resolve().parent.parent

# Every name the package exports; README and the demos import from here.
EXPORTED = {
    "OmegaPowerRow", "a_table", "atilde_table", "omega_power_table", "symmetrization_coefficients",
    "LambdaRow", "brute_force_lambda", "epsilon_witness", "group_order", "max_abelian_exponent",
    "max_abelian_order",
    "ProductBound", "ProductSubgroupSpec", "olshanskii_search", "product_subgroup_bound",
    "OmegaSeries", "chern_G", "direct_sum",
    "CertificationError", "ConstructionCertificate", "DeltaSolution", "DivisibilityError",
    "PreconditionError", "RootFamily", "SearchExhausted", "certify", "compute_M",
    "find_prime", "find_roots", "lambda_table", "rank_formula", "solve_deltas",
    "BudgetExceeded", "SymplecticForm", "enumerate_isotropic", "gaussian_binomial",
    "VerificationReport", "verify_document",
}


def test_all_lists_every_export_once():
    assert len(pgroupcert.__all__) == len(set(pgroupcert.__all__))
    assert set(pgroupcert.__all__) == EXPORTED


@pytest.mark.parametrize("name", sorted(EXPORTED))
def test_export_is_the_object_its_module_defines(name):
    value = getattr(pgroupcert, name)
    module = sys.modules[value.__module__]
    assert module.__name__.startswith("pgroupcert.")
    assert getattr(module, name) is value
    assert vars(pgroupcert)[name] is value  # cached: the next read skips __getattr__
    assert name in dir(pgroupcert)


# Names of the deleted bundle-descriptor layer; an OmegaSeries is the only Chern-class type.
REMOVED = ["BundleDescriptor", "chern_F", "line_power_chern", "pullback_w"]


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    from pgroupcert import series

    assert not hasattr(series, name)
    with pytest.raises(AttributeError):
        getattr(pgroupcert, name)


# Test-only API that moved to tests/group_oracle.py.
MOVED_TO_GROUP_ORACLE = ["HeisenbergElement", "enumerate_group", "gen_a", "gen_b", "gen_f", "identity"]


@pytest.mark.parametrize("name", MOVED_TO_GROUP_ORACLE)
def test_test_only_name_left_the_package(name):
    import group_oracle
    from pgroupcert import groups

    assert callable(getattr(group_oracle, name))
    assert not hasattr(groups, name)
    with pytest.raises(AttributeError):
        getattr(pgroupcert, name)


def test_star_import_and_unknown_names():
    namespace: dict = {}
    exec("from pgroupcert import *", namespace)
    assert EXPORTED <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'enumerate_subspaces'"):
        pgroupcert.enumerate_subspaces
    with pytest.raises(ImportError):
        exec("from pgroupcert import no_such_name", {})


def _loaded_after(statement: str, prefix: str = "pgroupcert") -> set[str]:
    """The modules named ``prefix``... a fresh interpreter holds after running ``statement``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = f"{statement}\nimport sys\nprint(' '.join(m for m in sys.modules if m.startswith({prefix!r})))"
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_certdoc_loads_only_what_it_needs():
    loaded = _loaded_after("import pgroupcert.certdoc")
    assert loaded == {"pgroupcert", "pgroupcert.certdoc"}


def test_verify_leaves_the_producer_out():
    loaded = _loaded_after("import pgroupcert.verify")
    assert not loaded & {"pgroupcert.solver", "pgroupcert.products", "pgroupcert.cli"}


def test_cli_loads_every_traced_module_at_start():
    # The benchmark's layer tracer patches only modules already loaded when it
    # installs, right after `import pgroupcert.cli`, so the CLI must import
    # every module it traces up front.
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import layers
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    traced = {target.module for target in layers.TARGETS}
    assert traced <= _loaded_after("import pgroupcert.cli")


def test_cli_loads_neither_dataclasses_nor_inspect():
    # Importing dataclasses pulls in inspect, ast, dis and tokenize, and each
    # @dataclass generates and execs its methods: milliseconds per CLI process.
    loaded = _loaded_after("import pgroupcert.cli", prefix="")
    assert not loaded & {"dataclasses", "inspect"}


def test_records_are_read_only():
    from pgroupcert.groups import lambda_row
    from pgroupcert.symplectic import SymplecticForm
    from pgroupcert.verify import CheckResult

    records = [
        (SymplecticForm.standard(1, 3), "matrix"),
        (lambda_row(2, 3), "bound"),
        (CheckResult("params", True), "passed"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1
