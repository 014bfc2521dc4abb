"""The package's public names and the direction of its internal imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qnetomo

PUBLIC_NAMES = [
    "BELL_LABELS",
    "BUILTIN_PLAN_KINDS",
    "BenchmarkRow",
    "DensityMatrix",
    "FisherMatrix",
    "FisherMode",
    "LinkEstimates",
    "MeasurementTask",
    "MonitoringPlan",
    "NetworkGraph",
    "OutcomeCounts",
    "OutcomeDistribution",
    "Path",
    "Scheme",
    "UsageLedger",
    "WernerLink",
    "ZZ_LABELS",
    "benchmark_variance",
    "build_star",
    "builtin_plan",
    "channel_uses",
    "crb_diagonal",
    "crossover",
    "derive_seed",
    "jbm_oracle_probabilities",
    "linear_generation",
    "lzm_oracle_probabilities",
    "pem_oracle_probabilities",
    "plan_qfim",
    "qcrb",
    "sample_outcomes",
    "scheme_distribution",
    "single_link_fisher",
    "single_link_qcrb",
    "solve_plan",
    "task_distribution",
    "task_qfim",
    "trace_path",
    "validate_plan",
    "werner_density",
]

PACKAGE = Path(qnetomo.__file__).parent


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 40
    assert sorted(qnetomo.__all__) == PUBLIC_NAMES


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from qnetomo import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(qnetomo, name)


def test_labels_live_with_the_scheme_table():
    from qnetomo import oracle, schemes

    assert oracle.BELL_LABELS is schemes.BELL_LABELS is qnetomo.BELL_LABELS
    assert oracle.ZZ_LABELS is schemes.ZZ_LABELS is qnetomo.ZZ_LABELS


def _imports(source: str, module: str) -> bool:
    """True if any import statement, at any depth, names ``module``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            parts = [part for alias in node.names for part in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".") + [alias.name for alias in node.names]
        else:
            continue
        if module in parts:
            return True
    return False


def _source(module: str) -> str:
    return (PACKAGE / f"{module}.py").read_text(encoding="utf-8")


@pytest.mark.parametrize("module", ["schemes", "network", "fisher", "estimators"])
def test_core_modules_do_not_import_the_oracle(module):
    assert not _imports(_source(module), "oracle")


# The scheme table and the network model are plain Python; sampling and
# everything array-valued live in the modules that import them.
@pytest.mark.parametrize("module", ["schemes", "network"])
def test_table_and_network_do_not_import_numpy(module):
    assert not _imports(_source(module), "numpy")


def test_the_sampler_lives_in_the_estimators():
    from qnetomo import estimators, schemes

    for name in ("OutcomeCounts", "derive_seed", "sample_outcomes"):
        assert getattr(qnetomo, name) is getattr(estimators, name)
    moved = [
        "OutcomeCounts", "derive_seed", "sample_outcomes", "_mix", "_seed_sequence_state",
        "_uint64_words", "_stream_seeds", "_pcg64_seed_words", "_seed_words_type",
        "_sample_rounds", "_INIT_A", "np",
    ]
    assert [name for name in moved if hasattr(schemes, name)] == []


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "cli")
)
def test_only_the_cli_imports_validation(module):
    assert not _imports(_source(module), "validation")


def test_the_cli_reaches_the_oracle_only_through_validation():
    assert not _imports(_source("cli"), "oracle")
    assert _imports(_source("cli"), "validation")


# The value classes are plain classes: a dataclass builds its methods with
# exec at import, 7-9 ms of every fresh command.
@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_module_imports_dataclasses(module):
    assert not _imports(_source(module), "dataclasses")


def test_importing_the_cli_loads_every_layer_but_not_the_checks():
    # perfbench finds each layer in sys.modules right after this import.
    code = (
        "import sys, qnetomo.cli\n"
        "print(' '.join(sorted(n for n in sys.modules if n.startswith('qnetomo.'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=60,
    )
    loaded = result.stdout.split()
    for layer in ("schemes", "network", "fisher", "estimators", "oracle", "cli"):
        assert f"qnetomo.{layer}" in loaded
    assert "qnetomo.validation" not in loaded


@pytest.mark.parametrize(
    "source",
    [
        "from .oracle import BELL_LABELS",
        "from . import oracle",
        "from qnetomo.oracle import BELL_LABELS",
        "import qnetomo.oracle",
        "def f():\n    from .oracle import _werner\n",
    ],
)
def test_the_import_scan_sees_an_oracle_import(source):
    assert _imports(source, "oracle")


def test_the_import_scan_passes_other_imports():
    assert not _imports("from .schemes import BELL_LABELS\nimport numpy as np\n", "oracle")


# The oracle's products stay elementwise: a gather of the non-zero Bell terms
# and ufunc products and sums over it.  einsum(optimize=True), tensordot, dot,
# matmul and @ send small products into OpenBLAS.  Measured under perfbench,
# which pins its process to one core, the BLAS worker threads then compete for
# that core: warm `validate` read 0.034-0.042 s instead of 0.0135 s for the
# pairwise einsums the sparse terms replaced, and 0.0115 s with
# OPENBLAS_NUM_THREADS=1.
_BLAS_NAMES = {"tensordot", "dot", "matmul"}


def _blas_uses(source: str) -> list:
    """Every ``optimize=`` keyword, BLAS product name and ``@`` in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.keyword) and node.arg == "optimize":
            found.append("optimize=")
        elif isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES:
            found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id in _BLAS_NAMES:
            found.append(node.id)
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] in _BLAS_NAMES:
            found.append(node.name)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append("@")
    return found


def test_the_oracle_stays_off_blas():
    assert _blas_uses(_source("oracle")) == []


@pytest.mark.parametrize(
    "source",
    [
        "np.einsum('ij,jk', a, b, optimize=True)",
        "np.tensordot(a, b, 2)",
        "a.dot(b)",
        "np.matmul(a, b)",
        "a @ b",
        "a @= b",
        "from numpy import dot",
    ],
)
def test_the_blas_scan_sees_a_blas_product(source):
    assert _blas_uses(source)


def test_the_blas_scan_passes_einsum_and_ufuncs():
    assert _blas_uses("np.einsum('ij,jk->ik', a, b)\nc = a * b\nnp.linalg.eigvalsh(c)") == []


# Every PSD and singularity decision of a Fisher matrix is made once, as it
# is built; the bound computations only invert.
def _eigvalsh_homes(source: str) -> list:
    """The dotted scope (class and function names) of each ``eigvalsh`` use."""
    homes = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (
                (isinstance(child, ast.Attribute) and child.attr == "eigvalsh")
                or (isinstance(child, ast.Name) and child.id == "eigvalsh")
                or (isinstance(child, ast.alias) and child.name.split(".")[-1] == "eigvalsh")
            ):
                homes.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return homes


def test_fisher_calls_eigvalsh_only_when_a_matrix_is_built():
    assert _eigvalsh_homes(_source("fisher")) == ["FisherMatrix.__post_init__"]


@pytest.mark.parametrize(
    "source, homes",
    [
        ("np.linalg.eigvalsh(a)", [""]),
        ("def crb_diagonal(m):\n    return np.linalg.eigvalsh(m)\n", ["crb_diagonal"]),
        ("class A:\n    def f(self):\n        eigvalsh(self)\n", ["A.f"]),
        ("def f():\n    from numpy.linalg import eigvalsh\n", ["f"]),
        ("np.linalg.eigvals(a)\nnp.linalg.inv(a)", []),
    ],
)
def test_the_eigvalsh_scan_sees_each_use_in_its_scope(source, homes):
    assert _eigvalsh_homes(source) == homes
