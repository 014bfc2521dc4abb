"""The package's public names and the direction of its internal imports."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


# The scheme table, the network model and the command line are plain Python;
# sampling and everything array-valued live in the modules that import them.
@pytest.mark.parametrize("module", ["schemes", "network", "cli"])
def test_table_network_and_cli_do_not_import_numpy(module):
    assert not _imports(_source(module), "numpy")


def test_the_cli_imports_the_sampler_and_the_checks_only_in_their_commands():
    source = _source("cli")
    top = "\n".join(
        ast.unparse(node)
        for node in ast.parse(source).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )
    for layer in ("estimators", "validation"):
        assert _imports(source, layer) and not _imports(top, layer)


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


# A record's fields come from its constructor's code object, not from
# signature inspection or generated source.
@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_module_inspects_or_runs_generated_source(module):
    source = _source(module)
    assert not _imports(source, "inspect")
    assert not {"exec", "eval"} & {
        node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)
    }


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


# Werner states, Bell vectors and the Pauli fixups I, Z, X and XZ are real, so
# the oracle's tables, path constructions and returned states are real.
# DensityMatrix keeps the dtype it is given and names no complex dtype either.
_COMPLEX_NAMES = {"complex", "complex64", "complex128", "complexfloating", "cdouble", "csingle"}


def _complex_uses(source: str) -> list:
    """Every complex dtype name and imaginary literal in ``source``."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id in _COMPLEX_NAMES:
                found.append(child.id)
            elif isinstance(child, ast.Attribute) and child.attr in _COMPLEX_NAMES:
                found.append(child.attr)
            elif isinstance(child, ast.alias) and child.name.split(".")[-1] in _COMPLEX_NAMES:
                found.append(child.name)
            elif isinstance(child, ast.Constant) and (
                isinstance(child.value, complex) or child.value in _COMPLEX_NAMES
            ):
                found.append(repr(child.value))
            visit(child)

    visit(ast.parse(source))
    return found


def test_the_oracle_computes_in_real_arithmetic():
    assert _complex_uses(_source("oracle")) == []


@pytest.mark.parametrize(
    "source",
    [
        "np.eye(4, dtype=complex)",
        "a.astype(np.complex128)",
        "np.zeros(2, 'complex128')",
        "x = 1j",
        "x = a + 0.5j * b",
        "from numpy import complex128",
        "def f(m):\n    return np.array(m, dtype=complex)\n",
        "class Other:\n    def f(self):\n        return complex(self.x)\n",
        "class DensityMatrix:\n    def f(self):\n        return np.array(self.matrix, dtype=complex)\n",
    ],
)
def test_the_complex_scan_sees_complex_arithmetic(source):
    assert _complex_uses(source)


def test_the_complex_scan_passes_real_code():
    source = (
        "class DensityMatrix:\n"
        "    def f(self):\n"
        "        m = np.asarray(self.matrix)\n"
        "        return m.astype(np.result_type(m, np.float64)).conj()\n"
        "m = np.eye(4) / 4.0\nm.real\nnp.trace(m).imag\n"
    )
    assert _complex_uses(source) == []


@pytest.mark.parametrize("w", [0.5, np.array([0.0, 0.5, 1.0])])
def test_public_oracle_states_are_real_and_complex_input_stays_complex(w):
    assert qnetomo.werner_density(w).matrix.dtype == np.float64
    for links in ([w], [w, w], [w, w, w]):
        state = qnetomo.linear_generation(links).matrix
        assert state.dtype == np.float64
        assert qnetomo.DensityMatrix(state.astype(np.complex128)).matrix.dtype == np.complex128
    assert qnetomo.DensityMatrix(np.eye(4, dtype=np.complex64) / 4).matrix.dtype == np.complex128


# A matrix's bounds are taken when it is built: crb_diagonal and qcrb only
# divide them by the scale and add them up.
class _NoLinearAlgebra:
    def __getattr__(self, name):
        raise AssertionError(f"linear algebra ({name}) after the matrix was built")


def test_bounds_only_scale_and_sum(monkeypatch):
    graph = qnetomo.build_star(3, [0.5, 0.5, 0.5])
    plans = [qnetomo.builtin_plan(kind, graph) for kind in ("JBM2", "JBM3", "HYB2", "HYB3")]
    # A link at 0 makes singular members, a link at 1 known coordinates.
    params = {"e0": np.array([0.0, 0.5, 1.0]), "e1": 0.5, "e2": np.array([0.3, 1.0, 0.9])}
    closed = qnetomo.FisherMode.CLOSED_FORM
    matrices = [
        qnetomo.plan_qfim(plans, params, closed),
        qnetomo.FisherMatrix(np.array([[math.inf, 0.0], [0.0, 2.0]]), ("a", "b"), closed),
        qnetomo.FisherMatrix(np.ones((2, 2)), ("a", "b"), closed),
    ]
    monkeypatch.setattr(np, "linalg", _NoLinearAlgebra())
    for matrix in matrices:
        unit = qnetomo.crb_diagonal(matrix)
        for scale in (0.25, 3.0, 20000.0):
            scaled = qnetomo.crb_diagonal(matrix, scale)
            for lid in matrix.order:
                assert np.asarray(scaled[lid]).tobytes() == np.asarray(unit[lid] / scale).tobytes()
        assert np.asarray(qnetomo.qcrb(matrix)).tobytes() == np.asarray(sum(unit.values())).tobytes()


# Each tolerance decision has one home.  The outcome-law rule is
# schemes._require_law: every other module that checks a law calls it.  A
# Fisher matrix's PSD and singularity decisions are made as it is built.
_TOLERANCE_HOMES = {
    "PROB_ATOL": ("schemes", "_require_law"),
    "PSD_ATOL": ("fisher", "FisherMatrix.__post_init__"),
    "SINGULAR_RTOL": ("fisher", "FisherMatrix.__post_init__"),
}


def _tolerance_compares(source: str, name: str) -> list:
    """The dotted scope (class and function names) of every comparison that reads ``name``."""
    scopes = []

    def reads(node):
        return any(
            (isinstance(n, ast.Name) and n.id == name)
            or (isinstance(n, ast.Attribute) and n.attr == name)
            for n in ast.walk(node)
        )

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Compare) and reads(child):
                scopes.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return scopes


@pytest.mark.parametrize("name", sorted(_TOLERANCE_HOMES))
@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_each_tolerance_is_compared_only_in_its_home(module, name):
    home_module, home = _TOLERANCE_HOMES[name]
    expected = {home} if module == home_module else set()
    assert set(_tolerance_compares(_source(module), name)) == expected


@pytest.mark.parametrize(
    "source, scopes",
    [
        ("if p < -PROB_ATOL:\n    pass\n", [""]),
        ("ok = abs(sum(ps) - 1.0) <= schemes.PROB_ATOL", [""]),
        ("bad = (np.abs(total - 1.0) > PROB_ATOL).any()", [""]),
        ("def f(p):\n    return -PROB_ATOL <= p <= 1.0\n", ["f"]),
        (
            "class Law:\n    def ok(self, p):\n        return all(q >= -PROB_ATOL for q in p)\n",
            ["Law.ok"],
        ),
        ("def f(ws):\n    def g(w):\n        return [w < PROB_ATOL, w > PROB_ATOL]\n", ["f.g"] * 2),
    ],
)
def test_the_tolerance_scan_sees_each_comparison_in_its_scope(source, scopes):
    assert _tolerance_compares(source, "PROB_ATOL") == scopes
    renamed = source.replace("PROB_ATOL", "SINGULAR_RTOL")
    assert _tolerance_compares(renamed, "SINGULAR_RTOL") == scopes
    assert _tolerance_compares(renamed, "PROB_ATOL") == []


def test_the_tolerance_scan_passes_other_uses():
    source = "from .schemes import PROB_ATOL\natol = 2 * PROB_ATOL\nok = p < ATOL\n"
    assert _tolerance_compares(source, "PROB_ATOL") == []
