"""The package's public names and the direction of its internal imports."""

import ast
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
    "expected_counts",
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
    assert len(PUBLIC_NAMES) == 41
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


def _imports_oracle(source: str) -> bool:
    """True if any import statement, at any depth, names a module ``oracle``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            parts = [part for alias in node.names for part in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".") + [alias.name for alias in node.names]
        else:
            continue
        if "oracle" in parts:
            return True
    return False


@pytest.mark.parametrize("module", ["schemes", "network", "fisher", "estimators"])
def test_core_modules_do_not_import_the_oracle(module):
    assert not _imports_oracle((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


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
    assert _imports_oracle(source)


def test_the_import_scan_passes_other_imports():
    assert not _imports_oracle("from .schemes import BELL_LABELS\nimport numpy as np\n")
