"""Exact density-matrix oracle for small Werner-pair networks.

Ground truth, on up to six qubits (64x64), for the analytic outcome
distributions of the three schemes and for multiplicative Werner composition
under entanglement swapping.  A Bell measurement is one einsum of the state's
qubit tensor with the constant Bell basis, giving all four unnormalised
outcome blocks <beta_k|rho|beta_k> at once, then the stacked Pauli fixups on
one retained qubit; no projector or partial trace is ever formed.  The path
constructions and the ``*_oracle_probabilities`` functions run on plain
arrays; a validated ``DensityMatrix`` is built only for a state a public
function returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .schemes import BELL_LABELS, ZZ_LABELS

ATOL_EQ = 1e-12
ATOL_PSD = 1e-10
MAX_DIM = 64

# Outcome-dependent Pauli fixup (I, Z, X, XZ) in BELL_LABELS order, applied to one
# retained qubit so every measurement branch collapses to the same swapped state.
_CORRECTIONS = np.array(
    [[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1], [1, 0]]], dtype=complex
)
# Bell vectors as [outcome, first qubit, second qubit]: |beta_k> = (1 x fixup_k)|phi+>.
_BELL = _CORRECTIONS.transpose(0, 2, 1) / np.sqrt(2.0)
_PHI_PLUS = np.outer(_BELL[0].ravel(), _BELL[0].ravel())


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix of a few qubits.

    Invariants enforced at construction: dimension a power of two up to 64,
    Hermitian and unit trace within 1e-12, smallest eigenvalue at least -1e-10.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        dim = m.shape[0]
        if not dim or dim & (dim - 1):
            raise ValueError(f"dimension {dim} is not a power of two")
        if dim > MAX_DIM:
            raise ValueError(f"dimension {dim} exceeds the cap {MAX_DIM}")
        if np.max(np.abs(m - m.conj().T)) > ATOL_EQ:
            raise ValueError("matrix is not Hermitian within tolerance")
        if abs(np.trace(m).real - 1.0) > ATOL_EQ or abs(np.trace(m).imag) > ATOL_EQ:
            raise ValueError("trace must equal 1 within tolerance")
        if np.linalg.eigvalsh(m)[0] < -ATOL_PSD:
            raise ValueError("matrix is not positive semidefinite within tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _werner(w: float) -> np.ndarray:
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w={w} outside [0, 1]")
    return w * _PHI_PLUS + (1.0 - w) * np.eye(4, dtype=complex) / 4.0


def werner_density(w: float) -> DensityMatrix:
    """Two-qubit Werner state: w times the phi+ projector plus (1-w)/4 times I."""
    return DensityMatrix(_werner(w))


def _bell_blocks(rho: np.ndarray, pair: tuple, fix: int | None = None) -> np.ndarray:
    """Unnormalised outcome blocks <beta_k|rho|beta_k>, stacked as (4, R, R).

    ``pair`` holds the positions of the two measured qubits; ``fix`` is a
    position among the retained qubits that gets outcome k's Pauli fixup.
    """
    n = rho.shape[0].bit_length() - 1
    # einsum labels: qubit q is row axis q and column axis n + q of the tensor.
    k, a, b, c, d, x, y = range(2 * n, 2 * n + 7)
    axes = list(range(2 * n))
    axes[pair[0]], axes[pair[1]], axes[n + pair[0]], axes[n + pair[1]] = a, b, c, d
    keep = [q for q in range(n) if q not in pair]
    out = [k, *keep, *(n + q for q in keep)]
    t = rho.reshape((2,) * (2 * n))
    blocks = np.einsum(_BELL.conj(), [k, a, b], t, axes, _BELL, [k, c, d], out)
    if fix is not None:
        q = keep[fix]
        fixed = [x if i == q else y if i == n + q else i for i in out]
        fixups = (_CORRECTIONS, [k, x, q], blocks, out, _CORRECTIONS.conj(), [k, y, n + q])
        blocks = np.einsum(*fixups, fixed)
    size = 2 ** len(keep)
    return blocks.reshape(4, size, size)


def _swap(rho: np.ndarray, pair: tuple, fix: int) -> np.ndarray:
    """Corrected Bell measurement with every branch merged back into one state."""
    merged = _bell_blocks(rho, pair, fix).sum(axis=0)
    return merged / np.trace(merged).real


def _bell_probabilities(rho: np.ndarray) -> dict:
    probs = np.maximum(_bell_blocks(rho, (0, 1))[:, 0, 0].real, 0.0)
    return dict(zip(BELL_LABELS, probs.tolist()))


def _zz_probabilities(rho: np.ndarray) -> dict:
    return dict(zip(ZZ_LABELS, np.clip(np.diag(rho).real, 0.0, None).tolist()))


def _linear(params: Sequence[float]) -> np.ndarray:
    if not 1 <= len(params) <= 3:
        raise ValueError("path length must be between 1 and 3 links")
    rho = _werner(params[0])
    for w in params[1:]:
        # Qubits: near end, relay, relay, far end; the relay pair is measured
        # and the far end corrected.
        rho = _swap(np.kron(rho, _werner(w)), (1, 2), fix=1)
    return rho


def _cyclic(params: Sequence[float]) -> np.ndarray:
    """Two linear path copies fused by a corrected Bell measurement at the far end.

    The surviving pair sits at the near endpoint and carries the squared path
    product as its Werner parameter.
    """
    path = _linear(params)
    # Qubits: near 1, far 1, near 2, far 2; the far ends are fused.
    return _swap(np.kron(path, path), (1, 3), fix=1)


def linear_generation(params: Sequence[float]) -> DensityMatrix:
    """End-to-end path state from one Werner pair per link, swapped at relays.

    Each intermediate node measures its two qubits in the Bell basis with the
    Pauli fixup applied downstream, so the chain collapses to a single Werner
    pair whose parameter is the product of the link parameters.
    """
    return DensityMatrix(_linear(params))


def jbm_oracle_probabilities(params: Sequence[float]) -> dict:
    """Joint-Bell-measurement statistics from the exact cyclic construction."""
    return _bell_probabilities(_cyclic(params))


def pem_oracle_probabilities(params: Sequence[float]) -> dict:
    """Pair-assisted measurement statistics from the exact teleport construction.

    A noiseless Bell pair is appended at the path ends, the far endpoint
    teleports its half of the path state through it, and the near endpoint
    measures its two qubits jointly.
    """
    # Qubits: path near, path far, ideal near, ideal far.
    joint = np.kron(_linear(params), _PHI_PLUS)
    return _bell_probabilities(_swap(joint, (1, 3), fix=1))


def lzm_oracle_probabilities(params: Sequence[float]) -> dict:
    """Correlated Z-basis statistics from the exact path construction."""
    return _zz_probabilities(_linear(params))
