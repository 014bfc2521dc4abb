"""Exact density-matrix oracle for small Werner-pair networks.

Ground truth, on up to six qubits (64x64), for the analytic outcome
distributions of the three schemes and for multiplicative Werner composition
under entanglement swapping.  A Bell vector has two non-zero entries and a
Pauli fixup is a signed permutation, so the four outcome blocks
<beta_k|rho|beta_k> are one gather of their terms, fixups included, and two
products and one add per side.  No projector or partial trace is formed.

Everything is array-valued over a batch of parameter points, with the same
contract as ``fisher``: a link parameter is a float or a 1-D array, all
arrays in one call of equal length.  States carry the batch axes first, shape
(..., d, d), and a float is the batch-of-one case of the same code: floats in
give one (d, d) state and float probabilities, arrays in give a stack of
states and one probability array per outcome.  The path constructions and the
``*_oracle_probabilities`` functions run on plain arrays; a validated
``DensityMatrix`` is built only for a state a public function returns, and it
validates the whole batch at once.

Products are elementwise, never ``einsum(optimize=)``, ``tensordot``, ``dot``,
``matmul`` or ``@``: BLAS threads would compete for a pinned benchmark's core.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .schemes import BELL_LABELS, ZZ_LABELS, _Record

ATOL_EQ = 1e-12
ATOL_PSD = 1e-10
MAX_DIM = 64

# Outcome-dependent Pauli fixup (I, Z, X, XZ) in BELL_LABELS order, applied to one
# retained qubit so every measurement branch collapses to the same swapped state.
_CORRECTIONS = np.array(
    [[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1], [1, 0]]], dtype=complex
)
# Bell vectors as [outcome, 2 * first qubit + second qubit]:
# |beta_k> = (1 x fixup_k)|phi+>.
_BELL = (_CORRECTIONS.transpose(0, 2, 1) / np.sqrt(2.0)).reshape(4, 4)
_PHI_PLUS = np.outer(_BELL[0], _BELL[0])
_EYE = np.eye(4, dtype=complex)
# Both tables, sparse: where each row's non-zero entries sit, increasing, and their values.
_BELL_TERMS = np.array([np.flatnonzero(row) for row in _BELL])
_BELL_COEF = np.take_along_axis(_BELL, _BELL_TERMS, axis=1)
_FIX_FROM = np.array([[np.flatnonzero(row)[0] for row in fixup] for fixup in _CORRECTIONS])
_FIX_SIGN = np.take_along_axis(_CORRECTIONS, _FIX_FROM[..., None], axis=-1)[..., 0]


class DensityMatrix(_Record):
    """Validated density matrix of a few qubits, or a batch of them.

    ``matrix`` has shape (d, d), or (..., d, d) for a batch.  Invariants
    enforced at construction for every member: dimension a power of two up
    to 64, Hermitian and unit trace within 1e-12, smallest eigenvalue at
    least -1e-10 (one batched ``eigvalsh``).
    """

    __match_args__ = ("matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        self.__dict__.update(matrix=matrix)
        # A hook of its own: perfbench's recorder wraps it to count constructions.
        self.__post_init__()

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
            raise ValueError("matrix must be square")
        dim = m.shape[-1]
        if not dim or dim & (dim - 1):
            raise ValueError(f"dimension {dim} is not a power of two")
        if dim > MAX_DIM:
            raise ValueError(f"dimension {dim} exceeds the cap {MAX_DIM}")
        # Written as "all within tolerance" so that a nan entry fails too.
        if not (np.abs(m - m.conj().swapaxes(-2, -1)) <= ATOL_EQ).all():
            raise ValueError("matrix is not Hermitian within tolerance")
        trace = np.trace(m, axis1=-2, axis2=-1)
        if not ((np.abs(trace.real - 1.0) <= ATOL_EQ) & (np.abs(trace.imag) <= ATOL_EQ)).all():
            raise ValueError("trace must equal 1 within tolerance")
        if not (np.linalg.eigvalsh(m)[..., 0] >= -ATOL_PSD).all():
            raise ValueError("matrix is not positive semidefinite within tolerance")
        m.setflags(write=False)
        self.__dict__.update(matrix=m)


def _werner(w: float | np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim > 1:
        raise ValueError("w must be a float or a 1-D array")
    inside = (w >= 0.0) & (w <= 1.0)
    if not inside.all():
        raise ValueError(f"w={np.extract(~inside, w)[0]} outside [0, 1]")
    w = w[..., None, None]
    return w * _PHI_PLUS + (1.0 - w) * _EYE / 4.0


def werner_density(w: float | np.ndarray) -> DensityMatrix:
    """Two-qubit Werner state: w times the phi+ projector plus (1-w)/4 times I.

    An array of parameters gives the stack of their states.
    """
    return DensityMatrix(_werner(w))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of the trailing (d, d) axes, broadcast over the batch axes."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    dim = a.shape[-1] * b.shape[-1]
    return out.reshape(out.shape[:-4] + (dim, dim))


@functools.cache
def _bell_terms(n: int, pair: tuple, fix: int | None) -> tuple:
    """Flat state positions of every non-zero Bell term, and the terms' weights.

    Positions are (row term, column term, outcome, row, column), rows and
    columns sent through the fixup; column weights carry the fixup's signs.
    """
    order, size = (*pair, *(q for q in range(n) if q not in pair)), 2 ** (n - 2)
    # The flat positions read as (pair row, retained row, pair column, retained column).
    at = np.arange(4**n).reshape((2,) * 2 * n).transpose(*order, *(n + q for q in order))
    at = at.reshape(4, size, 4, size)
    src, sign = np.broadcast_to(np.arange(size), (4, size)), np.ones((4, size))
    if fix is not None:
        # Each retained index as (before, fixed qubit, after).
        split = np.arange(size).reshape(2**fix, 2, -1)
        src = split[:, _FIX_FROM].transpose(1, 0, 2, 3).reshape(4, size)
        sign = np.broadcast_to(_FIX_SIGN[:, None, :, None], (4, *split.shape)).reshape(4, size)
    terms = _BELL_TERMS.T[:, :, None, None]
    index = at[terms[:, None], src[:, :, None], terms[None, :], src[:, None, :]]
    cols = _BELL_COEF.T[:, :, None, None] * sign[:, :, None] * sign[:, None, :].conj()
    return index, _BELL_COEF.conj().T[:, None, :, None, None], cols


def _bell_blocks(rho: np.ndarray, pair: tuple, fix: int | None = None) -> np.ndarray:
    """Unnormalised outcome blocks <beta_k|rho|beta_k>, stacked as (..., 4, R, R).

    ``pair`` holds the positions of the two measured qubits; ``fix`` is a
    position among the retained qubits that gets outcome k's Pauli fixup.
    One gather, then two products and one add per side, in the dense order.
    """
    index, row, col = _bell_terms(rho.shape[-1].bit_length() - 1, tuple(pair), fix)
    terms = np.take(rho.reshape(rho.shape[:-2] + (-1,)), index, axis=-1)
    terms *= row
    half = terms[..., 0, :, :, :, :] + terms[..., 1, :, :, :, :]
    half *= col
    return half[..., 0, :, :, :] + half[..., 1, :, :, :]


def _swap(rho: np.ndarray, pair: tuple, fix: int) -> np.ndarray:
    """Corrected Bell measurement with every branch merged back into one state."""
    merged = _bell_blocks(rho, pair, fix).sum(axis=-3)
    return merged / np.trace(merged, axis1=-2, axis2=-1).real[..., None, None]


def _by_label(labels: tuple, probs: np.ndarray) -> dict:
    """Floats for one point, one array over the batch per outcome for a batch."""
    return dict(zip(labels, probs.tolist() if probs.ndim == 1 else list(probs.T)))


def _bell_probabilities(rho: np.ndarray) -> dict:
    probs = np.maximum(_bell_blocks(rho, (0, 1))[..., 0, 0].real, 0.0)
    return _by_label(BELL_LABELS, probs)


def _zz_probabilities(rho: np.ndarray) -> dict:
    return _by_label(ZZ_LABELS, np.clip(np.diagonal(rho, axis1=-2, axis2=-1).real, 0.0, None))


def _linear(params: Sequence[float | np.ndarray]) -> np.ndarray:
    if not 1 <= len(params) <= 3:
        raise ValueError("path length must be between 1 and 3 links")
    ws = [np.asarray(w, dtype=float) for w in params]
    if len({w.shape for w in ws} - {()}) > 1:
        raise ValueError("link parameters must be floats or equal-length 1-D arrays")
    rho = _werner(ws[0])
    for w in ws[1:]:
        # Qubits: near end, relay, relay, far end; the relay pair is measured
        # and the far end corrected.
        rho = _swap(_kron(rho, _werner(w)), (1, 2), fix=1)
    return rho


def _cyclic(params: Sequence[float | np.ndarray]) -> np.ndarray:
    """Two linear path copies fused by a corrected Bell measurement at the far end.

    The surviving pair sits at the near endpoint and carries the squared path
    product as its Werner parameter.
    """
    path = _linear(params)
    # Qubits: near 1, far 1, near 2, far 2; the far ends are fused.
    return _swap(_kron(path, path), (1, 3), fix=1)


def linear_generation(params: Sequence[float | np.ndarray]) -> DensityMatrix:
    """End-to-end path state from one Werner pair per link, swapped at relays.

    Each intermediate node measures its two qubits in the Bell basis with the
    Pauli fixup applied downstream, so the chain collapses to a single Werner
    pair whose parameter is the product of the link parameters.  Array
    parameters give the stack of path states over the batch.
    """
    return DensityMatrix(_linear(params))


def jbm_oracle_probabilities(params: Sequence[float | np.ndarray]) -> dict:
    """Joint-Bell-measurement statistics from the exact cyclic construction."""
    return _bell_probabilities(_cyclic(params))


def pem_oracle_probabilities(params: Sequence[float | np.ndarray]) -> dict:
    """Pair-assisted measurement statistics from the exact teleport construction.

    A noiseless Bell pair is appended at the path ends, the far endpoint
    teleports its half of the path state through it, and the near endpoint
    measures its two qubits jointly.
    """
    # Qubits: path near, path far, ideal near, ideal far.
    joint = _kron(_linear(params), _PHI_PLUS)
    return _bell_probabilities(_swap(joint, (1, 3), fix=1))


def lzm_oracle_probabilities(params: Sequence[float | np.ndarray]) -> dict:
    """Correlated Z-basis statistics from the exact path construction."""
    return _zz_probabilities(_linear(params))
