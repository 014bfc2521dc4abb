"""Density-matrix oracle tests: states, measurements, composition."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetomo import (
    DensityMatrix,
    jbm_oracle_probabilities,
    linear_generation,
    lzm_oracle_probabilities,
    pem_oracle_probabilities,
    werner_density,
)
from qnetomo.oracle import (
    _BELL,
    _BELL_COEF,
    _BELL_TERMS,
    _CORRECTIONS,
    _FIX_FROM,
    _FIX_SIGN,
    _bell_blocks,
    _bell_probabilities,
    _cyclic,
    _linear,
    _swap,
    _werner,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def max_abs(a, b):
    return float(np.max(np.abs(a - b)))


class TestWernerDensity:
    def test_pure_limit_is_rank_one(self):
        eigs = np.linalg.eigvalsh(werner_density(1.0).matrix)
        np.testing.assert_allclose(eigs, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_mixed_limit_is_identity_over_four(self):
        assert max_abs(werner_density(0.0).matrix, np.eye(4) / 4) < 1e-15

    def test_half_eigenvalues(self):
        # spectrum is (1+3w)/4 once and (1-w)/4 three times
        eigs = sorted(np.linalg.eigvalsh(werner_density(0.5).matrix))
        np.testing.assert_allclose(eigs, [0.125, 0.125, 0.125, 0.625], atol=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            werner_density(-0.1)
        with pytest.raises(ValueError):
            werner_density(1.01)
        with pytest.raises(ValueError, match="w=1.5 outside"):
            werner_density(np.array([0.2, 1.5]))

    @given(unit)
    @settings(max_examples=30)
    def test_always_a_valid_state(self, w):
        state = werner_density(w)
        assert abs(np.trace(state.matrix).real - 1.0) < 1e-12


class TestBellOverlap:
    """The phi+ probability of the pair-assisted oracle is the Werner fidelity (1 + 3w)/4."""

    def test_endpoints(self):
        assert abs(pem_oracle_probabilities([1.0])["phi+"] - 1.0) < 1e-12
        assert abs(pem_oracle_probabilities([0.0])["phi+"] - 0.25) < 1e-12

    def test_direct_value(self):
        assert abs(pem_oracle_probabilities([0.6])["phi+"] - 0.7) < 1e-12

    @given(unit)
    @settings(max_examples=30)
    def test_equals_bell_overlap(self, w):
        state = werner_density(w)
        bell = np.zeros(4)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        overlap = float(np.real(bell @ state.matrix @ bell))
        assert abs(overlap - pem_oracle_probabilities([w])["phi+"]) < 1e-12


class TestDensityMatrixInvariants:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(4, dtype=complex) / 2)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.7, 0.7, -0.2, -0.2]).astype(complex)
        with pytest.raises(ValueError, match="semidefinite"):
            DensityMatrix(m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            DensityMatrix(np.ones((2, 4), dtype=complex) / 2)

    @pytest.mark.parametrize("dim", [0, 3, 6])
    def test_rejects_dimension_not_a_power_of_two(self, dim):
        with pytest.raises(ValueError, match="power of two"):
            DensityMatrix(np.eye(dim, dtype=complex) / max(dim, 1))

    def test_dimension_cap(self):
        assert DensityMatrix(np.eye(64, dtype=complex) / 64).matrix.shape == (64, 64)
        with pytest.raises(ValueError, match="cap"):
            DensityMatrix(np.eye(128, dtype=complex) / 128)

    def test_entries_are_read_only(self):
        state = werner_density(0.5)
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 0.0


class TestBellBlocks:
    def test_corrected_swap_merges_to_product_parameter(self):
        for w1, w2 in [(0.9, 0.8), (1.0, 1.0), (0.0, 0.5), (0.3, 0.3)]:
            # Qubits: a, m1, m2, b; the relays m1 and m2 are measured, b corrected.
            joint = np.kron(_werner(w1), _werner(w2))
            target = _werner(w1 * w2)
            for block in _bell_blocks(joint, (1, 2), fix=1):
                prob = np.trace(block).real
                assert abs(prob - 0.25) < 1e-12
                assert max_abs(block / prob, target) < 1e-12
            assert max_abs(_swap(joint, (1, 2), fix=1), target) < 1e-12

    def test_probabilities_on_a_single_werner_pair(self):
        for w in (0.0, 0.4, 1.0):
            probs = _bell_probabilities(_werner(w))
            assert abs(probs["phi+"] - (1 + 3 * w) / 4) < 1e-12
            for label in ("phi-", "psi+", "psi-"):
                assert abs(probs[label] - (1 - w) / 4) < 1e-12

    def test_maximally_mixed_two_pairs(self):
        joint = np.kron(_werner(0.0), _werner(0.0))
        for block in _bell_blocks(joint, (1, 2)):
            assert abs(np.trace(block).real - 0.25) < 1e-12
            assert max_abs(block / 0.25, np.eye(4) / 4) < 1e-12

    def test_probabilities_symmetric_under_pair_swap(self):
        joint = np.kron(_werner(0.7), _werner(0.4))
        forward = np.trace(_bell_blocks(joint, (1, 2)), axis1=1, axis2=2).real
        backward = np.trace(_bell_blocks(joint, (2, 1)), axis1=1, axis2=2).real
        assert max_abs(forward, backward) < 1e-12


def test_bell_block_probabilities_sum_to_one():
    blocks = _bell_blocks(_werner(0.5), (0, 1))
    assert blocks.shape == (4, 1, 1)
    assert abs(blocks.sum().real - 1.0) < 1e-12


class TestLinearGeneration:
    def test_single_link_is_the_werner_state(self):
        state = linear_generation([0.37])
        assert max_abs(state.matrix, werner_density(0.37).matrix) < 1e-15

    def test_two_links_multiply(self):
        state = linear_generation([0.9, 0.8])
        assert max_abs(state.matrix, werner_density(0.72).matrix) < 1e-12

    def test_noiseless_chain_stays_pure(self):
        state = linear_generation([1.0, 1.0, 1.0])
        assert max_abs(state.matrix, werner_density(1.0).matrix) < 1e-12

    def test_length_cap(self):
        with pytest.raises(ValueError):
            linear_generation([0.5] * 4)
        with pytest.raises(ValueError):
            linear_generation([])

    @given(unit, unit)
    @settings(max_examples=25, deadline=None)
    def test_multiplicativity_property(self, w1, w2):
        state = linear_generation([w1, w2])
        assert max_abs(state.matrix, werner_density(w1 * w2).matrix) < 1e-12


class TestCyclicGeneration:
    def test_single_link_squares(self):
        assert max_abs(_cyclic([0.6]), _werner(0.36)) < 1e-12

    def test_noiseless(self):
        assert max_abs(_cyclic([1.0]), _werner(1.0)) < 1e-12

    def test_two_links(self):
        assert max_abs(_cyclic([0.9, 0.8]), _werner(0.5184)) < 1e-12


class TestLzmOracleProbabilities:
    def test_bell_correlations(self):
        probs = lzm_oracle_probabilities([1.0])
        assert abs(probs["00"] - 0.5) < 1e-12
        assert abs(probs["11"] - 0.5) < 1e-12
        assert probs["01"] < 1e-12 and probs["10"] < 1e-12

    def test_uniform_at_zero(self):
        probs = lzm_oracle_probabilities([0.0])
        for p in probs.values():
            assert abs(p - 0.25) < 1e-12

    def test_half(self):
        probs = lzm_oracle_probabilities([0.5])
        assert abs(probs["00"] - 0.375) < 1e-12
        assert abs(probs["01"] - 0.125) < 1e-12


# Textbook Bell measurement, kept apart from the oracle's contraction: dense
# projectors built by kron, the sandwich P rho P, and an explicit partial trace.
_REF_BELL = {
    "phi+": np.array([1, 0, 0, 1]) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1]) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0]) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0]) / np.sqrt(2),
}
_REF_X = np.array([[0, 1], [1, 0]])
_REF_Z = np.array([[1, 0], [0, -1]])
_REF_FIX = {"phi+": np.eye(2), "phi-": _REF_Z, "psi+": _REF_X, "psi-": _REF_X @ _REF_Z}


def _to_measured_first(n, pair):
    """Permutation matrix taking qubit order 0..n-1 to (pair, then the rest)."""
    order = list(pair) + [q for q in range(n) if q not in pair]
    perm = np.zeros((2**n, 2**n))
    for index in range(2**n):
        bits = [(index >> (n - 1 - q)) & 1 for q in range(n)]
        target = int("".join(str(bits[q]) for q in order), 2)
        perm[target, index] = 1.0
    return perm


def _reference_bsm(rho, n, pair, fix):
    perm = _to_measured_first(n, pair)
    rest = 2 ** (n - 2)
    out = []
    for label, vec in _REF_BELL.items():
        proj = perm.T @ np.kron(np.outer(vec, vec.conj()), np.eye(rest)) @ perm
        selected = perm @ (proj @ rho @ proj) @ perm.T
        # partial trace over the measured pair: sum of the four diagonal blocks
        blocks = [selected[m * rest : (m + 1) * rest, m * rest : (m + 1) * rest] for m in range(4)]
        reduced = sum(blocks)
        if fix is not None:
            op = np.kron(np.kron(np.eye(2**fix), _REF_FIX[label]), np.eye(2 ** (n - 3 - fix)))
            reduced = op @ reduced @ op.conj().T
        out.append((label, np.trace(reduced).real, reduced))
    return out


@st.composite
def measured_states(draw):
    n = draw(st.sampled_from([3, 4]))
    pair = tuple(draw(st.permutations(range(n)))[:2])
    fix = draw(st.none() | st.integers(0, n - 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real, n, pair, fix


class TestBellBlocksAgainstProjectors:
    @given(measured_states())
    @settings(max_examples=60, deadline=None)
    def test_matches_textbook_projector_measurement(self, case):
        rho, n, pair, fix = case
        rho = DensityMatrix((rho + rho.conj().T) / 2).matrix
        got = _bell_blocks(rho, pair, fix)
        assert got.shape == (4, 2 ** (n - 2), 2 ** (n - 2))
        for block, (_, prob, reduced) in zip(got, _reference_bsm(rho, n, pair, fix)):
            assert abs(np.trace(block).real - prob) < 1e-12
            assert max_abs(block, reduced) < 1e-12


def _dense_bell_blocks(rho, pair, fix=None):
    """The dense ``einsum`` form of ``_bell_blocks``, kept as its bitwise reference.

    The state reads as (..., 4, R, 4, R) with the measured pair first on each
    side; the Bell basis is contracted over both axes of 4, then the stacked
    fixups over the fixed qubit's row and column axes, every coefficient
    included, zeros too.
    """
    n = rho.shape[-1].bit_length() - 1
    batch = rho.shape[:-2]
    keep = [q for q in range(n) if q not in pair]
    size = 2 ** len(keep)
    rows = [len(batch) + q for q in (*pair, *keep)]
    t = rho.reshape(batch + (2,) * (2 * n))
    t = t.transpose(*range(len(batch)), *rows, *(n + i for i in rows))
    t = t.reshape(batch + (4, size, 4, size))
    half = np.einsum("ka,...arbs->...krbs", _BELL.conj(), t)
    blocks = np.einsum("kb,...krbs->...krs", _BELL, half)
    if fix is not None:
        split = (2**fix, 2, size >> (fix + 1))
        blocks = blocks.reshape(blocks.shape[:-2] + split + split)
        half = np.einsum("kxq,...kaqbcrd->...kaxbcrd", _CORRECTIONS, blocks)
        blocks = np.einsum("kyr,...kaxbcrd->...kaxbcyd", _CORRECTIONS.conj(), half)
    return blocks.reshape(batch + (4, size, size))


class TestSparseBellTerms:
    """The sparse Bell terms give the dense contraction's blocks bit for bit.

    Only the sign of an exact zero may differ; ``np.array_equal`` treats the
    two zeros as equal, and every consumer erases the sign with ``abs``,
    ``maximum`` or ``clip``.
    """

    @pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_pair_and_fix_matches_the_dense_einsum(self, n, batch):
        rng = np.random.default_rng(1000 * n + len(batch))
        g = rng.normal(size=batch + (2**n, 2**n)) + 1j * rng.normal(size=batch + (2**n, 2**n))
        rho = g @ g.conj().swapaxes(-2, -1)
        rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
        cases = 0
        for pair in itertools.permutations(range(n), 2):
            for fix in (None, *range(n - 2)):
                got = _bell_blocks(rho, pair, fix)
                # Real weights on a complex state keep its imaginary parts.
                assert got.dtype == np.complex128
                assert got.shape == batch + (4, 2 ** (n - 2), 2 ** (n - 2))
                assert np.array_equal(got, _dense_bell_blocks(rho, pair, fix)), (pair, fix)
                cases += 1
        assert cases == n * (n - 1) * (n - 1)

    def test_bell_rows_are_two_terms_of_modulus_one_over_root_two(self):
        assert _BELL_TERMS.shape == (4, 2) and _BELL_COEF.shape == (4, 2)
        assert [np.count_nonzero(row) for row in _BELL] == [2, 2, 2, 2]
        assert (np.diff(_BELL_TERMS, axis=1) > 0).all()
        np.testing.assert_allclose(np.abs(_BELL_COEF), 1 / np.sqrt(2), rtol=0, atol=1e-16)
        dense = np.zeros((4, 4), dtype=complex)
        np.put_along_axis(dense, _BELL_TERMS, _BELL_COEF, axis=1)
        assert np.array_equal(dense, _BELL)

    def test_every_fixup_row_is_one_signed_unit(self):
        assert [np.count_nonzero(row) for fixup in _CORRECTIONS for row in fixup] == [1] * 8
        assert sorted(map(tuple, np.sort(_FIX_FROM, axis=1))) == [(0, 1)] * 4
        assert set(_FIX_SIGN.ravel().tolist()) <= {1, -1}
        dense = np.zeros((4, 2, 2), dtype=complex)
        np.put_along_axis(dense, _FIX_FROM[..., None], _FIX_SIGN[..., None], axis=-1)
        assert np.array_equal(dense, _CORRECTIONS)


@pytest.mark.parametrize(
    "oracle",
    [
        linear_generation,
        _cyclic,
        lzm_oracle_probabilities,
        jbm_oracle_probabilities,
        pem_oracle_probabilities,
    ],
)
@pytest.mark.parametrize(
    "params",
    [
        [-0.1],
        [1.1],
        [0.5, -1e-9],
        [0.5, 0.5, 1.5],
        [float("nan")],
        [np.array([0.2, 1.5, 0.3])],
        [0.5, np.array([0.4, 0.6, -0.1])],
        [np.array([0.5, np.nan]), np.array([0.5, 0.5])],
    ],
)
def test_link_parameter_outside_unit_interval_rejected(oracle, params):
    with pytest.raises(ValueError, match="outside"):
        oracle(params)


# A link parameter is a float or a 1-D array; the ends 0 and 1 are drawn often.
edge_or_unit = st.sampled_from([0.0, 1.0]) | unit


@st.composite
def link_batches(draw):
    """1 to 3 link parameters: an array first, then arrays or floats that broadcast."""
    size = draw(st.integers(1, 6))
    column = st.lists(edge_or_unit, min_size=size, max_size=size).map(np.array)
    rest = draw(st.lists(column | edge_or_unit, max_size=2))
    return [draw(column), *rest]


ORACLES = [lzm_oracle_probabilities, jbm_oracle_probabilities, pem_oracle_probabilities]


class TestBatchedOracle:
    @given(link_batches())
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_per_point_bit_for_bit(self, columns):
        size = len(columns[0])
        points = [[float(np.broadcast_to(c, size)[i]) for c in columns] for i in range(size)]
        states = linear_generation(columns).matrix
        assert states.shape == (size, 4, 4)
        for state, point in zip(states, points):
            assert np.array_equal(state, linear_generation(point).matrix)
        for oracle in ORACLES:
            batch = oracle(columns)
            for i, point in enumerate(points):
                single = oracle(point)
                assert all(np.array_equal(batch[label][i], p) for label, p in single.items())

    def test_werner_density_batch_equals_per_point(self):
        ws = np.array([0.0, 0.3, 1.0])
        states = werner_density(ws).matrix
        assert states.shape == (3, 4, 4)
        for state, w in zip(states, ws.tolist()):
            assert np.array_equal(state, werner_density(w).matrix)

    @pytest.mark.parametrize("oracle", ORACLES)
    def test_floats_in_floats_out_arrays_in_arrays_out(self, oracle):
        assert all(type(p) is float for p in oracle([0.4, 0.7]).values())
        batch = oracle([np.array([0.4, 0.5, 0.6]), 0.7])
        assert all(p.shape == (3,) for p in batch.values())


def _three_states():
    return np.array(werner_density(np.array([0.2, 0.5, 0.9])).matrix)


def _break_hermitian(m):
    m[0, 1] += 0.1


def _break_trace(m):
    m *= 2.0


def _break_psd(m):
    m[...] = np.diag([0.7, 0.7, -0.2, -0.2])


class TestBatchValidation:
    def test_a_valid_batch_keeps_its_shape(self):
        assert DensityMatrix(np.stack([_three_states()] * 2)).matrix.shape == (2, 3, 4, 4)

    @pytest.mark.parametrize("member", [1, 2])
    @pytest.mark.parametrize(
        "fault, match",
        [(_break_hermitian, "Hermitian"), (_break_trace, "trace"), (_break_psd, "semidefinite")],
    )
    def test_one_bad_member_rejects_the_batch(self, member, fault, match):
        states = _three_states()
        fault(states[member])
        with pytest.raises(ValueError, match=match):
            DensityMatrix(states)

    def test_dimension_cap_applies_to_the_trailing_axes(self):
        assert DensityMatrix(np.stack([np.eye(64) / 64] * 3)).matrix.shape == (3, 64, 64)
        with pytest.raises(ValueError, match="cap"):
            DensityMatrix(np.stack([np.eye(128) / 128] * 2))

    @pytest.mark.parametrize("oracle", [linear_generation, *ORACLES])
    def test_unequal_lengths_rejected(self, oracle):
        with pytest.raises(ValueError, match="equal-length"):
            oracle([np.array([0.1, 0.2]), np.array([0.3, 0.4, 0.5])])

    def test_two_dimensional_parameter_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            werner_density(np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="1-D"):
            linear_generation([np.full((2, 2), 0.5)])


def _real_stack():
    """Two stacks of three real Werner states, shaped (2, 3, 4, 4) as validate stacks them."""
    return np.stack([_werner(np.array([0.2, 0.5, 0.9])), _werner(np.array([0.0, 0.6, 1.0]))])


def _with_eigenvalues(m, eigenvalues):
    # Rotated into the Bell basis, so the state is not diagonal; _BELL is orthogonal.
    m[...] = _BELL.T @ np.diag(eigenvalues) @ _BELL


def _off_symmetry(m):
    m[0, 1] += 2e-12


def _off_trace(m):
    m[2, 2] += 2e-12


def _negative_eigenvalue(m):
    _with_eigenvalues(m, [0.5 + 1e-10, 0.5 + 1e-10, 0.0, -2e-10])


def _nan_entry(m):
    m[1, 2] = np.nan


class TestRealStackValidation:
    """A float64 stack gets every check, with the tolerances of a complex one."""

    def test_a_valid_real_stack_stays_real(self):
        states = _real_stack()
        state = DensityMatrix(states)
        assert state.matrix.dtype == np.float64
        assert state.matrix.tobytes() == states.tobytes()

    @pytest.mark.parametrize("member", [(0, 1), (1, 0), (1, 2)])
    @pytest.mark.parametrize(
        "fault, match",
        [
            (_off_symmetry, "Hermitian"),
            (_off_trace, "trace"),
            (_negative_eigenvalue, "semidefinite"),
            (_nan_entry, "Hermitian"),
        ],
    )
    def test_one_member_just_outside_a_tolerance_rejects_the_stack(self, member, fault, match):
        states = _real_stack()
        fault(states[member])
        with pytest.raises(ValueError, match=match):
            DensityMatrix(states)

    def test_a_member_just_inside_every_tolerance_is_accepted(self):
        states = _real_stack()
        _with_eigenvalues(states[1, 2], [0.5 + 2.5e-11, 0.5 + 2.5e-11, 0.0, -5e-11])
        states[1, 1, 0, 1] += 5e-13
        states[1, 1, 3, 3] += 5e-13
        assert DensityMatrix(states).matrix.dtype == np.float64

    def test_complex_hermitian_input_is_accepted_and_stays_complex(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1], m[1, 0] = 0.1j, -0.1j
        state = DensityMatrix(np.stack([m, m.conj()]))
        assert state.matrix.dtype == np.complex128
        assert state.matrix.tobytes() == np.stack([m, m.conj()]).tobytes()

    def test_complex_input_is_still_conjugated(self):
        # Symmetric but not Hermitian: only the conjugate transpose tells.
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = m[1, 0] = 0.1j
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    @pytest.mark.parametrize("w", [0.0, 0.3, 1.0, np.linspace(0.0, 1.0, 11)])
    def test_werner_density_equals_the_complex_computation_bit_for_bit(self, w):
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        wc = np.asarray(w, dtype=float)[..., None, None]
        want = wc * np.outer(bell, bell).astype(complex) + (1.0 - wc) * np.eye(4, dtype=complex) / 4.0
        got = werner_density(w).matrix
        assert got.dtype == np.float64
        assert got.astype(complex).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "params",
        [[0.7], [0.7, 0.4], [0.9, 0.5, 0.3], [np.linspace(0.0, 1.0, 11), np.linspace(1.0, 0.0, 11)]],
    )
    def test_linear_generation_equals_the_stored_complex_state_bit_for_bit(self, params):
        # Before states stayed real, a DensityMatrix stored the construction as complex128.
        got = linear_generation(params).matrix
        assert got.dtype == np.float64
        assert got.astype(complex).tobytes() == np.array(_linear(params), dtype=complex).tobytes()
