"""Density-matrix oracle tests: states, measurements, composition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetomo import (
    BELL_LABELS,
    DensityMatrix,
    bsm,
    bsm_probabilities,
    cyclic_generation,
    jbm_oracle_probabilities,
    linear_generation,
    lzm_oracle_probabilities,
    pem_oracle_probabilities,
    relabel,
    tensor,
    werner_density,
    werner_fidelity,
    zz_probabilities,
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

    @given(unit)
    @settings(max_examples=30)
    def test_always_a_valid_state(self, w):
        state = werner_density(w)
        assert abs(np.trace(state.matrix).real - 1.0) < 1e-12


class TestWernerFidelity:
    def test_endpoints(self):
        assert werner_fidelity(1.0) == 1.0
        assert werner_fidelity(0.0) == 0.25

    def test_direct_value(self):
        assert abs(werner_fidelity(0.6) - 0.7) < 1e-15

    @given(unit)
    @settings(max_examples=30)
    def test_equals_bell_overlap(self, w):
        state = werner_density(w)
        bell = np.zeros(4)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        overlap = float(np.real(bell @ state.matrix @ bell))
        assert abs(overlap - werner_fidelity(w)) < 1e-12


class TestDensityMatrixInvariants:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m, ("a", "b"))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(4, dtype=complex) / 2, ("a", "b"))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.7, 0.7, -0.2, -0.2]).astype(complex)
        with pytest.raises(ValueError, match="semidefinite"):
            DensityMatrix(m, ("a", "b"))

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4, dtype=complex) / 4, ("a", "b", "c"))

    def test_entries_are_read_only(self):
        state = werner_density(0.5)
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 0.0


class TestTensor:
    def test_mixed_times_mixed(self):
        prod = tensor(werner_density(0.0, ("a", "b")), werner_density(0.0, ("c", "d")))
        assert max_abs(prod.matrix, np.eye(16) / 16) < 1e-15

    def test_purity_preserved(self):
        prod = tensor(werner_density(1.0, ("a", "b")), werner_density(1.0, ("c", "d")))
        eigs = np.linalg.eigvalsh(prod.matrix)
        assert abs(eigs[-1] - 1.0) < 1e-12

    def test_dimension_cap(self):
        a = tensor(werner_density(0.5, ("a", "b")), werner_density(0.5, ("c", "d")))
        b = tensor(a, werner_density(0.5, ("e", "f")))
        assert b.dimension == 64
        with pytest.raises(ValueError, match="cap"):
            tensor(b, werner_density(0.5, ("g", "h")))

    def test_label_collision(self):
        with pytest.raises(ValueError):
            tensor(werner_density(0.5, ("a", "b")), werner_density(0.5, ("b", "c")))

    @given(unit, unit)
    @settings(max_examples=20)
    def test_trace_multiplicative(self, w1, w2):
        prod = tensor(werner_density(w1, ("a", "b")), werner_density(w2, ("c", "d")))
        assert abs(np.trace(prod.matrix).real - 1.0) < 1e-12


class TestBsm:
    def test_corrected_swap_merges_to_product_parameter(self):
        for w1, w2 in [(0.9, 0.8), (1.0, 1.0), (0.0, 0.5), (0.3, 0.3)]:
            joint = tensor(
                werner_density(w1, ("a", "m1")), werner_density(w2, ("m2", "b"))
            )
            target = werner_density(w1 * w2, ("a", "b"))
            for branch in bsm(joint, ("m1", "m2"), correct_on="b"):
                assert abs(branch.probability - 0.25) < 1e-12
                assert max_abs(branch.post_state.matrix, target.matrix) < 1e-12

    def test_probabilities_on_a_single_werner_pair(self):
        for w in (0.0, 0.4, 1.0):
            probs = bsm_probabilities(werner_density(w))
            assert abs(probs["phi+"] - (1 + 3 * w) / 4) < 1e-12
            for label in ("phi-", "psi+", "psi-"):
                assert abs(probs[label] - (1 - w) / 4) < 1e-12

    def test_maximally_mixed_two_pairs(self):
        joint = tensor(werner_density(0.0, ("a", "b")), werner_density(0.0, ("c", "d")))
        for branch in bsm(joint, ("b", "c")):
            assert abs(branch.probability - 0.25) < 1e-12
            assert max_abs(branch.post_state.matrix, np.eye(4) / 4) < 1e-12

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown qubit"):
            bsm(werner_density(0.5), ("q0", "nope"))

    def test_correction_target_must_remain(self):
        joint = tensor(werner_density(0.5, ("a", "b")), werner_density(0.5, ("c", "d")))
        with pytest.raises(ValueError, match="retained"):
            bsm(joint, ("b", "c"), correct_on="b")

    def test_negligible_branches_are_flagged(self):
        branches = bsm(werner_density(1.0), ("q0", "q1"))
        by_label = {o.label: o for o in branches}
        assert not by_label["phi+"].negligible
        for label in ("phi-", "psi+", "psi-"):
            assert by_label[label].negligible
            assert by_label[label].post_state is None

    def test_probabilities_symmetric_under_pair_swap(self):
        joint = tensor(werner_density(0.7, ("a", "b")), werner_density(0.4, ("c", "d")))
        forward = {o.label: o.probability for o in bsm(joint, ("b", "c"))}
        backward = {o.label: o.probability for o in bsm(joint, ("c", "b"))}
        for label in BELL_LABELS:
            assert abs(forward[label] - backward[label]) < 1e-12


def test_bsm_branch_probabilities_sum_to_one():
    branches = bsm(werner_density(0.5), ("q0", "q1"))
    assert len(branches) == 4
    assert abs(sum(o.probability for o in branches) - 1.0) < 1e-12


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
        state = cyclic_generation([0.6])
        assert max_abs(state.matrix, werner_density(0.36).matrix) < 1e-12

    def test_noiseless(self):
        state = cyclic_generation([1.0])
        assert max_abs(state.matrix, werner_density(1.0).matrix) < 1e-12

    def test_two_links(self):
        state = cyclic_generation([0.9, 0.8])
        assert max_abs(state.matrix, werner_density(0.5184).matrix) < 1e-12


class TestZzProbabilities:
    def test_bell_correlations(self):
        probs = zz_probabilities(werner_density(1.0))
        assert abs(probs["00"] - 0.5) < 1e-12
        assert abs(probs["11"] - 0.5) < 1e-12
        assert probs["01"] < 1e-12 and probs["10"] < 1e-12

    def test_uniform_at_zero(self):
        probs = zz_probabilities(werner_density(0.0))
        for p in probs.values():
            assert abs(p - 0.25) < 1e-12

    def test_half(self):
        probs = zz_probabilities(werner_density(0.5))
        assert abs(probs["00"] - 0.375) < 1e-12
        assert abs(probs["01"] - 0.125) < 1e-12

    def test_wrong_dimension(self):
        big = tensor(werner_density(0.5, ("a", "b")), werner_density(0.5, ("c", "d")))
        with pytest.raises(ValueError):
            zz_probabilities(big)


def test_relabel_keeps_the_matrix():
    state = relabel(werner_density(0.5, ("a", "b")), ("x", "y"))
    assert state.qubits == ("x", "y")
    with pytest.raises(ValueError):
        relabel(state, ("x",))


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


class TestBsmAgainstProjectors:
    @given(measured_states())
    @settings(max_examples=60, deadline=None)
    def test_matches_textbook_projector_measurement(self, case):
        rho, n, pair, fix = case
        labels = tuple(f"q{i}" for i in range(n))
        rest = tuple(l for i, l in enumerate(labels) if i not in pair)
        correct_on = None if fix is None else rest[fix]
        state = DensityMatrix((rho + rho.conj().T) / 2, labels)
        got = bsm(state, (labels[pair[0]], labels[pair[1]]), correct_on=correct_on)
        for branch, (label, prob, block) in zip(got, _reference_bsm(state.matrix, n, pair, fix)):
            assert branch.label == label
            assert abs(branch.probability - prob) < 1e-12
            assert not branch.negligible and branch.post_state.qubits == rest
            assert max_abs(branch.post_state.matrix, block / prob) < 1e-12


@pytest.mark.parametrize(
    "oracle",
    [
        linear_generation,
        cyclic_generation,
        lzm_oracle_probabilities,
        jbm_oracle_probabilities,
        pem_oracle_probabilities,
    ],
)
@pytest.mark.parametrize("params", [[-0.1], [1.1], [0.5, -1e-9], [0.5, 0.5, 1.5], [float("nan")]])
def test_link_parameter_outside_unit_interval_rejected(oracle, params):
    with pytest.raises(ValueError, match="outside"):
        oracle(params)
