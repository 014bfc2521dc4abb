"""Tests for analytic outcome distributions and deterministic sampling."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnetomo import (
    MeasurementTask,
    OutcomeCounts,
    OutcomeDistribution,
    Path,
    Scheme,
    derive_seed,
    jbm_oracle_probabilities,
    lzm_oracle_probabilities,
    pem_oracle_probabilities,
    sample_outcomes,
    scheme_distribution,
    task_distribution,
)
from qnetomo.schemes import _pcg64_seed_words, _pcg64_state, _sample_rounds, _stream_seeds

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_dist = scheme_distribution


class TestClosedForms:
    def test_lzm_half(self):
        d = scheme_distribution(Scheme.LZM, 0.5).as_dict()
        assert abs(d["00"] - 0.375) < 1e-15
        assert abs(d["11"] - 0.375) < 1e-15
        assert abs(d["01"] - 0.125) < 1e-15
        assert abs(d["10"] - 0.125) < 1e-15

    def test_jbm_half(self):
        d = scheme_distribution(Scheme.JBM, 0.5).as_dict()
        assert abs(d["phi+"] - 0.4375) < 1e-15
        for label in ("phi-", "psi+", "psi-"):
            assert abs(d[label] - 0.1875) < 1e-15

    def test_pem_point_six(self):
        d = scheme_distribution(Scheme.PEM, 0.6).as_dict()
        assert abs(d["phi+"] - 0.7) < 1e-15
        for label in ("phi-", "psi+", "psi-"):
            assert abs(d[label] - 0.1) < 1e-15

    def test_labels_per_scheme(self):
        assert scheme_distribution(Scheme.LZM, 0.3).labels == ("00", "01", "10", "11")
        assert scheme_distribution(Scheme.JBM, 0.3).labels == ("phi+", "phi-", "psi+", "psi-")
        assert scheme_distribution(Scheme.PEM, 0.3).labels == ("phi+", "phi-", "psi+", "psi-")

    def test_degenerate_endpoints(self):
        for scheme in Scheme:
            dist = scheme_distribution(scheme, 0.0)
            np.testing.assert_allclose(dist.probabilities, [0.25] * 4, atol=1e-15)
        assert abs(scheme_distribution(Scheme.JBM, 1.0).as_dict()["phi+"] - 1.0) < 1e-15
        assert abs(scheme_distribution(Scheme.PEM, 1.0).as_dict()["phi+"] - 1.0) < 1e-15
        assert abs(scheme_distribution(Scheme.LZM, 1.0).as_dict()["00"] - 0.5) < 1e-15

    def test_domain_guard(self):
        for scheme in Scheme:
            with pytest.raises(ValueError):
                scheme_distribution(scheme, -0.01)
            with pytest.raises(ValueError):
                scheme_distribution(scheme, 1.01)

    @given(unit)
    @settings(max_examples=50)
    def test_probabilities_sum_to_one(self, w):
        for scheme in Scheme:
            assert abs(sum(scheme_distribution(scheme, w).probabilities) - 1.0) < 1e-12

    @given(unit)
    @settings(max_examples=50)
    def test_jbm_equals_pem_of_squared_product(self, w):
        jbm = scheme_distribution(Scheme.JBM, w)
        pem = scheme_distribution(Scheme.PEM, w * w)
        for a, b in zip(jbm.probabilities, pem.probabilities):
            assert abs(a - b) < 1e-12


class TestOracleAgreement:
    """Spot checks; the full grid comparison lives in the acceptance suite."""

    def test_lzm_two_links(self):
        exact = lzm_oracle_probabilities([0.9, 0.8])
        analytic = scheme_distribution(Scheme.LZM, 0.72).as_dict()
        for label, p in exact.items():
            assert abs(p - analytic[label]) < 1e-12

    def test_jbm_one_link(self):
        exact = jbm_oracle_probabilities([0.7])
        analytic = scheme_distribution(Scheme.JBM, 0.7).as_dict()
        for label, p in exact.items():
            assert abs(p - analytic[label]) < 1e-12

    def test_pem_three_links(self):
        exact = pem_oracle_probabilities([0.9, 0.7, 0.5])
        analytic = scheme_distribution(Scheme.PEM, 0.9 * 0.7 * 0.5).as_dict()
        for label, p in exact.items():
            assert abs(p - analytic[label]) < 1e-12


class TestTaskDistribution:
    def test_path_product_is_multiplied(self):
        task = MeasurementTask(Scheme.PEM, Path(("e0", "e1"), ("v1", "v2")))
        dist = task_distribution(task, {"e0": 0.9, "e1": 0.8, "e2": 0.1})
        assert abs(dist.path_product - 0.72) < 1e-15
        assert dist.scheme is Scheme.PEM

    def test_scheme_dispatch(self):
        assert scheme_distribution(Scheme.LZM, 0.5).labels[0] == "00"
        assert scheme_distribution(Scheme.JBM, 0.5).labels[0] == "phi+"

    def test_missing_link_parameter(self):
        task = MeasurementTask(Scheme.LZM, Path(("e9",), ("a", "b")))
        with pytest.raises(ValueError, match="'e9'"):
            task_distribution(task, {"e0": 0.5})


class TestDistributionValidation:
    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError, match="negative"):
            OutcomeDistribution(Scheme.LZM, ("a", "b"), (1.5, -0.5), 0.5)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            OutcomeDistribution(Scheme.LZM, ("a", "b"), (0.6, 0.6), 0.5)

    def test_rejects_misaligned_labels(self):
        with pytest.raises(ValueError, match="align"):
            OutcomeDistribution(Scheme.LZM, ("a",), (0.5, 0.5), 0.5)


class TestSampling:
    def test_deterministic_given_seed(self):
        dist = scheme_distribution(Scheme.PEM, 0.6)
        a = sample_outcomes(dist, 10000, seed=42)
        b = sample_outcomes(dist, 10000, seed=42)
        assert a.counts == b.counts
        assert a.seed == 42

    def test_different_seeds_differ(self):
        dist = scheme_distribution(Scheme.PEM, 0.6)
        a = sample_outcomes(dist, 10000, seed=1)
        b = sample_outcomes(dist, 10000, seed=2)
        assert a.counts != b.counts

    def test_counts_total(self):
        counts = sample_outcomes(scheme_distribution(Scheme.LZM, 0.3), 987, seed=7)
        assert counts.total == 987
        assert sum(counts.counts.values()) == 987

    def test_law_of_large_numbers(self):
        # 3-sigma band per outcome at n = 1e6
        n = 1_000_000
        dist = scheme_distribution(Scheme.JBM, 0.5)
        counts = sample_outcomes(dist, n, seed=2024)
        for label, p in dist.as_dict().items():
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs(counts.frequency(label) - p) < 3 * sigma + 1e-9

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            sample_outcomes(scheme_distribution(Scheme.LZM, 0.5), 0, seed=1)

    def test_degenerate_distribution(self):
        counts = sample_outcomes(scheme_distribution(Scheme.JBM, 1.0), 500, seed=3)
        assert counts.counts["phi+"] == 500


class TestDerivedSeeds:
    def test_stable(self):
        assert derive_seed(12345, 0, 1) == derive_seed(12345, 0, 1)

    def test_index_sensitivity(self):
        base = 12345
        seen = {derive_seed(base, r, t) for r in range(5) for t in range(3)}
        assert len(seen) == 15

    def test_base_sensitivity(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)


# Seeds of 1 to 6 uint32 words, the word boundaries among them.
_SEEDS = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6).map(
    lambda words: sum(w << (32 * i) for i, w in enumerate(words))
)
_DISTS = st.lists(
    st.builds(scheme_distribution, st.sampled_from(list(Scheme)), unit), min_size=1, max_size=4
)


def _pcg64_states(children):
    words = _pcg64_seed_words(np.asarray(children, dtype=np.uint64))
    return [_pcg64_state(*(int(w[k]) for w in words)) for k in range(len(children))]


class TestBatchedStreams:
    """The batched sampler draws exactly the streams ``sample_outcomes`` draws.

    Stream (r, t) is ``PCG64(derive_seed(seed, r, t))`` with one multinomial
    call; each stage of the batch is checked against NumPy on its own.
    """

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=_SEEDS,
        start=st.integers(0, 5000),
        rounds=st.integers(1, 40),
        dists=_DISTS,
        n=st.integers(1, 60),
    )
    @example(seed=0, start=0, rounds=3, dists=[_dist(Scheme.PEM, 0.6)], n=5)
    @example(seed=2**32 - 1, start=0, rounds=2, dists=[_dist(Scheme.LZM, 0.3)] * 2, n=7)
    @example(seed=2**32, start=1, rounds=2, dists=[_dist(Scheme.JBM, 1.0)], n=9)
    @example(seed=2**64 + 1, start=0, rounds=4, dists=[_dist(Scheme.PEM, 0.0)] * 3, n=11)
    @example(seed=2**130 + 12345, start=7, rounds=3, dists=[_dist(Scheme.LZM, 1.0)] * 4, n=13)
    def test_every_stage_matches_the_single_stream_path(self, seed, start, rounds, dists, n):
        block = range(start, start + rounds)
        children = _stream_seeds(seed, block, len(dists))
        expected = [[derive_seed(seed, r, t) for t in range(len(dists))] for r in block]
        assert children.tolist() == expected
        flat = [child for row in expected for child in row]
        reference = [np.random.PCG64(child).state["state"] for child in flat]
        assert _pcg64_states(flat) == [(ref["state"], ref["inc"]) for ref in reference]
        counts = _sample_rounds(dists, n, seed, block)
        assert counts.dtype == np.int64 and counts.shape == (rounds, len(dists), 4)
        for i, r in enumerate(block):
            for t, dist in enumerate(dists):
                single = sample_outcomes(dist, n, derive_seed(seed, r, t))
                assert counts[i, t].tolist() == [single.counts[label] for label in dist.labels]

    def test_pcg64_states_of_edge_children(self):
        children = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        reference = [np.random.PCG64(c).state["state"] for c in children]
        assert _pcg64_states(children) == [(ref["state"], ref["inc"]) for ref in reference]

    def test_rejects_what_the_batch_cannot_seed(self):
        dists = [scheme_distribution(Scheme.PEM, 0.5)]
        with pytest.raises(ValueError, match="at least 1"):
            _sample_rounds(dists, 0, 1, range(2))
        with pytest.raises(ValueError, match="non-negative"):
            _sample_rounds(dists, 5, -1, range(2))
        with pytest.raises(ValueError, match="below 2"):
            _sample_rounds(dists, 5, 1, range(2**32 - 1, 2**32 + 1))


class TestOutcomeCounts:
    def test_frequency(self):
        counts = OutcomeCounts(("a", "b"), {"a": 30, "b": 70}, 100)
        assert abs(counts.frequency("b") - 0.7) < 1e-15

    def test_real_valued_counts_allowed(self):
        counts = OutcomeCounts(("a", "b"), {"a": 7.35, "b": 3.15}, 10.5)
        assert abs(counts.frequency("a") - 0.7) < 1e-15
        assert counts.seed is None

    def test_label_cover(self):
        with pytest.raises(ValueError, match="cover"):
            OutcomeCounts(("a", "b"), {"a": 100}, 100)

    @pytest.mark.parametrize(
        "labels,counts,total,match",
        [
            (("a", "b"), {"a": 120, "b": -20}, 100, "non-negative"),
            (("a", "b"), {"a": float("nan"), "b": 0}, 100, "finite"),
            (("a", "b"), {"a": float("inf"), "b": 0}, float("inf"), "finite"),
            (("a", "a"), {"a": 10}, 10, "unique"),
            (("a", "b"), {"a": 0, "b": 0}, float("nan"), "positive"),
            (("a", "b"), {"a": 0, "b": 0}, 0, "positive"),
            (
                ("phi+", "phi-", "psi+", "psi-"),
                {"phi+": 1200, "phi-": -100, "psi+": -50, "psi-": -50},
                1000,
                "non-negative",
            ),
        ],
        ids=[
            "negative",
            "nan",
            "infinite",
            "duplicate-labels",
            "nan-total",
            "zero-total",
            "bell-negative",
        ],
    )
    def test_impossible_counts_are_rejected(self, labels, counts, total, match):
        with pytest.raises(ValueError, match=match):
            OutcomeCounts(labels, counts, total)

    def test_total_consistency(self):
        with pytest.raises(ValueError, match="sum"):
            OutcomeCounts(("a", "b"), {"a": 30, "b": 60}, 100)
