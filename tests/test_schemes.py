"""Tests for the scheme table's analytic outcome distributions."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnetomo import (
    ZZ_LABELS,
    MeasurementTask,
    OutcomeDistribution,
    Path,
    Scheme,
    jbm_oracle_probabilities,
    lzm_oracle_probabilities,
    pem_oracle_probabilities,
    scheme_distribution,
    task_distribution,
)
from qnetomo.schemes import SCHEMES

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


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

    @pytest.mark.parametrize(
        "probabilities, match",
        [
            ((math.nan,) * 4, "nan outcome probability"),
            ((math.nan, 0.5, 0.25, 0.25), "nan outcome probability"),
            ((0.5, 0.5, 0.0, math.nan), "nan outcome probability"),
            ((math.inf, 0.0, 0.0, 0.0), "sum to 1"),
            ((-math.inf, 1.0, 0.0, 0.0), "negative outcome probability"),
            ((math.inf, -math.inf, 0.5, 0.5), "negative outcome probability"),
        ],
    )
    def test_rejects_nan_and_infinite_probabilities(self, probabilities, match):
        with pytest.raises(ValueError, match=match):
            OutcomeDistribution(Scheme.LZM, ZZ_LABELS, probabilities, 0.5)

    def test_rejects_misaligned_labels(self):
        with pytest.raises(ValueError, match="align"):
            OutcomeDistribution(Scheme.LZM, ("a",), (0.5, 0.5), 0.5)

    def test_path_product_bound_is_inclusive_at_one(self):
        assert OutcomeDistribution(Scheme.LZM, ("a",), (1.0,), 1.0).path_product == 1.0
        above = math.nextafter(1.0, 2.0)
        with pytest.raises(ValueError) as info:
            OutcomeDistribution(Scheme.LZM, ("a",), (1.0,), above)
        assert str(info.value) == "path product 1.0000000000000002 outside [0, 1]"


def _prod_probabilities(spec, w):
    """The ``math.prod`` form of the outcome law, kept as its bitwise reference."""
    return tuple((1.0 + math.prod((c,) + (w,) * spec.degree)) / 4.0 for c in spec.slopes)


def _pow_derivatives(spec, w):
    """The per-outcome ``**`` form of the slopes, kept as their bitwise reference."""
    return tuple(c * spec.degree / 4.0 * w ** (spec.degree - 1) for c in spec.slopes)


# The ends, the smallest subnormal, and points where W*W and W*(W*W) round apart.
_EDGE_WS = [0.0, 1.0, 5e-324, 2.0**-537, 1e-300, 0.1, 1 / 3, 0.5, 0.7, 0.9999999999999999]


def _bits(values):
    return [float(v).hex() for v in values]


class TestTableArithmetic:
    """The table's law is evaluated left to right, exactly as ``math.prod`` does."""

    @pytest.mark.parametrize("scheme", list(Scheme))
    @given(w=unit)
    @example(w=0.0)
    @example(w=1.0)
    @example(w=5e-324)
    @settings(max_examples=200, deadline=None)
    def test_floats_match_the_prod_form_bit_for_bit(self, scheme, w):
        spec = SCHEMES[scheme]
        assert _bits(spec.probabilities(w)) == _bits(_prod_probabilities(spec, w))
        assert _bits(spec.derivatives(w)) == _bits(_pow_derivatives(spec, w))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_arrays_match_the_prod_form_bit_for_bit(self, scheme):
        spec = SCHEMES[scheme]
        w = np.concatenate([_EDGE_WS, np.random.default_rng(7).uniform(size=1000)])
        for got, want in [
            (spec.probabilities(w), _prod_probabilities(spec, w)),
            (spec.derivatives(w), _pow_derivatives(spec, w)),
        ]:
            assert len(got) == len(spec.slopes)
            for g, r in zip(got, want):
                assert g.shape == w.shape
                assert np.array_equal(g, r) and np.array_equal(np.signbit(g), np.signbit(r))
