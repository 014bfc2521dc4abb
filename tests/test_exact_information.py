"""An exact witness for each scheme's scalar information J, in rationals.

The witness writes the published closed forms and the outcome laws
p_k = (1 + c_k W^d) / 4 itself and evaluates them in ``fractions.Fraction``,
so it shares no code with ``qnetomo.fisher``; only the last test reads the
package, as the subject it bounds.  The points are the 100 floats k / 101,
k = 1 ... 100, each taken at its exact binary value.
"""

import math
from fractions import Fraction

import pytest

from qnetomo import FisherMode, Scheme
from qnetomo.fisher import _information
from qnetomo.schemes import SCHEMES

POINTS = [Fraction(k / 101) for k in range(1, 101)]

# (slopes c_k, power d) of each scheme's outcome law.
LAWS = {
    Scheme.LZM: ((1, -1, -1, 1), 1),
    Scheme.JBM: ((3, -1, -1, -1), 2),
    Scheme.PEM: ((3, -1, -1, -1), 1),
}

# The published J of a task on a path of two or more links.
PUBLISHED = {
    Scheme.LZM: lambda w: 1 / ((1 + w) * (1 - w)),
    Scheme.JBM: lambda w: 12 * w * w / ((1 + 3 * w * w) * (1 - w * w)),
    Scheme.PEM: lambda w: 3 / ((1 + 3 * w) * (1 - w)),
}


def _published_direct_lzm(w):
    return 2 / ((1 + w) * (1 - w))


def _outcome_sum(scheme, w):
    """First principles: the sum over outcomes of (d p_k / dW)^2 / p_k."""
    slopes, d = LAWS[scheme]
    return sum((Fraction(c * d, 4) * w ** (d - 1)) ** 2 / ((1 + c * w**d) / 4) for c in slopes)


def _exact(scheme, w, mode, direct):
    if mode is FisherMode.FIRST_PRINCIPLES:
        return _outcome_sum(scheme, w)
    if direct and scheme is Scheme.LZM:
        return _published_direct_lzm(w)
    return PUBLISHED[scheme](w)


def _ulp_bound(scheme, w):
    """Ulps of J that its float evaluation may be off by at W.

    Each rounded operation costs at most half an ulp, and a few of them make
    4 ulps.  1 - W is exact for W in [1/2, 1], so LZM and PEM lose nothing
    more.  JBM rounds W * W before 1 - W * W, and that half ulp of W^2 is
    magnified by W^2 / (1 - W^2) relative to J.
    """
    return 4 + (w * w / (1 - w * w) if LAWS[scheme][1] == 2 else 0)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_closed_form_equals_the_outcome_sum_exactly(scheme):
    for w in POINTS:
        assert PUBLISHED[scheme](w) == _outcome_sum(scheme, w), w


def test_direct_lzm_is_exactly_twice_the_outcome_sum():
    for w in POINTS:
        assert _published_direct_lzm(w) == 2 * _outcome_sum(Scheme.LZM, w), w


@pytest.mark.parametrize("direct", [False, True], ids=["path", "direct"])
@pytest.mark.parametrize("mode", list(FisherMode))
@pytest.mark.parametrize("scheme", list(Scheme))
def test_float_information_is_within_its_ulp_bound(scheme, mode, direct):
    for w in POINTS:
        exact = _exact(scheme, w, mode, direct)
        got = _information(SCHEMES[scheme], float(w), mode, direct)
        ulps = abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact)))
        assert ulps <= _ulp_bound(scheme, w), (w, float(ulps))
