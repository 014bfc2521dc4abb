"""Helpers shared by the test modules."""

from qnetomo import OutcomeCounts


def expected_counts(dist, n):
    """Noise-free counts n * p_k, which a sequential solve inverts exactly."""
    counts = {label: n * p for label, p in zip(dist.labels, dist.probabilities)}
    return OutcomeCounts(labels=dist.labels, counts=counts, total=float(n))
