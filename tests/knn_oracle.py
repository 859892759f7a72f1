"""Brute-force max-norm neighbour search, the oracle for the neighbour kernels.

Every pairwise distance is formed explicitly, so there is no search
structure that could be wrong.  Counting uses the strict inequality
``distance < radius`` of Kraskov, Stoegbauer & Grassberger (PRE 69, 066138,
2004); every path of the kernels must reproduce these arrays exactly.
"""

import numpy as np

from forecastability import estimators


def _chebyshev_blocks(points, block=256):
    for start in range(0, points.shape[0], block):
        diffs = np.abs(points[start: start + block, None, :] - points[None, :, :])
        yield start, diffs.max(axis=2)


def kth_distances(points, k):
    """Distance from each point to its k-th nearest neighbour (self excluded)."""
    eps = np.empty(points.shape[0])
    for start, dist_block in _chebyshev_blocks(points):
        # self-distance 0 is included, so the k-th neighbour is entry k
        eps[start: start + dist_block.shape[0]] = np.partition(
            dist_block, k, axis=1
        )[:, k]
    return eps


def counts_within(points, radii):
    """Points strictly inside each point's ball, the centre included."""
    counts = np.empty(points.shape[0], dtype=np.int64)
    for start, dist_block in _chebyshev_blocks(points):
        stop = start + dist_block.shape[0]
        counts[start:stop] = np.sum(dist_block < radii[start:stop, None], axis=1)
    return counts


def joint_radii_and_counts(wide, narrow, k):
    """The k-th neighbour distance in the joint (wide, narrow) space, and the
    points strictly inside it in ``wide``, the centre included."""
    eps = kth_distances(np.hstack([wide, narrow]), k)
    return eps, counts_within(wide, eps)


def kernel_calls_match_oracle(monkeypatch, estimate):
    """Run ``estimate()`` with the neighbour kernels checked against the oracle.

    Asserts that every eps array and every count array the estimator
    computed equals the oracle's on the same input: "eps" is a k-th
    neighbour search, "count" a marginal count, and "joint" the fused
    query that gives both.  Returns the estimate and the kernel names in
    call order.
    """
    called = []

    def checked(name, kernel, oracle):
        def wrapper(points, *args):
            out = kernel(points, *args)
            expected = oracle(points, *args)
            if name == "joint":
                assert all(map(np.array_equal, out, expected)), name
            else:
                assert np.array_equal(out, expected), name
            called.append(name)
            return out

        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(estimators, "_kth_distances", checked(
            "eps", estimators._kth_distances, kth_distances))
        patch.setattr(estimators, "_counts_within", checked(
            "count", estimators._counts_within, counts_within))
        patch.setattr(estimators, "_joint_radii_and_counts", checked(
            "joint", estimators._joint_radii_and_counts, joint_radii_and_counts))
        return estimate(), called
