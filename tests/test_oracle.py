"""Sanity checks on the brute-force oracles themselves."""

import numpy as np
import pytest
import scipy.linalg as la

from dppseq.kernels import log_det_psd
from dppseq.oracle import (
    cofactor_det,
    compare_gradients,
    enumerate_normalizer,
    oracle_dpp_distribution,
    oracle_fd_gradient,
)

from conftest import random_sequence_kernel
from test_kernels import make_kernel


def test_cofactor_matches_lapack(rng):
    for n in range(1, 7):
        A = rng.standard_normal((n, n))
        assert cofactor_det(A) == pytest.approx(la.det(A), rel=1e-8, abs=1e-10)


def test_cofactor_agrees_with_log_det_psd(rng):
    for n in range(2, 11, 2):
        A = rng.standard_normal((n, n))
        psd = A @ A.T + 0.5 * np.eye(n)
        assert np.log(cofactor_det(psd)) == pytest.approx(log_det_psd(psd), rel=1e-8)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_enumerate_normalizer_rejects_nonfinite(bad):
    matrix = np.eye(3)
    matrix[0, 1] = matrix[1, 0] = bad
    with pytest.raises(ValueError):
        enumerate_normalizer(make_kernel(matrix))


def test_distribution_single_item():
    dist = oracle_dpp_distribution(make_kernel([[1.0]]))
    assert dist[frozenset()] == pytest.approx(0.5)
    assert dist[frozenset([0])] == pytest.approx(0.5)


def test_distribution_uniform_diag():
    dist = oracle_dpp_distribution(make_kernel(np.eye(2), n_targets=2))
    assert len(dist) == 4
    for p in dist.values():
        assert p == pytest.approx(0.25)


def test_distribution_sums_to_one(rng):
    dist = oracle_dpp_distribution(random_sequence_kernel(6, rng))
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)


def test_fd_gradient_quadratic():
    grad = oracle_fd_gradient(lambda x: float(x[0] ** 2), [3.0])
    assert grad[0] == pytest.approx(6.0, abs=1e-6)


def test_fd_gradient_log_det(rng):
    # f(x) = log det(L + I) with L = diag-perturbed PSD; analytic gradient of
    # the diagonal entries is diag((L+I)^-1)
    A = rng.standard_normal((4, 4))
    base = A @ A.T

    def f(diag):
        return log_det_psd(base + np.diag(diag) + np.eye(4))

    point = np.abs(rng.normal(size=4)) + 0.5
    analytic = np.diag(la.inv(base + np.diag(point) + np.eye(4)))
    report = compare_gradients(analytic, oracle_fd_gradient(f, point))
    assert report.max_rel_err < 1e-5


def test_fd_rejects_nonfinite():
    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(ValueError):
            oracle_fd_gradient(lambda x: float(np.log(x[0])), [0.0])
