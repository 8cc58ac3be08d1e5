"""Sanity checks on the brute-force oracles themselves."""

import ast
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la

import dppseq
from dppseq.kernels import log_det_psd
from dppseq.oracle import (
    cofactor_det,
    compare_gradients,
    enumerate_normalizer,
    oracle_conditional_distribution,
    oracle_dpp_distribution,
    oracle_fd_gradient,
    principal_minor_dets,
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


def test_principal_minor_dets_match_cofactor(rng):
    # random symmetric PSD at scales 0.1 to 10, and non-symmetric matrices
    for n in range(9):
        A = rng.standard_normal((n, n))
        for matrix in (A @ A.T * rng.uniform(0.1, 10.0) + 0.1 * np.eye(n), A):
            dets = principal_minor_dets(matrix)
            subsets = [s for r in range(n + 1) for s in combinations(range(n), r)]
            assert list(dets) == subsets
            for subset, det in dets.items():
                sub = matrix[np.ix_(subset, subset)]
                scale = np.prod(np.linalg.norm(sub, axis=1))  # Hadamard's bound
                assert det == pytest.approx(cofactor_det(sub), rel=1e-9, abs=1e-12 * scale)


def test_principal_minor_dets_exact_cases():
    assert principal_minor_dets(np.zeros((0, 0))) == {(): 1.0}
    # needs a row swap
    assert principal_minor_dets([[0.0, 1.0], [1.0, 0.0]]) == {
        (): 1.0, (0,): 0.0, (1,): 0.0, (0, 1): -1.0
    }
    # rows 1 and 2 repeat, so the minors holding both are exactly singular:
    # +0.0, though the row swap has made the running product negative
    repeated = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 7.0], [4.0, 5.0, 7.0]])
    dets = principal_minor_dets(repeated)
    for subset in ((1, 2), (0, 1, 2)):
        assert dets[subset] == 0.0 and not np.signbit(dets[subset])
    # a zero first column: a zero pivot before the last step
    zero_column = np.array([[0.0, 1.0, 2.0], [0.0, 3.0, 4.0], [0.0, 5.0, 7.0]])
    dets = principal_minor_dets(zero_column)
    assert dets[(0, 1)] == dets[(0, 1, 2)] == 0.0
    assert dets[(1, 2)] == pytest.approx(1.0, rel=1e-15)
    # non-symmetric
    nonsym = np.array([[2.0, 1.0, 0.0], [-3.0, 1.0, 4.0], [0.5, 0.0, 1.0]])
    dets = principal_minor_dets(nonsym)
    assert dets[(0, 1)] == pytest.approx(5.0, rel=1e-15)
    assert dets[(0, 1, 2)] == pytest.approx(7.0, rel=1e-15)
    assert dets[(1, 2)] == pytest.approx(1.0, rel=1e-15)


def test_required_subsets_equal_the_full_enumeration(rng):
    # the same rows of the same eliminations: equal bit for bit, in order
    for n in range(7):
        A = rng.standard_normal((n, n))
        for matrix in (A @ A.T + 0.1 * np.eye(n), A):
            every = principal_minor_dets(matrix)
            for k in range(n + 1):
                required = sorted(rng.choice(n, size=k, replace=False).tolist())
                want = [(s, d) for s, d in every.items() if set(required) <= set(s)]
                got = principal_minor_dets(matrix, rng.permutation(required).tolist())
                assert list(got) == [s for s, _ in want]
                assert np.array_equal(np.array(list(got.values())), np.array([d for _, d in want]))


def test_required_positions_out_of_range_rejected():
    for required in ([3], [-1]):
        with pytest.raises(ValueError, match="out of range"):
            principal_minor_dets(np.eye(3), required)


def test_enumeration_oracles_call_no_lapack(rng, monkeypatch):
    kernel = random_sequence_kernel(6, rng)
    want = la.det(kernel.matrix + np.eye(6))
    mask = np.ones(6)
    mask[[1, 4]] = 0.0
    observed = kernel.matrix[np.ix_([1, 4], [1, 4])]
    want_cond = la.det(observed) / la.det(kernel.matrix + np.diag(mask))

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in ("det", "cholesky", "inv", "slogdet", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert enumerate_normalizer(kernel) == pytest.approx(want, rel=1e-10)
    assert sum(oracle_dpp_distribution(kernel).values()) == pytest.approx(1.0, abs=1e-12)
    cond = oracle_conditional_distribution(kernel, [4, 1])
    assert sum(cond.values()) == pytest.approx(1.0, abs=1e-12)
    assert cond[frozenset([1, 4])] == pytest.approx(want_cond, rel=1e-9)


def test_production_modules_do_not_import_the_oracle():
    # the oracle is an independent check only while nothing it checks uses it
    package = Path(dppseq.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "oracle.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                assert "oracle" not in name.split("."), f"{path.name} imports {name}"


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_enumerate_normalizer_rejects_nonfinite(bad):
    matrix = np.eye(3)
    matrix[0, 1] = matrix[1, 0] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        enumerate_normalizer(make_kernel(matrix))
    with pytest.raises(ValueError, match="infs or NaNs"):
        oracle_dpp_distribution(make_kernel(matrix))


def test_distribution_single_item():
    dist = oracle_dpp_distribution(make_kernel([[1.0]]))
    assert dist[frozenset()] == pytest.approx(0.5)
    assert dist[frozenset([0])] == pytest.approx(0.5)


def test_distribution_uniform_diag():
    dist = oracle_dpp_distribution(make_kernel(np.eye(2)))
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
