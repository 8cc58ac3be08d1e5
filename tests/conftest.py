import numpy as np
import pytest

from dppseq.data import Instances, _build_log
from dppseq.kernels import (
    DiversityKernelLowRank,
    GroundSet,
    QualityVector,
    build_sequence_kernel,
)


def random_unit_row_kernel(n_items, latent_dim, rng):
    V = rng.standard_normal((n_items, latent_dim))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    return DiversityKernelLowRank(V, normalized=True)


def random_sequence_kernel(n, rng, n_targets=None, latent_dim=None):
    """Random instance kernel: unit-row diversity factors, raw scores in a
    moderate range, targets followed by negatives."""
    if n_targets is None:
        n_targets = max(1, n // 2)
    if latent_dim is None:
        latent_dim = max(2, n)
    kernel = random_unit_row_kernel(n + 3, latent_dim, rng)
    gs = GroundSet(
        previous=(),
        targets=tuple(range(n_targets)),
        negatives=tuple(range(n_targets, n)),
    )
    raw = rng.uniform(-1.5, 1.5, size=n)
    quality = QualityVector.from_raw_scores(raw)
    return build_sequence_kernel(quality, kernel, gs)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def log_from_rows(rows):
    """An interaction log from (user, item, timestamp, category list) rows."""
    users, items, timestamps, categories = zip(*rows)
    return _build_log(users, items, timestamps, [";".join(c) for c in categories])


def instance_array(rows):
    """`SequenceInstance`s of one layout as the `Instances` that `train` takes."""
    first = rows[0]
    return Instances(
        users=np.array([r.user for r in rows], dtype=np.intp),
        items=np.array([r.previous + r.targets + r.negatives for r in rows], dtype=np.intp),
        time_steps=np.array([r.time_step for r in rows], dtype=np.intp),
        L=len(first.previous),
        T=len(first.targets),
    )
