import numpy as np
import pytest

from zooadapt import kernels


def naive_softmax(z):
    out = np.empty_like(z, dtype=np.float64)
    for i, row in enumerate(z):
        e = np.exp(row - row.max())
        out[i] = e / e.sum()
    return out


def naive_entropy(p):
    out = []
    for row in p:
        h = 0.0
        for v in row:
            if v > 0:
                h -= v * np.log(v)
        out.append(h)
    return np.array(out)


def naive_sqdists(x):
    n = x.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = ((x[i] - x[j]) ** 2).sum()
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_softmax_rows_matches_naive(rng):
    z = rng.normal(size=(40, 6)) * 5
    np.testing.assert_allclose(kernels.softmax_rows(z), naive_softmax(z),
                               rtol=0, atol=1e-12)


def test_softmax_rows_handles_large_logits():
    z = np.array([[1000.0, 1000.0, 999.0]])
    p = kernels.softmax_rows(z)
    assert np.isfinite(p).all()
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_entropy_rows_matches_naive(rng):
    p = kernels.softmax_rows(rng.normal(size=(30, 5)))
    np.testing.assert_allclose(kernels.entropy_rows(p), naive_entropy(p),
                               rtol=0, atol=1e-12)


def test_entropy_rows_zero_times_log_zero():
    p = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    h = kernels.entropy_rows(p)
    np.testing.assert_allclose(h, [0.0, np.log(2)], atol=1e-15)


def test_pairwise_sq_dists_matches_naive(rng):
    x = rng.normal(size=(25, 4))
    d = kernels.pairwise_sq_dists(x)
    np.testing.assert_allclose(d, naive_sqdists(x), rtol=0, atol=1e-10)
    assert (np.diag(d) == 0).all()
    assert (d >= 0).all()


def test_backend_name_is_reported():
    assert kernels.active_backend() == "numpy"
