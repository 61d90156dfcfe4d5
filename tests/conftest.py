import numpy as np
import pytest

from covfield import KernelConfig, PointSet, kernel_matrix, preset_observations


def dense_posterior_oracle(S: PointSet, X: PointSet, Y: PointSet, cfg: KernelConfig):
    """Posterior covariance via the explicit dense inverse - the independent
    reference all fast paths are checked against."""
    K_SS = kernel_matrix(S, S, cfg)
    if cfg.tau > 0:
        K_SS = K_SS + cfg.tau**2 * np.eye(S.n)
    inv = np.linalg.inv(K_SS)
    return kernel_matrix(X, Y, cfg) - kernel_matrix(X, S, cfg) @ inv @ kernel_matrix(S, Y, cfg)


@pytest.fixture
def uniform1d():
    return preset_observations("uniform1d")


@pytest.fixture
def nonuniform1d():
    return preset_observations("nonuniform1d")


def unit_grid(n: int) -> PointSet:
    return PointSet(np.linspace(0.0, 1.0, n)[:, None])


def memo_model(d: int, tau: float) -> tuple[PointSet, KernelConfig]:
    """Six seeded observations in [0, 1]^d and their kernel, for the
    per-point memo tests."""
    S = PointSet(np.random.default_rng(4).uniform(0.0, 1.0, (6, d)))
    return S, KernelConfig(sigma=0.3, tau=tau)


def memo_pairs(S: PointSet, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Query pairs for the per-point memo tests: random pairs in [0, 1]^d,
    pairs with one or both points on S, and a point of S with itself."""
    rng = np.random.default_rng(seed)
    off = rng.uniform(0.0, 1.0, (2 * S.n, 2, S.d))
    on = S.coords
    pairs = [(x, y) for x, y in off]
    pairs += [(on[i], off[i, 0]) for i in range(S.n)]
    pairs += [(off[i, 1], on[i]) for i in range(S.n)]
    pairs += [(on[i], on[(i + 1) % S.n]) for i in range(S.n)]
    pairs += [(on[0], on[0])]
    return pairs
