"""Shared randomized-instance generators for the test suite."""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy loads, so that wall-time
# gates do not depend on what else shares the machine's cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy.linalg  # noqa: E402
from hypothesis import settings  # noqa: E402

from daepencil import MatrixPencil  # noqa: E402

# Property suites draw the same few examples on every run, with no example
# database and no per-example deadline, so that they stay deterministic and
# fast, and do not fail on timing when other processes share the machine.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None, max_examples=6)
settings.load_profile("tier1")


@pytest.fixture
def getrf_calls(monkeypatch) -> list:
    """The shapes of the matrices LAPACK's getrf factorises during the test, from every function that
    ``scipy.linalg.get_lapack_funcs`` hands out, alone or in a tuple."""
    calls, lapack = [], scipy.linalg.get_lapack_funcs

    def counted(func):
        return lambda a, *args, **kwargs: calls.append(a.shape) or func(a, *args, **kwargs)

    def get_lapack_funcs(names, arrays=()):
        funcs = lapack(names, arrays)
        if isinstance(names, str):
            return counted(funcs) if names == "getrf" else funcs
        return [counted(f) if name == "getrf" else f for name, f in zip(names, funcs)]

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", get_lapack_funcs)
    return calls


def random_complex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_stable(rng: np.random.Generator, n: int, margin: float = 0.5) -> np.ndarray:
    """Random matrix with all eigenvalues in Re < -margin."""
    M = random_complex(rng, n, n)
    shift = float(np.max(np.linalg.eigvals(M).real)) + margin
    return M - shift * np.eye(n)


def random_well_conditioned(rng: np.random.Generator, n: int, cond_max: float = 10.0) -> np.ndarray:
    """Random matrix with condition number at most cond_max."""
    U = np.linalg.qr(random_complex(rng, n, n))[0]
    V = np.linalg.qr(random_complex(rng, n, n))[0]
    sigma = np.exp(rng.uniform(0.0, np.log(cond_max), n))
    return (U * (sigma / sigma.max())) @ V.conj().T


def random_nilpotent(rng: np.random.Generator, d: int) -> np.ndarray:
    return np.triu(random_complex(rng, d, d), k=1)


def random_weierstrass_blocks(
    rng: np.random.Generator,
    d1: int,
    d2: int,
    stable: bool = False,
    cond_max: float = 10.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(A1, N, G, H) of the regular pencil G (blkdiag(I, N), blkdiag(A1, I)) H."""
    A1 = random_stable(rng, d1) if stable else random_complex(rng, d1, d1)
    N = random_nilpotent(rng, d2)
    G = random_well_conditioned(rng, d1 + d2, cond_max)
    H = random_well_conditioned(rng, d1 + d2, cond_max)
    return A1, N, G, H


def random_regular_pencil(
    rng: np.random.Generator,
    d1: int,
    d2: int,
    stable: bool = False,
    cond_max: float = 10.0,
) -> MatrixPencil:
    """Random regular pencil equivalent to (blkdiag(I, N), blkdiag(A1, I))."""
    A1, N, G, H = random_weierstrass_blocks(rng, d1, d2, stable, cond_max)
    E0 = scipy.linalg.block_diag(np.eye(d1), N)
    A0 = scipy.linalg.block_diag(A1, np.eye(d2))
    return MatrixPencil(G @ E0 @ H, G @ A0 @ H)
