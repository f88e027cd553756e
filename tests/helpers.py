"""Shared test utilities: seeded random matrices with conditioning control."""

from __future__ import annotations

import numpy as np


def random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) / np.sqrt(2.0)


def well_conditioned(rng: np.random.Generator, rows: int, cols: int,
                     cond_max: float = 1e6) -> np.ndarray:
    """Rejection-sample a complex Gaussian matrix with cond below cond_max."""
    while True:
        h = random_complex(rng, rows, cols)
        s = np.linalg.svd(h, compute_uv=False)
        if s[-1] > 0.0 and s[0] / s[-1] < cond_max:
            return h


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, n, n))
    d = np.diag(r)
    return q * (d / np.abs(d))


def kernel_inputs(hs) -> tuple[np.ndarray, ...]:
    """Kernel arguments whose mixed channels are exactly the matrices hs.

    One trial per matrix, one link, zero line-of-sight and weights a = 0,
    b = 1, so the kernel's H = a * los + b * nlos is each matrix unchanged.
    """
    hs = np.asarray(hs, dtype=np.complex128)
    return np.zeros((1, *hs.shape[1:])), hs[:, None], np.zeros(1), np.ones(1)
