"""Batched zero-forcing quadratic forms: the one numerical core of hapsim.

Both sweep kernels take a stack of line-of-sight matrices ``los`` with shape
(L, r, c), per-trial scattering draws ``nlos`` with shape (T, L, r, c), and
per-link Rician mixing weights ``a``, ``b`` of shape (L,).  For each trial t
and link l they form H = a[l]*los[l] + b[l]*nlos[t, l] and evaluate

    q = h_k^H (I - H~ (H~^H H~)^{-1} H~^H) h_k

for the first column (first_stream_quadforms) or every column
(all_stream_quadforms).  Path gains and transmit power scale q from the
outside, so one kernel pass serves every point of a sweep.

With stream k's SNR equal to scale * q, this is the zero-forcing SNR
scale / [(H^H H)^{-1}]_{kk} without forming the inverse.  Nothing else in
hapsim computes a ZF SNR: simulator.TrialEnsemble is the only caller, and
the tests check both against an independent full-inverse oracle.

A matrix is singular when cond(H^H H), taken from the eigenvalues of the
Gram matrix, reaches CONDITION_LIMIT.  is_singular is the only place that
decision is made; a sweep counts such a trial as failed.
"""

from __future__ import annotations

import numpy as np

# Gram-matrix condition number at or above this is treated as singular.
CONDITION_LIMIT = 1e12


def _check_inputs(los: np.ndarray, nlos: np.ndarray, a: np.ndarray,
                  b: np.ndarray) -> tuple[np.ndarray, ...]:
    los = np.ascontiguousarray(los, dtype=np.complex128)
    nlos = np.ascontiguousarray(nlos, dtype=np.complex128)
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if nlos.ndim != 4 or los.ndim != 3:
        raise ValueError("nlos must be (T, L, r, c) and los (L, r, c)")
    if los.shape != nlos.shape[1:]:
        raise ValueError(
            f"los shape {los.shape} does not match nlos trailing {nlos.shape[1:]}"
        )
    n_links = los.shape[0]
    if a.shape != (n_links,) or b.shape != (n_links,):
        raise ValueError(f"mixing weights must have shape ({n_links},)")
    return los, nlos, a, b


def _mix(los, nlos, a, b):
    return a[:, None, None] * los + b[:, None, None] * nlos


def gram_condition(h: np.ndarray) -> np.ndarray:
    """cond(H^H H) of each (.., r, c) matrix; inf when H^H H is not positive."""
    gram = np.matmul(np.conj(h.swapaxes(-1, -2)), h)
    ev = np.linalg.eigvalsh(gram)
    lmin = ev[..., 0]
    safe = lmin > 0.0
    return np.where(safe, ev[..., -1] / np.where(safe, lmin, 1.0), np.inf)


def is_singular(cond: np.ndarray) -> np.ndarray:
    """True where a gram_condition value is too large for zero forcing."""
    return ~(np.asarray(cond) < CONDITION_LIMIT)


def column_quadform(h: np.ndarray, k: int, singular: np.ndarray) -> np.ndarray:
    """q for column k of each (.., r, c) matrix via a masked batched solve."""
    c = h.shape[-1]
    h1 = h[..., :, k]
    base = np.einsum("...r,...r->...", h1.conj(), h1).real
    if c == 1:
        return np.where(singular, 0.0, base)
    keep = [j for j in range(c) if j != k]
    ht = h[..., :, keep]
    gram = np.einsum("...rc,...rd->...cd", ht.conj(), ht)
    y = np.einsum("...rc,...r->...c", ht.conj(), h1)
    # Keep the batched solve well-posed on flagged entries; their q is unused.
    gram[singular] = np.eye(c - 1)
    y[singular] = 0.0
    z = np.linalg.solve(gram, y[..., None])[..., 0]
    q = base - np.einsum("...c,...c->...", y.conj(), z).real
    return np.where(singular, 0.0, np.maximum(q, 0.0))


def first_stream_quadforms(los: np.ndarray, nlos: np.ndarray, a: np.ndarray,
                           b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-(trial, link) first-column quadratic forms and singular flags.

    Returns:
        q: float64 (T, L); zero where the singular flag is set.
        singular: bool (T, L); True where cond(H^H H) >= CONDITION_LIMIT.
    """
    h = _mix(*_check_inputs(los, nlos, a, b))
    singular = is_singular(gram_condition(h))
    return column_quadform(h, 0, singular), singular


def all_stream_quadforms(los: np.ndarray, nlos: np.ndarray, a: np.ndarray,
                         b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-(trial, link, column) quadratic forms and per-matrix singular flags."""
    h = _mix(*_check_inputs(los, nlos, a, b))
    singular = is_singular(gram_condition(h))
    q = np.stack([column_quadform(h, k, singular) for k in range(h.shape[-1])],
                 axis=-1)
    return q, singular
