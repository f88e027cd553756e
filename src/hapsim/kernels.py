"""Batched zero-forcing quadratic forms: the one numerical core of hapsim.

Both sweep kernels take a stack of line-of-sight matrices ``los`` with shape
(L, r, c), per-trial scattering draws ``nlos`` with shape (T, L, r, c), and
per-link Rician mixing weights ``a``, ``b`` of shape (L,).  For each trial t
and link l they form H = a[l]*los[l] + b[l]*nlos[t, l], the Gram matrix
G = H^H H and one batched inverse of it, and read every stream's form off
the diagonal:

    q_k = 1 / [G^{-1}]_kk = h_k^H (I - P_k) h_k,

where P_k projects onto the other columns.  first_stream_quadforms returns
column 0 of that computation and all_stream_quadforms every column.  With
stream k's SNR equal to scale * q_k this is the zero-forcing SNR
scale / [(H^H H)^{-1}]_kk.  Path gains and transmit power scale q from the
outside, so one kernel pass serves every point of a sweep.  Nothing else in
hapsim computes a ZF SNR: simulator.TrialEnsemble is the only caller, and
the tests check both against independent oracles.

A matrix is singular when cond(G), taken from the eigenvalues of G, reaches
CONDITION_LIMIT; is_singular is the only place that decision is made, and a
sweep counts such a trial as failed.  The eigenvalues are needed only for
matrices the inverse cannot clear.  With X the computed inverse and
R = I - X G, ||R||_F <= 1/2 makes G invertible with ||G^{-1}|| <= 2 ||X||_F,
so cond(G) <= 2 tr(G) ||X||_F.  A matrix is cleared, not singular, when
that bound is below _SCREEN_LIMIT, the residual is that small and every
diagonal entry of X is positive.  The residual test is what makes the bound
hold: on an exactly rank-deficient G the LU inverse returns no error but a
garbage X, whose diagonal can be negative (making tr(G) tr(X) negative) or
positive with a small trace bound, and only X G far from I exposes it.
The other matrices go through gram_condition's eigenvalue test.  When the
batched inverse raises LinAlgError (an exactly zero pivot), every matrix of
the call goes through that test, and the flagged ones are replaced by the
identity before inverting again.  Flagged matrices get q = 0.
"""

from __future__ import annotations

import numpy as np

# Gram-matrix condition number at or above this is treated as singular.
CONDITION_LIMIT = 1e12
# A condition bound below this clears a matrix without its eigenvalues.  The
# factor of ten to CONDITION_LIMIT absorbs the rounding of the bound and of
# the eigenvalue test, both relative errors of about cond(G) * eps.
_SCREEN_LIMIT = 1e11


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


def _gram(h: np.ndarray) -> np.ndarray:
    return np.matmul(np.conj(h.swapaxes(-1, -2)), h)


def _condition(gram: np.ndarray) -> np.ndarray:
    ev = np.linalg.eigvalsh(gram)
    lmin = ev[..., 0]
    safe = lmin > 0.0
    return np.where(safe, ev[..., -1] / np.where(safe, lmin, 1.0), np.inf)


def gram_condition(h: np.ndarray) -> np.ndarray:
    """cond(H^H H) of each (.., r, c) matrix; inf when H^H H is not positive."""
    return _condition(_gram(h))


def is_singular(cond: np.ndarray) -> np.ndarray:
    """True where a gram_condition value is too large for zero forcing."""
    return ~(np.asarray(cond) < CONDITION_LIMIT)


def _screened_gate(gram: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """is_singular(cond(gram)), with eigenvalues only where inv cannot clear."""
    with np.errstate(invalid="ignore", over="ignore"):
        resid = np.matmul(inv, gram)
        resid -= np.eye(gram.shape[-1])
        bound = (2.0 * np.trace(gram, axis1=-2, axis2=-1).real
                 * np.linalg.norm(inv, axis=(-2, -1)))
        cleared = (np.linalg.norm(resid, axis=(-2, -1)) <= 0.5) & (
            bound < _SCREEN_LIMIT)
    cleared &= (np.diagonal(inv, axis1=-2, axis2=-1).real > 0.0).all(axis=-1)
    singular = np.zeros(cleared.shape, dtype=bool)
    singular[~cleared] = is_singular(_condition(gram[~cleared]))
    return singular


def _quadforms(los: np.ndarray, nlos: np.ndarray, a: np.ndarray,
               b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q (T, L, c), zero where singular, and the singular flags (T, L)."""
    los, nlos, a, b = _check_inputs(los, nlos, a, b)
    gram = _gram(a[:, None, None] * los + b[:, None, None] * nlos)
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        singular = is_singular(_condition(gram))
        gram[singular] = np.eye(gram.shape[-1])
        inv = np.linalg.inv(gram)
    else:
        singular = _screened_gate(gram, inv)
    inv_diag = np.diagonal(inv, axis1=-2, axis2=-1).real
    q = np.divide(1.0, inv_diag, out=np.zeros(inv_diag.shape),
                  where=~singular[..., None])
    return q, singular


def first_stream_quadforms(los: np.ndarray, nlos: np.ndarray, a: np.ndarray,
                           b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-(trial, link) first-column quadratic forms and singular flags.

    Returns:
        q: float64 (T, L); zero where the singular flag is set.
        singular: bool (T, L); True where cond(H^H H) >= CONDITION_LIMIT.
    """
    q, singular = _quadforms(los, nlos, a, b)
    return q[..., 0], singular


def all_stream_quadforms(los: np.ndarray, nlos: np.ndarray, a: np.ndarray,
                         b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-(trial, link, column) quadratic forms and per-matrix singular flags."""
    return _quadforms(los, nlos, a, b)
