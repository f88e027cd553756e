"""Batched zero-forcing quadratic forms: the one numerical core of hapsim.

Both sweep kernels take a stack of line-of-sight matrices ``los`` with shape
(L, r, c), per-trial scattering draws ``nlos`` with shape (T, L, r, c), and
per-link Rician mixing weights ``a``, ``b`` of shape (L,).  For each trial t
and link l they form H = a[l]*los[l] + b[l]*nlos[t, l] and G = H^H H, and
read stream k's form q_k = 1 / [G^{-1}]_kk = h_k^H (I - P_k) h_k, where
P_k projects onto the other columns: column 0 (first_stream_quadforms) or
every column (all_stream_quadforms).  scale * q_k is stream k's zero-forcing
SNR, so path gains and power scale q from the outside and one kernel pass
serves a whole sweep.  simulator.TrialEnsemble is the only caller.

Each G is factored G = L L^H (Cholesky) by one loop, _factor, as
whole-array numpy operations over the whole call, copied batch-last
(c, c, n) with its columns in a given order: no LAPACK call per matrix.  A
pivot that is not positive is replaced by one, so the factorization never
raises.
- The all-stream kernel factors G in natural order, inverts L by forward
  substitution and reads [G^{-1}]_kk as the k-th column sum of
  |L^{-1}|^2.
- The first-stream kernel orders column 0 last and stops at the factor:
  the last pivot is the Schur complement of the other columns, which is
  q_0.  It rounds differently from column 0 of the all-stream kernel, so
  the two agree to about cond(G) eps, not bit for bit.
Each step runs along the batch axis or sums a matrix axis in index order,
so a matrix's bits do not depend on the rest of its call; a lone matrix,
which would drop that axis and switch numpy to loops that round otherwise
(a scalar complex multiply, a pairwise sum), is factored as two copies.

A matrix is singular when cond(G), taken from the eigenvalues of G, reaches
CONDITION_LIMIT; is_singular alone makes that decision, and a sweep counts
such a trial as failed.  Eigenvalues are computed only where the factor
does not clear G.  The all-stream screen uses cond(G) <= tr(G)
||L^{-1}||_F^2.  The first-stream screen has no L^{-1} and bounds it by the
comparison matrix M(L) (|diagonal|, -|off-diagonal|): |L^{-1}| <= M(L)^{-1}
entrywise and ||M(L)^{-1}||_inf = ||M(L)^{-1} e||_inf for the ones vector
e (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 8),
so ||L^{-1}||_F^2 <= c ||M(L)^{-1} e||_inf^2, one real forward
substitution.  A completed Cholesky is backward stable, L L^H = G + E with
||E||_2 <= gamma_{c+1} tr(G + E) (Higham, Thm 10.3), so G is regular when
every pivot is positive and its bound is below _SCREEN_LIMIT.  Conversely
every G the eigenvalue test passes meets Demmel's condition for Cholesky
to complete, c(c+1) u cond(G) < 1 (Higham, section 10.1), for c up to
about 90.  Flagged matrices get q = 0.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

# Gram-matrix condition number at or above this is treated as singular.
CONDITION_LIMIT = 1e12
# A condition bound below this clears a matrix without its eigenvalues; the
# factor of ten absorbs the bound's and the test's errors, about cond(G) eps.
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


def is_singular(cond: np.ndarray) -> np.ndarray:
    """True where cond(H^H H) is too large for zero forcing."""
    return ~(np.asarray(cond) < CONDITION_LIMIT)


def _factor(gram: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cholesky factor of a (n, c, c) stack with its columns taken in order.

    Returns L batch-last (c, c, m) in the lower triangle, tr(G), where every
    pivot is positive, and the last pivot, the Schur complement of the other
    columns (one where it is not positive); m = n, except that a lone matrix
    is factored as two copies.  The gather copies G, so the factor never
    writes into the caller's stack.
    """
    n, c = gram.shape[:2]
    stack = gram[[0, 0]] if n == 1 else gram
    g = np.ascontiguousarray(stack.transpose(1, 2, 0)[np.ix_(order, order)])
    trace = sum(g[j, j].real for j in range(c))
    positive = np.ones(g.shape[-1], dtype=bool)
    for j in range(c):  # column j of L overwrites column j of G
        g[j:, j] -= (g[j:, :j] * g[j, :j].conj()).sum(axis=1)
        pivot = g[j, j].real
        positive &= pivot > 0.0
        # A new array: the sqrt below overwrites the view's pivot.
        pivot = np.where(pivot > 0.0, pivot, 1.0)
        g[j, j] = np.sqrt(pivot)
        g[j + 1:, j] /= g[j, j].real
    return g, trace, positive, pivot


def _all_forms(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every q_k (n, c) of a (n, c, c) stack and where the screen clears G."""
    n, c = gram.shape[:2]
    g, trace, cleared, _ = _factor(gram, np.arange(c))
    inv = np.zeros_like(g)
    for i in range(c):
        inv[i, i] = 1.0 / g[i, i].real
        inv[i, :i] = (g[i, :i, None] * inv[:i, :i]).sum(axis=0) * -inv[i, i].real
    inv_diag = (inv.real ** 2 + inv.imag ** 2).sum(axis=0)
    cleared &= trace * inv_diag.sum(axis=0) < _SCREEN_LIMIT
    return 1.0 / inv_diag.T[:n], cleared[:n]


def _first_forms(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q_0 (n, 1) of a (n, c, c) stack and where the screen clears G."""
    n, c = gram.shape[:2]
    g, trace, cleared, q0 = _factor(gram, np.roll(np.arange(c), -1))
    cleared &= _comparison_bound(g, trace) < _SCREEN_LIMIT
    return q0[:n, None], cleared[:n]


def _comparison_bound(g: np.ndarray, trace: np.ndarray) -> np.ndarray:
    """tr(G) c ||M(L)^{-1} e||_inf^2 >= cond(G) from a batch-last factor L."""
    c = g.shape[0]
    x = np.empty(g.shape[1:])  # x = M(L)^{-1} e by forward substitution
    for i in range(c):
        x[i] = (1.0 + (np.abs(g[i, :i]) * x[:i]).sum(axis=0)) / g[i, i].real
    return trace * c * x.max(axis=0) ** 2


def _quadforms(los: np.ndarray, nlos: np.ndarray, a: np.ndarray, b: np.ndarray,
               forms: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
               ) -> tuple[np.ndarray, np.ndarray]:
    """q (T, L, k) from forms, zero where singular, and the flags (T, L)."""
    los, nlos, a, b = _check_inputs(los, nlos, a, b)
    gram = _gram(a[:, None, None] * los + b[:, None, None] * nlos)
    flat = gram.reshape(-1, *gram.shape[-2:])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q, cleared = forms(flat)
        singular = ~cleared
        if singular.any():  # eigvalsh costs a call even on no matrices
            singular[singular] = is_singular(_condition(flat[singular]))
        q = np.where(singular[:, None], 0.0, q)
    return (q.reshape(*gram.shape[:-2], q.shape[-1]),
            singular.reshape(gram.shape[:-2]))


def first_stream_quadforms(los: np.ndarray, nlos: np.ndarray, a: np.ndarray,
                           b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-(trial, link) first-column quadratic forms and singular flags.

    q_0 is the last Cholesky pivot of G with column 0 ordered last, so no
    L^{-1} is formed; it agrees with all_stream_quadforms' column 0 to about
    cond(G) eps, not bit for bit.  The flags are the same decision.

    Returns:
        q: float64 (T, L); zero where the singular flag is set.
        singular: bool (T, L); True where cond(H^H H) >= CONDITION_LIMIT.
    """
    q, singular = _quadforms(los, nlos, a, b, _first_forms)
    return q[..., 0], singular


def all_stream_quadforms(los: np.ndarray, nlos: np.ndarray, a: np.ndarray,
                         b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-(trial, link, column) quadratic forms and per-matrix singular flags."""
    return _quadforms(los, nlos, a, b, _all_forms)
