"""Batched zero-forcing quadratic forms: the one numerical core of hapsim.

Both sweep kernels take the one line-of-sight matrix ``los`` (r, c) that
their L links share, scattering draws ``nlos`` (T, L, r, c) and per-link
Rician mixing weights ``a``, ``b`` of shape (L,).  For each trial t and link
l they form H = a[l]*los + b[l]*nlos[t, l] and G = H^H H, and read stream
k's form q_k = 1 / [G^{-1}]_kk = h_k^H (I - P_k) h_k, where P_k projects
onto the other columns: column 0 (first_stream_quadforms) or every column
(all_stream_quadforms).  scale * q_k is stream k's zero-forcing SNR, so path
gains and power scale q from the outside and one kernel pass serves a whole
sweep.  simulator.TrialEnsemble is the only caller; it joins consecutive
hops of one shape and kernel into one call per chunk.

The kernel mixes H batch-first, in place from b nlos, and drops its own
reference to nlos, so a caller that handed over its only one frees the
draws there.  It copies H once batch-last, (r, c, n) with its columns in
the kernel's order, and frees the mix.  On that copy one loop, _factor,
forms the lower triangle of G, G[i, j] = sum_r conj(H[r, i]) H[r, j]
added up in index order of r, and factors G = L L^H (Cholesky), all as
whole-array numpy operations over the whole call: no BLAS or LAPACK call
per matrix.  At 4x4 that replaces one zgemm call per matrix; at 9x9 the
triangle's 405 complex products cost about as much as that call.  A pivot
that is not positive is replaced by one, so the factorization never raises.
- The all-stream kernel factors G in natural order, inverts L by forward
  substitution one diagonal of L^{-1} at a time, on contiguous copies of
  L's diagonals, and reads [G^{-1}]_kk as the k-th column sum of
  |L^{-1}|^2.
- The first-stream kernel orders column 0 last and stops at the factor:
  the last pivot is the Schur complement of the other columns, which is
  q_0.  It rounds differently from column 0 of the all-stream kernel, so
  the two agree to about cond(G) eps, not bit for bit.
Each step runs along the batch axis or sums a matrix axis in index order,
so a matrix's bits do not depend on the rest of its call; a lone matrix,
which would drop that axis and switch numpy to loops that round otherwise
(a scalar complex multiply, a pairwise sum), is copied twice.

A matrix is singular when cond(G), taken from the eigenvalues of G, reaches
CONDITION_LIMIT; is_singular alone makes that decision, and a sweep counts
such a trial as failed.  Eigenvalues, of G from np.matmul, are computed
only where the factor does not clear G.  The all-stream screen uses
cond(G) <= tr(G) ||L^{-1}||_F^2.  The first-stream screen has no L^{-1} and
bounds it by the comparison matrix M(L) (|diagonal|, -|off-diagonal|):
|L^{-1}| <= M(L)^{-1} entrywise and ||M(L)^{-1}||_inf = ||M(L)^{-1} e||_inf
for the ones vector e (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., ch. 8), so ||L^{-1}||_F^2 <= c ||M(L)^{-1} e||_inf^2,
one real forward substitution.  A completed Cholesky is backward stable,
L L^H = G + E with ||E||_2 <= gamma_{c+1} tr(G + E) (Higham, Thm 10.3), so
G is regular when every pivot is positive and its bound is below
_SCREEN_LIMIT.  Conversely every G the eigenvalue test passes meets
Demmel's condition for Cholesky to complete, c(c+1) u cond(G) < 1
(Higham, section 10.1), for c up to about 90.  Flagged matrices get q = 0.
On the shipped scenarios (seed 12345, 1000 trials) neither screen sends a
single matrix to the eigenvalue test.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

# Gram-matrix condition number at or above this is treated as singular.
CONDITION_LIMIT = 1e12
# A condition bound below this clears a matrix without its eigenvalues; the
# factor of ten absorbs the bound's and the test's errors, about cond(G) eps,
# and the test's own G, which rounds otherwise than the factor's.
_SCREEN_LIMIT = 1e11


def _condition(gram: np.ndarray) -> np.ndarray:
    ev = np.linalg.eigvalsh(gram)
    lmin = ev[..., 0]
    safe = lmin > 0.0
    return np.where(safe, ev[..., -1] / np.where(safe, lmin, 1.0), np.inf)


def is_singular(cond: np.ndarray) -> np.ndarray:
    """True where cond(H^H H) is too large for zero forcing."""
    return ~(np.asarray(cond) < CONDITION_LIMIT)


def _batch_last(h: np.ndarray, shift: int) -> np.ndarray:
    """A batch-last (r, c, m) copy of a (n, r, c) stack, columns rolled left.

    Column shift comes first and the columns before it go last; m = n,
    except that a lone matrix is copied twice.
    """
    n, r, c = h.shape
    t = h.transpose(1, 2, 0)
    out = np.empty((r, c, 2 if n == 1 else n), dtype=np.complex128)
    out[:, :c - shift] = t[:, shift:]
    out[:, c - shift:] = t[:, :shift]
    return out


def _factor(h: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cholesky factor of G = H^H H from a batch-last (r, c, m) stack H.

    Returns L batch-last (c, c, m) in the lower triangle, tr(G), where every
    pivot is positive, and the last pivot, the Schur complement of the other
    columns (one where it is not positive).  Only the lower triangle of G is
    formed, G[i, j] = sum_r conj(H[r, i]) H[r, j] added up in index order of
    r, one row r of H at a time into one array per diagonal d = i - j: its
    products are the contiguous slices conj(H[r, d:]) * H[r, :c-d], which
    numpy multiplies without broadcasting, and only row r of conj(H) is
    held.  The upper triangle is never written or read.
    """
    r, c, m = h.shape
    if not r:  # G = 0, the Gram matrix of one zero row
        h = np.zeros((1, c, m), dtype=np.complex128)
    # G first: it then takes the space its caller has just freed, which the
    # smaller arrays below would otherwise split.
    g = np.empty((c, c, m), dtype=np.complex128)
    hc = np.conj(h[0])  # one row of H at a time
    diagonals = [hc[d:] * h[0, :c - d] for d in range(c)]
    for row in h[1:]:
        np.conj(row, out=hc)
        for d in range(c):
            diagonals[d] += hc[d:] * row[:c - d]
    del hc
    rows = g.reshape(c * c, m)  # G[i, i - d] is row i (c + 1) - d
    for d in range(c):
        rows[d * c::c + 1] = diagonals[d]
    del diagonals  # the update below needs G alone
    trace = sum(g[j, j].real for j in range(c))
    positive = np.ones(m, dtype=bool)
    for j in range(c):  # column j of L overwrites column j of G
        g[j:, j] -= (g[j:, :j] * g[j, :j].conj()).sum(axis=1)
        pivot = g[j, j].real
        positive &= pivot > 0.0
        # A new array: the sqrt below overwrites the view's pivot.
        pivot = np.where(pivot > 0.0, pivot, 1.0)
        g[j, j] = np.sqrt(pivot)
        g[j + 1:, j] /= g[j, j].real
    return g, trace, positive, pivot


def _all_forms(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every q_k (m, c) of a batch-last (r, c, m) H and where G is cleared.

    X = L^{-1} is built one diagonal d = i - j at a time from contiguous
    copies of L's diagonals: X[j + d, j] = -(sum_k L[j + d, k] X[k, j]) /
    L[j + d, j + d], the sum over k = j .. j + d - 1 in that order, so the
    zero upper triangle is never stored or multiplied.  [G^{-1}]_jj is then
    sum_d |X[j + d, j]|^2, added up in order of d.
    """
    c, m = h.shape[1:]
    g, trace, cleared, _ = _factor(h)
    rows = g.reshape(c * c, m)  # L[j + d, j] is row j (c + 1) + d c
    lower = [None] + [rows[d * c::c + 1].copy() for d in range(1, c)]
    scale = -1.0 / rows[::c + 1].real  # -1 / L[j, j]
    del g, rows
    x = [-scale.astype(np.complex128)]  # X[j + d, j] is x[d][j]
    for d in range(1, c):
        acc = lower[d] * x[0][:c - d]
        for e in range(1, d):
            acc += lower[d - e][e:e + c - d] * x[e][:c - d]
        x.append(acc * scale[d:])
    inv_diag = x[0].real ** 2 + x[0].imag ** 2
    for d in range(1, c):
        inv_diag[:c - d] += x[d].real ** 2 + x[d].imag ** 2
    cleared &= trace * inv_diag.sum(axis=0) < _SCREEN_LIMIT
    return 1.0 / inv_diag.T, cleared


def _first_forms(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q_0 (m, 1) of a batch-last (r, c, m) H, column 0 last, and where G is
    cleared."""
    g, trace, cleared, q0 = _factor(h)
    cleared &= _comparison_bound(g, trace) < _SCREEN_LIMIT
    return q0[:, None], cleared


def _comparison_bound(g: np.ndarray, trace: np.ndarray) -> np.ndarray:
    """tr(G) c ||M(L)^{-1} e||_inf^2 >= cond(G) from a batch-last factor L."""
    c = g.shape[0]
    x = np.empty(g.shape[1:])  # x = M(L)^{-1} e by forward substitution
    for i in range(c):
        x[i] = (1.0 + (np.abs(g[i, :i]) * x[:i]).sum(axis=0)) / g[i, i].real
    return trace * c * x.max(axis=0) ** 2


def _mixed(los: np.ndarray, nlos: np.ndarray, a: np.ndarray,
           b: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    """H = a los + b nlos as an (n, r, c) stack, made in place from b nlos,
    and the batch shape (T, L)."""
    los = np.ascontiguousarray(los, dtype=np.complex128)
    nlos = np.ascontiguousarray(nlos, dtype=np.complex128)
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if nlos.ndim != 4:
        raise ValueError(f"nlos must be (T, L, r, c), got shape {nlos.shape}")
    if los.shape != nlos.shape[2:]:
        raise ValueError(f"los shape {los.shape} does not match nlos shape "
                         f"{nlos.shape}: los is the one (r, c) matrix that "
                         "every link shares")
    n_links = nlos.shape[1]
    if a.shape != (n_links,) or b.shape != (n_links,):
        raise ValueError(f"mixing weights must have shape ({n_links},)")
    h = b[:, None, None] * nlos
    h += a[:, None, None] * los
    return h.reshape(math.prod(h.shape[:2]), *h.shape[2:]), h.shape[:2]


def _quadforms(h: np.ndarray, batch: tuple[int, int],
               forms: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
               shift: int) -> tuple[np.ndarray, np.ndarray]:
    """q (T, L, k) from forms, zero where singular, and the flags (T, L).

    forms gets H batch-last, columns rolled left by shift; the eigenvalue
    test rolls the columns of that copy back.
    """
    n = math.prod(batch)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q, cleared = forms(h)
        singular = ~cleared[:n]
        if singular.any():  # eigvalsh costs a call even on no matrices
            flagged = np.ascontiguousarray(np.roll(
                h[..., :n][..., singular], shift, axis=1).transpose(2, 0, 1))
            singular[singular] = is_singular(_condition(
                np.matmul(np.conj(flagged.swapaxes(-1, -2)), flagged)))
        q = np.where(singular[:, None], 0.0, q[:n])
    return q.reshape(*batch, q.shape[-1]), singular.reshape(batch)


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
    h, batch = _mixed(los, nlos, a, b)
    del nlos  # the draws go here when the caller handed over its reference
    h = _batch_last(h, 1)  # and the mix once copied
    q, singular = _quadforms(h, batch, _first_forms, 1)
    return q[..., 0], singular


def all_stream_quadforms(los: np.ndarray, nlos: np.ndarray, a: np.ndarray,
                         b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-(trial, link, column) quadratic forms and per-matrix singular flags."""
    h, batch = _mixed(los, nlos, a, b)
    del nlos  # as in first_stream_quadforms
    h = _batch_last(h, 0)
    return _quadforms(h, batch, _all_forms, 0)
