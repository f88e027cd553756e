"""Zero-forcing per-stream SNR of one channel matrix: the scalar API.

For a channel H = [h_1 H~] (column k pulled out, the rest collected in H~),
the ZF post-detection SNR of stream k is

    snr = snr_scale * h_1^H (I - H~ (H~^H H~)^{-1} H~^H) h_1,

which equals snr_scale / [(H^H H)^{-1}]_{kk} without ever forming the full
inverse; explicit inverses appear only in test oracles.  The quadratic form
is the sweep kernel's column_quadform evaluated on a batch of one, so these
functions and the Monte Carlo sweeps share one implementation.

Nearly collinear columns (for example the large-kappa Rician regime, where
every column collapses onto the rank-one line-of-sight matrix) make the Gram
matrix numerically singular.  Every entry point applies the kernels'
condition test, cond(H^H H) >= CONDITION_LIMIT, and raises
SingularChannelError exactly where a sweep would count a failed trial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import CONDITION_LIMIT, gram_condition


class SingularChannelError(np.linalg.LinAlgError):
    """Channel columns too correlated for zero forcing."""

    def __init__(self, condition_number: float):
        self.condition_number = float(condition_number)
        super().__init__(
            "channel is numerically rank deficient: cond(H^H H) = "
            f"{self.condition_number:.3e} >= {CONDITION_LIMIT:.1e}"
        )


@dataclass(frozen=True)
class StreamSnr:
    """Post-detection SNR of one spatial stream."""

    stream_index: int
    snr_linear: float

    def __post_init__(self) -> None:
        if not float(self.snr_linear) >= 0.0:
            raise ValueError(f"snr_linear must be >= 0, got {self.snr_linear!r}")


def _as_channel(h: np.ndarray, allow_empty: bool = False) -> np.ndarray:
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2:
        raise ValueError(f"channel must be a 2-D matrix, got ndim={h.ndim}")
    if h.shape[0] < 1 or (h.shape[1] < 1 and not allow_empty):
        raise ValueError(f"channel must be non-empty, got shape {h.shape}")
    if h.size and not np.all(np.isfinite(h)):
        raise ValueError("channel entries must be finite")
    return h


def _check_rank(h: np.ndarray) -> None:
    cond = gram_condition(h)
    if kernels.is_singular(cond):
        raise SingularChannelError(cond)


def projection_complement(h_tilde: np.ndarray) -> np.ndarray:
    """Projector onto the orthogonal complement of the columns of h_tilde.

    Returns I - H~ (H~^H H~)^{-1} H~^H.  The result is Hermitian and
    idempotent, and annihilates every column of h_tilde.  An empty h_tilde
    (zero columns) yields the identity.

    Raises:
        SingularChannelError: h_tilde is numerically rank deficient; the
            condition number rides on the exception.
    """
    h = _as_channel(h_tilde, allow_empty=True)
    n, c = h.shape
    if c == 0:
        return np.eye(n, dtype=np.complex128)
    _check_rank(h)
    hh = h.conj().T
    return np.eye(n, dtype=np.complex128) - h @ np.linalg.solve(hh @ h, hh)


def _stream_snrs(h: np.ndarray, streams, snr_scale: float) -> list[StreamSnr]:
    """Kernel quadratic forms of the given columns of h, as a batch of one."""
    _check_rank(h)
    batch, regular = h[None], np.zeros(1, dtype=bool)
    return [StreamSnr(k, snr_scale
                      * float(kernels.column_quadform(batch, k, regular)[0]))
            for k in streams]


def zf_stream_snr(h: np.ndarray, stream_index: int, snr_scale: float) -> StreamSnr:
    """ZF SNR of one stream of channel h at transmit scale snr_scale.

    Args:
        h: complex channel matrix, full column rank.
        stream_index: which column is detected, 0-based.
        snr_scale: per-symbol transmit SNR E_s/(noise * streams), > 0.

    Returns:
        StreamSnr with snr_linear = snr_scale * h_1^H P h_1.
    """
    h = _as_channel(h)
    if not 0 <= int(stream_index) < h.shape[1]:
        raise ValueError(
            f"stream_index {stream_index!r} out of range for {h.shape[1]} columns"
        )
    if not float(snr_scale) > 0.0:
        raise ValueError(f"snr_scale must be positive, got {snr_scale!r}")
    return _stream_snrs(h, [int(stream_index)], float(snr_scale))[0]


def zf_all_streams(h: np.ndarray, snr_scale: float) -> list[StreamSnr]:
    """ZF SNR of every stream of h, in column order."""
    h = _as_channel(h)
    if not float(snr_scale) > 0.0:
        raise ValueError(f"snr_scale must be positive, got {snr_scale!r}")
    return _stream_snrs(h, range(h.shape[1]), float(snr_scale))
