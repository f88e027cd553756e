"""Rician channel components.

Every link mixes a deterministic line-of-sight matrix with an i.i.d.
Rayleigh scattering matrix,

    H = sqrt(kappa / (1 + kappa)) * H_los + sqrt(1 / (1 + kappa)) * H_nlos,

then applies a scalar path gain ref_gain / distance^2.  This module holds
the dB conversion and the line-of-sight part.  The trial ensemble draws
the scattering part from each trial's stream, the kernels mix the two and
the ensemble applies the path gain.  The line-of-sight part is the outer
product of receive and transmit steering vectors, so its rank is one
regardless of the array sizes, and it depends on the configured
wavelength, spacings and angles only, never on the link distance.
"""

from __future__ import annotations

import math

import numpy as np

from .capacity import NetworkConfig


def db_to_linear(value_db: float) -> float:
    """Convert a decibel quantity to linear scale."""
    try:
        return float(10.0 ** (float(value_db) / 10.0))
    except OverflowError:
        raise ValueError(
            f"{float(value_db)!r} dB is too large for a linear value") from None


def _steering(num_elements: int, spacing_m: float, wavelength_m: float,
              angle_rad: float) -> np.ndarray:
    if int(num_elements) < 1:
        raise ValueError(f"array size must be >= 1, got {num_elements!r}")
    idx = np.arange(int(num_elements))
    phase = 2.0 * np.pi * (spacing_m / wavelength_m) * idx * np.sin(angle_rad)
    return np.exp(1j * phase)


def los_channel(cfg: NetworkConfig, rows: int, cols: int) -> np.ndarray:
    """Unit-modulus rank-one line-of-sight matrix a_rx(theta_A) a_tx(theta_D)^T.

    Args:
        cfg: network whose wavelength, spacings, aoa_deg and aod_deg apply.
        rows: number of receive elements.
        cols: number of transmit elements.

    Returns:
        Complex (rows, cols) matrix with |entry| = 1 everywhere.
    """
    a_rx = _steering(rows, cfg.rx_spacing_m, cfg.wavelength_m,
                     math.radians(cfg.aoa_deg))
    a_tx = _steering(cols, cfg.tx_spacing_m, cfg.wavelength_m,
                     math.radians(cfg.aod_deg))
    return np.outer(a_rx, a_tx)
