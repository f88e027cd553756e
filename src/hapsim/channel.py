"""Rician channel synthesis.

Every link mixes a deterministic line-of-sight matrix with an i.i.d.
Rayleigh scattering matrix,

    H = sqrt(kappa / (1 + kappa)) * H_los + sqrt(1 / (1 + kappa)) * H_nlos,

then applies a scalar path gain ref_gain / distance^2.  The line-of-sight
part is the outer product of receive and transmit steering vectors, so its
rank is one regardless of the array sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import LinkGeometry


def db_to_linear(value_db: float) -> float:
    """Convert a decibel quantity to linear scale."""
    try:
        return float(10.0 ** (float(value_db) / 10.0))
    except OverflowError:
        raise ValueError(
            f"{float(value_db)!r} dB is too large for a linear value") from None


@dataclass(frozen=True)
class RicianLink:
    """Everything needed to synthesize one link realization.

    kappa is the linear (not dB) power ratio between the line-of-sight and
    scattered parts.  ref_gain is the channel power gain at 1 m, so the
    applied amplitude factor is ref_gain / distance_m^2.
    """

    kappa: float
    ref_gain: float
    distance_m: float
    rows: int
    cols: int
    geometry: LinkGeometry

    def __post_init__(self) -> None:
        if not float(self.kappa) >= 0.0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa!r}")
        if not float(self.ref_gain) > 0.0:
            raise ValueError(f"ref_gain must be positive, got {self.ref_gain!r}")
        if not float(self.distance_m) > 0.0:
            raise ValueError(f"distance_m must be positive, got {self.distance_m!r}")
        if int(self.rows) < 1 or int(self.cols) < 1:
            raise ValueError(
                f"matrix shape must be positive, got ({self.rows!r}, {self.cols!r})"
            )


def _steering(num_elements: int, spacing_m: float, wavelength_m: float,
              angle_rad: float) -> np.ndarray:
    if int(num_elements) < 1:
        raise ValueError(f"array size must be >= 1, got {num_elements!r}")
    idx = np.arange(int(num_elements))
    phase = 2.0 * np.pi * (spacing_m / wavelength_m) * idx * np.sin(angle_rad)
    return np.exp(1j * phase)


def los_channel(geometry: LinkGeometry, rows: int, cols: int) -> np.ndarray:
    """Unit-modulus rank-one line-of-sight matrix a_rx(theta_A) a_tx(theta_D)^T.

    Args:
        geometry: link geometry supplying spacings, wavelength, and angles.
        rows: number of receive elements.
        cols: number of transmit elements.

    Returns:
        Complex (rows, cols) matrix with |entry| = 1 everywhere.
    """
    a_rx = _steering(rows, geometry.rx_spacing_m, geometry.wavelength_m,
                     geometry.aoa_rad)
    a_tx = _steering(cols, geometry.tx_spacing_m, geometry.wavelength_m,
                     geometry.aod_rad)
    return np.outer(a_rx, a_tx)


def rayleigh_channel(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an i.i.d. CN(0, 1) scattering matrix (variance 1/2 per component)."""
    if int(rows) < 1 or int(cols) < 1:
        raise ValueError(f"matrix shape must be positive, got ({rows!r}, {cols!r})")
    shape = (int(rows), int(cols))
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def rician_mix(kappa: float, los: np.ndarray, nlos: np.ndarray) -> np.ndarray:
    """Combine line-of-sight and scattering parts with Rician factor kappa.

    kappa is linear (not dB) and must be non-negative; kappa = 0 returns the
    scattering part unchanged and large kappa approaches the line-of-sight
    part.  Expected per-entry power is preserved when both parts have unit
    per-entry power.
    """
    kappa = float(kappa)
    if not kappa >= 0.0 or not np.isfinite(kappa):
        raise ValueError(f"kappa must be a finite non-negative number, got {kappa!r}")
    los = np.asarray(los, dtype=np.complex128)
    nlos = np.asarray(nlos, dtype=np.complex128)
    if los.shape != nlos.shape:
        raise ValueError(
            f"los and nlos shapes differ: {los.shape} vs {nlos.shape}"
        )
    a = np.sqrt(kappa / (1.0 + kappa))
    b = np.sqrt(1.0 / (1.0 + kappa))
    return a * los + b * nlos


def apply_path_loss(channel: np.ndarray, ref_gain: float,
                    distance_m: float) -> np.ndarray:
    """Scale a small-scale fading matrix by the ref_gain / distance^2 path factor."""
    ref_gain = float(ref_gain)
    distance_m = float(distance_m)
    if not ref_gain > 0.0:
        raise ValueError(f"ref_gain must be positive, got {ref_gain!r}")
    if not distance_m > 0.0:
        raise ValueError(f"distance_m must be positive, got {distance_m!r}")
    return (ref_gain / distance_m**2) * np.asarray(channel, dtype=np.complex128)


def synth_link(link: RicianLink, rng: np.random.Generator) -> np.ndarray:
    """Draw one complete link realization.

    Composes, in order: a line-of-sight matrix from the link geometry, a
    fresh Rayleigh draw from rng, the Rician mix, and the path-loss scaling
    at the link distance.
    """
    los = los_channel(link.geometry, link.rows, link.cols)
    nlos = rayleigh_channel(link.rows, link.cols, rng)
    return apply_path_loss(rician_mix(link.kappa, los, nlos), link.ref_gain,
                           link.distance_m)
