"""Network configuration and closed-form capacity helpers.

The decode-and-forward capacity of the two-hop network is

    C = [M*N / (M + N - 1)] * min(C1, C2),

where C1 sums one zero-forced stream per platform on the uplink and C2 does
the same per ground station on the downlink.  NetworkConfig carries every
input of that formula; simulator.TrialEnsemble evaluates it per trial over
the kernels' quadratic forms.  The multiplexing-order helper dof() returns
the high-SNR slope M*N*A / (M + N - 1), which carries the per-node antenna
count and is deliberately a separate quantity from the capacity prefactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import FAR_FIELD_FACTOR, ScenarioLayout, _require_positive

# Whether the configured SNR scale applies before or after the 1/d^2 path factor.
SNR_REFERENCE_CHOICES = ("pre_path_loss", "post_path_loss")


def _as_float_tuple(value, count: int, key: str) -> tuple[float, ...]:
    if value is None:
        raise ValueError(f"{key} must be a number or a per-link list, got None")
    if np.isscalar(value):
        items = [float(value)] * count
    else:
        items = [float(v) for v in value]
    if len(items) != count:
        raise ValueError(f"{key} must have {count} entries, got {len(items)}")
    for v in items:
        if not math.isfinite(v):
            raise ValueError(f"{key} entries must be finite, got {v!r}")
    return tuple(items)


@dataclass(frozen=True)
class NetworkConfig:
    """Full scenario description for one network.

    num_haps (M) platforms each talk to num_gs (N) ground stations through a
    relay carrying relay_antennas elements; every non-relay node has
    antennas_per_node (A) elements.  Rician factors and reference gains are
    per-link tuples; scalars are broadcast.  kappa_direct_db and
    ref_gain_direct parameterize the direct platform-to-ground channels of
    the no-relay baseline and default to the uplink values.
    """

    num_haps: int
    num_gs: int
    antennas_per_node: int
    layout: ScenarioLayout
    relay_antennas: int | None = None
    hap_power: float = 1.0
    relay_power: float = 1.0
    noise_power: float = 1.0
    streams_per_tx: int | None = None
    kappa_up_db: tuple[float, ...] | float = 30.0
    kappa_down_db: tuple[float, ...] | float = 15.0
    kappa_direct_db: tuple[float, ...] | float | None = None
    ref_gain_up: tuple[float, ...] | float = 1.0
    ref_gain_down: tuple[float, ...] | float = 1.0
    ref_gain_direct: tuple[float, ...] | float | None = None
    wavelength_m: float = 0.00625
    rx_spacing_m: float | None = None
    tx_spacing_m: float | None = None
    aoa_deg: float = 30.0
    aod_deg: float = 30.0
    all_streams: bool = False
    snr_reference: str = "pre_path_loss"

    def __post_init__(self) -> None:
        set_ = lambda k, v: object.__setattr__(self, k, v)  # noqa: E731
        m, n, a = int(self.num_haps), int(self.num_gs), int(self.antennas_per_node)
        if m < 1 or n < 1 or a < 1:
            raise ValueError(
                "num_haps, num_gs, antennas_per_node must be >= 1, got "
                f"({m}, {n}, {a})"
            )
        set_("num_haps", m)
        set_("num_gs", n)
        set_("antennas_per_node", a)
        required = self.required_relay_antennas
        relay = required if self.relay_antennas is None else int(self.relay_antennas)
        if relay < required:
            raise ValueError(
                f"relay_antennas must be >= (M-1)(N-1) = {required}, got {relay}"
            )
        set_("relay_antennas", relay)
        for key in ("hap_power", "relay_power", "noise_power"):
            v = float(getattr(self, key))
            if not v > 0.0 or not math.isfinite(v):
                raise ValueError(f"{key} must be positive, got {v!r}")
            set_(key, v)
        if self.streams_per_tx is not None:
            s = int(self.streams_per_tx)
            if s < 1:
                raise ValueError(f"streams_per_tx must be >= 1, got {s}")
            set_("streams_per_tx", s)
        set_("kappa_up_db", _as_float_tuple(self.kappa_up_db, m, "kappa_up_db"))
        set_("kappa_down_db", _as_float_tuple(self.kappa_down_db, n, "kappa_down_db"))
        direct = self.kappa_up_db if self.kappa_direct_db is None else self.kappa_direct_db
        set_("kappa_direct_db", _as_float_tuple(direct, m, "kappa_direct_db"))
        set_("ref_gain_up", _as_float_tuple(self.ref_gain_up, m, "ref_gain_up"))
        set_("ref_gain_down", _as_float_tuple(self.ref_gain_down, n, "ref_gain_down"))
        gdir = self.ref_gain_up if self.ref_gain_direct is None else self.ref_gain_direct
        set_("ref_gain_direct", _as_float_tuple(gdir, m, "ref_gain_direct"))
        for key in ("ref_gain_up", "ref_gain_down", "ref_gain_direct"):
            if any(not v > 0.0 for v in getattr(self, key)):
                raise ValueError(f"{key} entries must be positive")
        wl = _require_positive("wavelength_m", self.wavelength_m)
        set_("wavelength_m", wl)
        for key in ("rx_spacing_m", "tx_spacing_m"):
            v = getattr(self, key)
            set_(key, _require_positive(key, wl / 2.0 if v is None else v))
        for key in ("aoa_deg", "aod_deg"):
            v = float(getattr(self, key))
            if not math.isfinite(v):
                raise ValueError(f"{key} must be finite, got {v!r}")
            set_(key, v)
        if self.snr_reference not in SNR_REFERENCE_CHOICES:
            raise ValueError(
                f"snr_reference must be one of {SNR_REFERENCE_CHOICES}, "
                f"got {self.snr_reference!r}"
            )
        set_("all_streams", bool(self.all_streams))

    @property
    def required_relay_antennas(self) -> int:
        """Relay element count needed to align (M-1)(N-1) interference streams."""
        return max(1, (self.num_haps - 1) * (self.num_gs - 1))

    @property
    def far_field_m(self) -> float:
        """Shortest admissible link: FAR_FIELD_FACTOR x the widest spacing."""
        return FAR_FIELD_FACTOR * max(self.rx_spacing_m, self.tx_spacing_m)

    @property
    def dof_prefactor(self) -> float:
        """Capacity prefactor M*N / (M + N - 1); carries no antenna count."""
        return self.num_haps * self.num_gs / (self.num_haps + self.num_gs - 1)

    def uplink_streams(self) -> int:
        """N_T on the uplink: configured override or the uplink column count."""
        return self.streams_per_tx or self.antennas_per_node

    def downlink_streams(self) -> int:
        """N_T on the downlink: configured override or the relay column count."""
        return self.streams_per_tx or self.relay_antennas


def dof(num_tx: int, num_rx: int, antennas: int) -> float:
    """Degrees of freedom M*N*A / (M + N - 1) of the M x N network."""
    m, n, a = int(num_tx), int(num_rx), int(antennas)
    if m < 1 or n < 1 or a < 1:
        raise ValueError(f"counts must be >= 1, got ({m}, {n}, {a})")
    return m * n * a / (m + n - 1)

