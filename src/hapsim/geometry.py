"""Placement geometry for the relayed network.

Ground stations sit below a tethered relay balloon, which sits below the
aerial platforms.  ScenarioLayout holds the altitudes and derives the three
link distances every sweep uses (source-destination, source-relay,
relay-destination); min_hap_separation() is the platform spacing rule.  The
wavelength, antenna spacings and angles belong to capacity.NetworkConfig.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Plane-wave steering vectors are only meaningful well beyond the array
# aperture; links shorter than this multiple of the largest spacing are
# rejected.
FAR_FIELD_FACTOR = 100.0


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not value > 0.0 or not math.isfinite(value):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


@dataclass(frozen=True)
class ScenarioLayout:
    """Vertical placement of the ground stations, relay, and platforms."""

    hap_altitude_m: float
    relay_altitude_m: float
    hap_spacing_m: float = 1125.0
    gs_spacing_m: float = 0.1
    gs_altitude_m: float = 0.0

    def __post_init__(self) -> None:
        for key in ("hap_altitude_m", "relay_altitude_m", "hap_spacing_m",
                    "gs_spacing_m", "gs_altitude_m"):
            object.__setattr__(self, key, float(getattr(self, key)))
        _require_positive("hap_altitude_m", self.hap_altitude_m)
        _require_positive("relay_altitude_m", self.relay_altitude_m)
        _require_positive("hap_spacing_m", self.hap_spacing_m)
        _require_positive("gs_spacing_m", self.gs_spacing_m)
        if self.gs_altitude_m < 0.0 or not math.isfinite(self.gs_altitude_m):
            raise ValueError(
                f"gs_altitude_m must be non-negative, got {self.gs_altitude_m!r}"
            )
        if not self.gs_altitude_m < self.relay_altitude_m < self.hap_altitude_m:
            raise ValueError(
                "altitudes must satisfy gs_altitude_m < relay_altitude_m < "
                f"hap_altitude_m, got ({self.gs_altitude_m:g}, "
                f"{self.relay_altitude_m:g}, {self.hap_altitude_m:g})"
            )

    @property
    def d_sd_m(self) -> float:
        return self.hap_altitude_m - self.gs_altitude_m

    @property
    def d_sr_m(self) -> float:
        return self.hap_altitude_m - self.relay_altitude_m

    @property
    def d_rd_m(self) -> float:
        return self.relay_altitude_m - self.gs_altitude_m


def min_hap_separation(
    link_distance_m: float,
    wavelength_m: float,
    dof_beta: float,
    gs_spacing_m: float,
) -> float:
    """Smallest platform separation that keeps line-of-sight streams resolvable.

    For a link of length L the spacing solves d_HAP = L * wavelength /
    (beta * d_GS), the standard full-rank condition for line-of-sight MIMO
    over a uniform linear array pair.

    Args:
        link_distance_m: platform to ground-station distance L in meters.
        wavelength_m: carrier wavelength in meters.
        dof_beta: multiplexing-order parameter beta (1 keeps every stream).
        gs_spacing_m: ground-station antenna spacing in meters.

    Returns:
        Required platform antenna spacing in meters.
    """
    link_distance_m = _require_positive("link_distance_m", link_distance_m)
    wavelength_m = _require_positive("wavelength_m", wavelength_m)
    dof_beta = _require_positive("dof_beta", dof_beta)
    gs_spacing_m = _require_positive("gs_spacing_m", gs_spacing_m)
    return link_distance_m * wavelength_m / (dof_beta * gs_spacing_m)

