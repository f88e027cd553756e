"""The relayed M x N MIMO X network: placement, configuration and links.

Ground stations sit below a tethered relay balloon, which sits below the
aerial platforms.  ScenarioLayout holds the altitudes and derives the three
link distances every sweep uses (source-destination, source-relay,
relay-destination); min_hap_separation() is the platform spacing rule.

NetworkConfig carries every input of the decode-and-forward capacity of
the two-hop network,

    C = [M*N / (M + N - 1)] * min(C1, C2),

where C1 sums one zero-forced stream per platform on the uplink and C2 does
the same per ground station on the downlink; simulator.TrialEnsemble
evaluates it per trial over the kernels' quadratic forms.  The config also
owns the far-field rule (far_field_m, the shortest admissible link, and
check_far_field(), the one test of a distance, which returns the square
the path loss divides by) and wide_hop(), the one test that zero forcing
can serve both hops.

Every link mixes a deterministic line-of-sight matrix with an i.i.d.
Rayleigh scattering matrix,

    H = sqrt(kappa / (1 + kappa)) * H_los + sqrt(1 / (1 + kappa)) * H_nlos,

then scales it by the path gain ref_gain / distance^2, so received power
falls as distance^-4.  This module holds the dB conversion and the
line-of-sight part; the trial ensemble draws the scattering part from each
trial's stream, the kernels mix the two and the ensemble applies the path
gain.  The line-of-sight part is the outer product of receive and transmit
steering vectors: rank one at any array size, and set by the wavelength,
spacings and angles alone, never by the link or its distance, so a kernel
call takes one los_channel matrix for all its links, which share a shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Plane-wave steering vectors are only meaningful well beyond the array
# aperture; links shorter than this multiple of the largest spacing are
# rejected.
FAR_FIELD_FACTOR = 100.0

# Whether the configured SNR scale applies before or after the path loss.
SNR_REFERENCE_CHOICES = ("pre_path_loss", "post_path_loss")


# Strict scalar checks for every configured value; concrete type tuples
# keep each one a single isinstance test.
def _integer(name: str, value) -> int:
    """value as an int; ValueError for a bool or a non-integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _number(name: str, value, kind: str = "a number") -> float:
    """value as a float; ValueError for a bool, a non-number or an integer
    past the float64 range."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is out of float64 range") from None


def _finite(name: str, value) -> float:
    """value as a finite float; ValueError as _number's or for inf or nan."""
    value = _number(name, value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _flag(name: str, value) -> bool:
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return bool(value)


def _choice(name: str, value, choices: tuple[str, ...]) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
    return value


def _require_positive(name: str, value: float) -> float:
    value = _number(name, value)
    if not value > 0.0 or not math.isfinite(value):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def _as_float_tuple(value, count: int, key: str) -> tuple[float, ...]:
    if isinstance(value, (list, tuple, np.ndarray)):
        items = [_number(f"{key} entries", v, "numbers") for v in value]
    else:
        items = [_number(key, value, "a number or a per-link list")] * count
    if len(items) != count:
        raise ValueError(f"{key} must have {count} entries, got {len(items)}")
    return tuple(_finite(f"{key} entries", v) for v in items)


def db_to_linear(value_db: float) -> float:
    """Convert a decibel quantity to linear scale."""
    try:
        return float(10.0 ** (float(value_db) / 10.0))
    except OverflowError:
        raise ValueError(
            f"{float(value_db)!r} dB is too large for a linear value") from None


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
                    "gs_spacing_m"):
            object.__setattr__(self, key, _require_positive(key, getattr(self, key)))
        gs = _finite("gs_altitude_m", self.gs_altitude_m)
        if gs < 0.0:
            raise ValueError(f"gs_altitude_m must be non-negative, got {gs!r}")
        object.__setattr__(self, "gs_altitude_m", gs)
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
        m, n, a = (_integer(key, getattr(self, key))
                   for key in ("num_haps", "num_gs", "antennas_per_node"))
        if m < 1 or n < 1 or a < 1:
            raise ValueError(
                "num_haps, num_gs, antennas_per_node must be >= 1, got "
                f"({m}, {n}, {a})"
            )
        set_("num_haps", m)
        set_("num_gs", n)
        set_("antennas_per_node", a)
        required = self.required_relay_antennas
        relay = (required if self.relay_antennas is None
                 else _integer("relay_antennas", self.relay_antennas))
        if relay < required:
            raise ValueError(
                f"relay_antennas must be >= (M-1)(N-1) = {required}, got {relay}"
            )
        set_("relay_antennas", relay)
        for key in ("hap_power", "relay_power", "noise_power"):
            set_(key, _require_positive(key, getattr(self, key)))
        if self.streams_per_tx is not None:
            s = _integer("streams_per_tx", self.streams_per_tx)
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
            set_(key, _finite(key, getattr(self, key)))
        set_("all_streams", _flag("all_streams", self.all_streams))
        _choice("snr_reference", self.snr_reference, SNR_REFERENCE_CHOICES)

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


def check_far_field(cfg: NetworkConfig, name: str, distance_m: float) -> float:
    """The square of link name's length distance_m, which the path loss
    divides by: Python's float power, which rounds some squares otherwise
    than d * d (the curves' bits depend on it).  ValueError unless the
    length is a finite number past the far field with a float64 square."""
    distance_m = _number(name, distance_m)
    if not distance_m > 0.0:
        raise ValueError(f"{name} must be positive, got {distance_m:g}")
    if not math.isfinite(distance_m):
        raise ValueError(f"{name} must be finite, got {distance_m:g}")
    if not distance_m > cfg.far_field_m:
        raise ValueError(f"{name} = {distance_m:g} m is inside "
                         f"the far-field limit {cfg.far_field_m:g} m")
    try:
        return distance_m ** 2
    except OverflowError:
        raise ValueError(f"{name} = {distance_m:g} m is too long: its square "
                         "overflows float64") from None


def wide_hop(cfg: NetworkConfig) -> str | None:
    """'uplink (r x c)' or 'downlink (r x c)' when that hop's matrices have
    fewer rows than columns, so zero forcing fails on every trial; else None."""
    a, r = cfg.antennas_per_node, cfg.relay_antennas
    return None if r == a else f"uplink ({r} x {a})" if r < a else f"downlink ({a} x {r})"


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
