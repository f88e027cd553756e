"""Independent transliteration of the paper's rate formulas, for tests.

Nothing here imports hapsim.  Each function restates one formula as
directly as numpy allows, one matrix at a time.  The zero-forcing SNR
comes from a QR of H, not from the Gram inverse the kernels take, so the
two agree only if both are right:

    H      = [sqrt(k/(1+k)) a_rx a_tx^T + sqrt(1/(1+k)) W] * gain / d^2
    snr_k  = scale / [(H^H H)^{-1}]_kk = scale * |R[-1, -1]|^2,
             R from the QR of H with column k moved last
    C_hop  = sum over links and streams of log2(1 + snr_k)
    C      = M*N / (M+N-1) * min(C_up, C_down)
    C_base = C_direct / (M*N)

A configuration is read by attribute name (num_haps, kappa_up_db, ...), so
a hapsim NetworkConfig can be passed in without this module knowing its
type.
"""

import math

import numpy as np
from scipy.special import expn


def trial_stream(seed, trial):
    """The random stream of one trial, shared by every sweep point."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


def scattering(rng, rows, cols):
    """CN(0, 1) entries: real parts drawn first, then imaginary parts."""
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) / math.sqrt(2.0)


def steering(count, spacing_m, wavelength_m, angle_deg):
    phase = (2.0 * math.pi * spacing_m / wavelength_m
             * np.arange(count) * math.sin(math.radians(angle_deg)))
    return np.exp(1j * phase)


def line_of_sight(cfg, rows, cols):
    """Rank-one a_rx(aoa) a_tx(aod)^T."""
    return np.outer(
        steering(rows, cfg.rx_spacing_m, cfg.wavelength_m, cfg.aoa_deg),
        steering(cols, cfg.tx_spacing_m, cfg.wavelength_m, cfg.aod_deg))


def rician(kappa_db, los, nlos):
    k = 10.0 ** (kappa_db / 10.0)
    return math.sqrt(k / (1.0 + k)) * los + math.sqrt(1.0 / (1.0 + k)) * nlos


def path_factor(cfg, ref_gain, distance_m):
    """Amplitude factor gain / d^2; 1 when the SNR is set after path loss."""
    if cfg.snr_reference == "post_path_loss":
        return 1.0
    return ref_gain / distance_m ** 2


def trial_links(cfg, seed, trial, d_sr_m, d_rd_m, d_sd_m=None):
    """Uplink, downlink and (when d_sd_m is given) direct channels of a trial.

    Draw order: M uplinks (relay x node antennas), N downlinks (node x
    relay), then the M*N direct links (node x node), platform-major, each
    with its platform's Rician factor and gain.
    """
    m, n = cfg.num_haps, cfg.num_gs
    a, r = cfg.antennas_per_node, cfg.relay_antennas
    rng = trial_stream(seed, trial)

    def link(rows, cols, kappa_db, gain, distance):
        los = line_of_sight(cfg, rows, cols)
        h = rician(kappa_db, los, scattering(rng, rows, cols))
        return h * path_factor(cfg, gain, distance)

    up = [link(r, a, cfg.kappa_up_db[i], cfg.ref_gain_up[i], d_sr_m)
          for i in range(m)]
    down = [link(a, r, cfg.kappa_down_db[j], cfg.ref_gain_down[j], d_rd_m)
            for j in range(n)]
    direct = None
    if d_sd_m is not None:
        direct = [link(a, a, cfg.kappa_direct_db[i], cfg.ref_gain_direct[i],
                       d_sd_m)
                  for i in range(m) for _ in range(n)]
    return up, down, direct


def trial_hop_rates(cfg, seed, trials, scale_up, scale_dn, d_sr_m, d_rd_m,
                    scale_direct=None, d_sd_m=None):
    """Per-trial uplink, downlink and (when d_sd_m is given) direct hop rates.

    Trials 0..trials-1 of seed, each built by trial_links.  The relay hops
    count the first stream of each link, or every stream when
    cfg.all_streams is set; the direct links count every stream.  Returns
    three arrays of length trials, the last None without d_sd_m.
    """
    rates = []
    for t in range(trials):
        up, down, direct = trial_links(cfg, seed, t, d_sr_m, d_rd_m, d_sd_m)
        rates.append((hop_rate(up, scale_up, cfg.all_streams),
                      hop_rate(down, scale_dn, cfg.all_streams),
                      math.nan if direct is None
                      else hop_rate(direct, scale_direct, all_streams=True)))
    c_up, c_down, c_direct = np.array(rates).T
    return c_up, c_down, None if d_sd_m is None else c_direct


def zf_snr(h, k, scale):
    """Zero-forcing SNR of stream k: scale * |R[-1, -1]|^2.

    R is the triangular factor of a QR of H with column k moved last, so
    |R[-1, -1]| is the length of column k's component orthogonal to the
    other columns.  That length squared equals 1 / [(H^H H)^{-1}]_kk, and
    the QR never forms the Gram matrix.
    """
    order = [j for j in range(h.shape[1]) if j != k] + [k]
    r = np.linalg.qr(h[:, order], mode="r")
    return scale * abs(r[-1, -1]) ** 2


def hop_rate(channels, scale, all_streams=False):
    """Sum of log2(1 + snr) over the first (or every) stream of each link."""
    total = 0.0
    for h in channels:
        for k in range(h.shape[1] if all_streams else 1):
            total += math.log2(1.0 + zf_snr(h, k, scale))
    return total


def relay_rate(m, n, c_up, c_down):
    """Min-cut with the interference-alignment prefactor M*N/(M+N-1), of
    one trial's hop rates or elementwise over arrays of them."""
    return m * n / (m + n - 1) * np.minimum(c_up, c_down)


def baseline_rate(m, n, c_direct):
    """The direct hop rate, each of the M*N links active 1/(M*N) of the time."""
    return c_direct / (m * n)


def zf_mean_log_rate(L, rho):
    """E[ln(1 + rho q)] for q ~ Gamma(L, 1): e^{1/rho} sum_{k=1..L} E_k(1/rho).

    q is a zero-forcing stream's form on an r x c i.i.d. CN(0, 1) channel,
    L = r - c + 1 (Winters, Salz and Gitlin, IEEE Trans. Commun., 1994).
    """
    x = 1.0 / rho
    return math.exp(x) * sum(expn(k, x) for k in range(1, L + 1))
