"""End-to-end acceptance suite.

Each test certifies one headline property of the package and prints a
single [PASS]/[FAIL] line with the measured margin, so a plain
``pytest tests/test_acceptance.py -v -s`` doubles as a release report.
Monte Carlo configurations and tolerances are frozen; do not loosen them
to make a failing run green.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import yaml
from scipy import integrate, stats

import oracles
from helpers import (bootstrap_mean_ci, failed_trials, kernel_inputs,
                     scenario_curves, well_conditioned)

from hapsim import kernels, simulator
from hapsim.cli import main
from hapsim.network import NetworkConfig, ScenarioLayout, db_to_linear
from hapsim.simulator import (
    RELAY_ALTITUDE_M,
    SNR_DB,
    SweepSpec,
    TrialEnsemble,
    run_altitude_sweep,
    run_snr_sweep,
)

MASTER_SEED = 12345
REPO = Path(__file__).resolve().parents[1]


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def _network(relay_altitude_m: float, **kwargs) -> NetworkConfig:
    base = dict(
        num_haps=3, num_gs=3, antennas_per_node=4,
        layout=ScenarioLayout(18000.0, relay_altitude_m),
        ref_gain_up=8.1e7, ref_gain_down=8.1e7)
    base.update(kwargs)
    return NetworkConfig(**base)


def _random_set(count: int = 1100) -> list:
    """Frozen acceptance sample: sizes 2x2 through 8x6, cond(H) < 1e6."""
    rng = np.random.default_rng(20240814)
    sizes = [(r, c) for r in range(2, 9) for c in range(2, min(r, 6) + 1)]
    return [well_conditioned(rng, *sizes[i % len(sizes)], cond_max=1e6)
            for i in range(count)]


def test_geometry_golden_spacing(tmp_path, capsys):
    cfg = tmp_path / "defaults.yaml"
    cfg.write_text("", encoding="utf-8")
    code = main(["geometry", "--config", str(cfg)])
    out = capsys.readouterr().out
    ok = code == 0 and "min_hap_spacing_m=1125\n" in out
    with capsys.disabled():
        _report("geometry golden value: 18 km / 6.25 mm link needs 1125 m "
                "platform spacing, exact", ok,
                "reported " + next((l for l in out.splitlines()
                                    if l.startswith("min_hap_spacing_m")), "?"))


def test_zf_snr_matches_inverse_oracle(capsys):
    t0 = time.perf_counter()
    mats = _random_set()
    worst = 0.0
    streams = 0
    for h in mats:
        q, singular = kernels.all_stream_quadforms(*kernel_inputs([h]))
        assert not singular.any()
        for k in range(h.shape[1]):
            got = 2.0 * q[0, 0, k]
            ref = oracles.zf_snr(h, k, 2.0)
            worst = max(worst, abs(got - ref) / ref)
            streams += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    with capsys.disabled():
        _report("zero-forcing SNR matches the QR-of-H oracle (1e-9)", ok,
                f"worst rel err {worst:.2e} over {streams} streams of "
                f"{len(mats)} matrices in {elapsed:.2f} s")


def test_network_capacity_matches_transliteration_oracle(capsys):
    rng = np.random.default_rng(20240815)
    worst = 0.0
    trials = 3
    for i in range(100):
        m = 2 + i % 2
        relay = (m - 1) * 2
        cfg = NetworkConfig(
            num_haps=m, num_gs=3, antennas_per_node=relay,
            layout=ScenarioLayout(18000.0, 9000.0),
            hap_power=float(rng.uniform(0.5, 8.0)),
            relay_power=float(rng.uniform(0.5, 8.0)),
            noise_power=float(rng.uniform(0.5, 2.0)),
            kappa_up_db=float(rng.uniform(0.0, 10.0)),
            kappa_down_db=float(rng.uniform(0.0, 10.0)),
            ref_gain_up=8.1e7, ref_gain_down=8.1e7)
        scale_up = cfg.hap_power / (
            cfg.noise_power * (cfg.streams_per_tx or cfg.antennas_per_node))
        scale_dn = cfg.relay_power / (
            cfg.noise_power * (cfg.streams_per_tx or cfg.relay_antennas))
        lay = cfg.layout
        got = TrialEnsemble(cfg, trials, i).relay_rates(
            scale_up, scale_dn, lay.d_sr_m, lay.d_rd_m)
        c_up, c_dn, _ = oracles.trial_hop_rates(cfg, i, trials, scale_up,
                                                scale_dn, lay.d_sr_m,
                                                lay.d_rd_m)
        expected = oracles.relay_rate(m, 3, c_up, c_dn)
        worst = max(worst, float(np.max(abs(got - expected) / expected)))
    ok = worst < 1e-9
    with capsys.disabled():
        _report("trial ensemble matches a one-shot transliteration oracle "
                f"(1e-9, 100 instances x {trials} trials)", ok,
                f"worst rel err {worst:.2e}")


def _rayleigh_ensemble(m: int, n: int, a: int, relay: int,
                       all_streams: bool) -> TrialEnsemble:
    """Pure-Rayleigh links (kappa -400 dB) with the SNR set after path loss."""
    cfg = NetworkConfig(
        num_haps=m, num_gs=n, antennas_per_node=a, relay_antennas=relay,
        layout=ScenarioLayout(18000.0, 9000.0), kappa_up_db=-400.0,
        kappa_down_db=-400.0, snr_reference="post_path_loss",
        all_streams=all_streams)
    return TrialEnsemble(cfg, 20000, 7)


def _z_score(bits: np.ndarray, nats: float) -> float:
    """Monte Carlo mean of per-trial bits against a closed form in nats."""
    se = bits.std(ddof=1) / math.sqrt(bits.size)
    return float((bits.mean() - nats / math.log(2.0)) / se)


def test_rayleigh_zf_rates_match_closed_form(capsys):
    # Each stream's zero-forcing form on an r x c Rayleigh uplink is
    # Gamma(r - c + 1, 1), so its mean rate has a closed form.  Bounds fixed
    # before the first run: |z| <= 4 at every SNR, seed 7, 20000 trials.
    t0 = time.perf_counter()
    rhos = [db_to_linear(x) for x in (0.0, 10.0, 20.0, 30.0)]
    quad_err = 0.0
    for big_l in (1, 3):
        for rho in rhos:
            def density(q):
                return (math.log1p(rho * q) * q ** (big_l - 1) * math.exp(-q)
                        / math.gamma(big_l))
            ref = integrate.quad(density, 0.0, math.inf, epsabs=0.0,
                                 epsrel=1e-12, limit=200)[0]
            got = oracles.zf_mean_log_rate(big_l, rho)
            quad_err = max(quad_err, abs(got - ref) / ref)
    zs = {}

    # Square 4 x 4 uplinks (L = 1) through the min-cut: the downlink is
    # 1e12 stronger, so the min picks the uplink, and the rate is the
    # prefactor times the sum over M single-stream links.
    ens = _rayleigh_ensemble(3, 3, 4, 4, all_streams=False)
    cfg = ens.cfg
    lay = cfg.layout
    for rho in rhos:
        rates = ens.relay_rates(rho, 1e12 * rho, lay.d_sr_m, lay.d_rd_m)
        zs.setdefault("L=1", []).append(
            _z_score(rates / (cfg.dof_prefactor * cfg.num_haps),
                     oracles.zf_mean_log_rate(1, rho)))

    # Tall 4 x 2 uplinks, every stream (L = 3).  Their 2 x 4 downlinks are
    # wide and always singular, so the uplink hop's rate is read directly.
    ens = _rayleigh_ensemble(2, 2, 2, 4, all_streams=True)
    cfg = ens.cfg
    assert not failed_trials(ens, simulator._UP).any()
    streams = cfg.num_haps * cfg.antennas_per_node
    for rho in rhos:
        rates = ens._checked_rates((simulator._UP, np.array([rho]),
                                    np.array([cfg.layout.d_sr_m])))[0][0]
        zs.setdefault("L=3", []).append(
            _z_score(rates / streams, oracles.zf_mean_log_rate(3, rho)))

    ok = quad_err < 1e-9 and all(abs(z) <= 4.0 for z in sum(zs.values(), []))
    with capsys.disabled():
        _report("Rayleigh zero-forcing hop rates match e^(1/rho) sum E_k(1/rho) "
                "at 0-30 dB (|z| <= 4, 20000 trials)", ok,
                f"closed form vs quadrature {quad_err:.1e}; "
                + "; ".join(f"{k} z " + ", ".join(f"{z:+.2f}" for z in v)
                          for k, v in zs.items())
                + f", {time.perf_counter() - t0:.1f} s")


def test_square_rayleigh_forms_are_exponential(capsys):
    # Fixed before the first run: seed 7, 20000 trials, KS p >= 1e-3.
    ens = _rayleigh_ensemble(3, 3, 4, 4, all_streams=False)
    q = ens._q[simulator._UP].ravel()
    p = stats.kstest(q, "expon").pvalue
    ok = p >= 1e-3
    with capsys.disabled():
        _report("square Rayleigh links' zero-forcing forms are Exp(1) "
                "(KS p >= 1e-3)", ok,
                f"p = {p:.3f} over {q.size} forms")


def test_min_cut_matches_matrix_free_monte_carlo(capsys):
    # Square 4 x 4 Rayleigh hops, M = N = 3, one stream a link and the same
    # SNR on both hops: every form is Exp(1), so a trial's rate is
    # dof_prefactor * min(sum_i log2(1 + rho e_i), sum_j log2(1 + rho f_j))
    # with e, f i.i.d. Exp(1), and each hop binds the min in about half of
    # the trials.  The reference draws e, f from their own generator, with
    # no matrices.  Fixed before the first run: sweep seed 7 with 20000
    # trials, reference seed 8 with 200000 draws, two-sample |z| <= 4 at
    # every SNR and an uplink share of binding trials in [0.25, 0.75].
    t0 = time.perf_counter()
    cfg = NetworkConfig(
        num_haps=3, num_gs=3, antennas_per_node=4, relay_antennas=4,
        layout=ScenarioLayout(18000.0, 9000.0), kappa_up_db=-400.0,
        kappa_down_db=-400.0, snr_reference="post_path_loss")
    curve = run_snr_sweep(cfg, SweepSpec(SNR_DB, 0.0, 30.0, 10.0,
                                         trials=20000, master_seed=7)).relay
    e = np.random.default_rng(8).exponential(size=(2, 200000, 3))
    zs, shares = [], []
    for x, mean_rate, std_err in zip(curve.xs, curve.mean_rates,
                                     curve.std_errs):
        hops = np.log2(1.0 + db_to_linear(x) * e).sum(axis=2)
        ref = cfg.dof_prefactor * hops.min(axis=0)
        se = math.hypot(std_err, ref.std(ddof=1) / math.sqrt(ref.size))
        zs.append((mean_rate - ref.mean()) / se)
        shares.append(float((hops[0] < hops[1]).mean()))
    ok = (curve.trials_failed == 0
          and all(abs(z) <= 4.0 for z in zs)
          and all(0.25 <= f <= 0.75 for f in shares))
    with capsys.disabled():
        _report("min-cut sweep means match a matrix-free Monte Carlo of "
                "min(C1, C2) at 0-30 dB (|z| <= 4)", ok,
                "z " + ", ".join(f"{z:+.2f}" for z in zs)
                + "; uplink binds " + ", ".join(f"{f:.2f}" for f in shares)
                + f", {time.perf_counter() - t0:.1f} s")


def test_symmetric_network_optimum_at_midpoint(capsys):
    t0 = time.perf_counter()
    cfg = _network(9000.0, kappa_up_db=20.0, kappa_down_db=20.0,
                   hap_power=4000.0, relay_power=4000.0)
    spec = SweepSpec(RELAY_ALTITUDE_M, 1000.0, 17500.0, 250.0,
                     trials=1000, master_seed=MASTER_SEED)
    curve = run_altitude_sweep(TrialEnsemble(cfg, 1000, MASTER_SEED), spec)
    ok = abs(curve.argmax_x - 9000.0) <= 250.0
    with capsys.disabled():
        _report("symmetric network: altitude sweep peaks at the 9 km "
                "midpoint (one 250 m step)", ok,
                f"argmax {curve.argmax_x:g} m, "
                f"{curve.trials_failed} failed trials, "
                f"{time.perf_counter() - t0:.1f} s")


def test_relay_outperforms_baseline_and_kappa_ordering(capsys):
    t0 = time.perf_counter()

    def network(kappa_down):
        return _network(17000.0, kappa_up_db=30.0, kappa_down_db=kappa_down,
                        ref_gain_up=2.89e8, ref_gain_down=2.89e8)

    spec = SweepSpec(SNR_DB, 0.0, 30.0, 2.5, trials=1000,
                     master_seed=MASTER_SEED)
    res = run_snr_sweep(network(15.0), spec, include_baseline=True)
    mask = res.relay.xs >= 15.0
    margin = res.relay.mean_rates[mask] - res.baseline.mean_rates[mask]
    beats = bool((margin > 0.0).all())

    gamma = db_to_linear(25.0)
    ci = {}
    for kappa in (15.0, 20.0, 30.0):
        cfg = network(kappa)
        ens = TrialEnsemble(cfg, 1000, MASTER_SEED)
        ci[kappa] = bootstrap_mean_ci(
            ens.relay_rates(gamma, gamma, cfg.layout.d_sr_m,
                            cfg.layout.d_rd_m))
    ordered = ci[20.0][1] < ci[15.0][0] and ci[30.0][1] < ci[20.0][0]
    ok = beats and ordered
    with capsys.disabled():
        _report("relay beats time-sharing baseline at every point >= 15 dB; "
                "weaker downlink scattering wins at 25 dB with disjoint 95% "
                "intervals", ok,
                f"min margin {margin.min():.2f} b/s/Hz, intervals "
                + " > ".join(f"[{ci[k][0]:.2f},{ci[k][1]:.2f}]"
                             for k in (15.0, 20.0, 30.0))
                + f", {time.perf_counter() - t0:.1f} s")


def test_optimum_drifts_to_midpoint_and_power_invariant(capsys):
    t0 = time.perf_counter()
    spec = SweepSpec(RELAY_ALTITUDE_M, 1000.0, 17500.0, 250.0,
                     trials=1000, master_seed=MASTER_SEED)
    power_low = 4.0 * 10**1.45
    argmax = {}
    for power in (power_low, 10.0 * power_low):
        argmax[power] = []
        for kappa in (15.0, 20.0, 25.0, 30.0):
            cfg = _network(9000.0, kappa_up_db=30.0, kappa_down_db=kappa,
                           hap_power=power, relay_power=power)
            ens = TrialEnsemble(cfg, 1000, MASTER_SEED)
            argmax[power].append(run_altitude_sweep(ens, spec).argmax_x)
    low, high = argmax[power_low], argmax[10.0 * power_low]
    drifts = all(b <= a for a, b in zip(low, low[1:]))
    reaches = abs(low[-1] - 9000.0) <= 250.0
    invariant = all(abs(a - b) <= 250.0 for a, b in zip(low, high))
    ok = drifts and reaches and invariant
    with capsys.disabled():
        _report("optimal relay altitude drifts to the midpoint as downlink "
                "scattering weakens, invariant (one step) under 10x power",
                ok,
                f"argmaxes {low} m vs {high} m at 10x power, "
                f"{time.perf_counter() - t0:.1f} s")


def test_rate_degrades_and_singularities_appear_with_kappa(capsys):
    t0 = time.perf_counter()
    gamma = 10**2.5
    grid = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0,
            90.0, 110.0, 130.0]
    means, failures = [], []
    for kappa in grid:
        cfg = _network(9000.0, kappa_up_db=kappa, kappa_down_db=kappa)
        ens = TrialEnsemble(cfg, 600, MASTER_SEED)
        rates = ens.relay_rates(gamma, gamma, 9000.0, 9000.0)
        finite = rates[np.isfinite(rates)]
        means.append(float(finite.mean()) if finite.size else float("nan"))
        failures.append(int(np.isnan(rates).sum()))
    swept = means[:9]
    degrades = all(b <= a + 1e-9 for a, b in zip(swept, swept[1:]))
    counts_grow = all(b >= a for a, b in zip(failures, failures[1:]))
    ok = (degrades and counts_grow and failures[0] == 0 and failures[-1] > 0
          and failures[8] == 0)
    with capsys.disabled():
        _report("mean rate falls monotonically over kappa 0-40 dB and "
                "singular trials appear beyond it", ok,
                f"means {np.round(swept, 2).tolist()} b/s/Hz, failures "
                f"{failures} of 600, {time.perf_counter() - t0:.1f} s")


def test_csv_reruns_byte_identical(tmp_path, capsys):
    t0 = time.perf_counter()
    snr_cfg = tmp_path / "snr.yaml"
    snr_cfg.write_text(yaml.safe_dump(dict(
        relay_altitude_m=9000.0, kappa_up_db=10.0, kappa_down_db=10.0,
        ref_gain_up=8.1e7, ref_gain_down=8.1e7,
        sweep_start=0.0, sweep_stop=30.0, sweep_step=5.0, trials=200)),
        encoding="utf-8")
    alt_cfg = tmp_path / "alt.yaml"
    alt_cfg.write_text(yaml.safe_dump(dict(
        relay_altitude_m=9000.0, kappa_up_db=20.0, kappa_down_db=20.0,
        ref_gain_up=8.1e7, ref_gain_down=8.1e7,
        hap_power=4000.0, relay_power=4000.0,
        sweep_variable="relay_altitude_m", sweep_start=4000.0,
        sweep_stop=14000.0, sweep_step=500.0, trials=200)),
        encoding="utf-8")

    def run_twice(command, cfg, tag):
        paths = [tmp_path / f"{tag}_{i}.csv" for i in (1, 2)]
        for p in paths:
            assert main([command, "--config", str(cfg), "--out", str(p)]) == 0
        return paths[0].read_bytes() == paths[1].read_bytes()

    same = {"snr-sweep": run_twice("snr-sweep", snr_cfg, "snr"),
            "altitude-sweep": run_twice("altitude-sweep", alt_cfg, "alt")}
    ok = all(same.values())
    with capsys.disabled():
        _report("sweep re-runs are byte-identical CSVs", ok,
                f"matched {sum(same.values())}/{len(same)} pairs ("
                + ", ".join(same) + f"), {time.perf_counter() - t0:.1f} s")


def test_curves_match_seed_independent_reference(capsys):
    # Frozen before the first run: one run a scenario at MASTER_SEED with
    # 10^4 trials, and |z| <= 4.5 at every point of every curve against
    # tests/data/reference_curves.json (scripts/reference_curves.py: seeds
    # 1-10 at 10^5 trials each, pooled).  At a fixed seed this cannot flake;
    # it moves only when the distribution of a curve moves.
    t0 = time.perf_counter()
    reference = json.loads((REPO / "tests" / "data" / "reference_curves.json")
                           .read_text(encoding="utf-8"))["curves"]
    worst = {}
    for name in ("snr_sweep", "altitude_sweep", "altitude_sweep_symmetric"):
        path = REPO / "scenarios" / f"{name}.yaml"
        for curve, got in scenario_curves(path, 10**4, MASTER_SEED).items():
            ref = reference[f"{name}/{curve}"]
            assert got.xs.tolist() == ref["xs"]
            z = (got.mean_rates - ref["mean"]) / np.hypot(got.std_errs,
                                                          ref["std_err"])
            at = int(np.abs(z).argmax())
            worst[f"{name}/{curve}"] = (float(z[at]), float(got.xs[at]))
    ok = (set(worst) == set(reference)
          and all(abs(z) <= 4.5 for z, _ in worst.values()))
    with capsys.disabled():
        _report("shipped curves match seed-independent reference curves "
                "(|z| <= 4.5 at every point, 10^4 trials)", ok,
                "largest |z| " + ", ".join(f"{key} {z:+.2f} at {x:g}"
                                           for key, (z, x) in worst.items())
                + f", {time.perf_counter() - t0:.1f} s")
