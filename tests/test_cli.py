import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml

import hapsim
from hapsim import cli, simulator
from hapsim.cli import build_parser, main
from hapsim.network import db_to_linear
from hapsim.scenario import scenario_from_mapping

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
ALTITUDE_SCENARIOS = ["altitude_sweep.yaml", "altitude_sweep_symmetric.yaml"]


def write_scenario(tmp_path, name="scenario.yaml", **keys):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(keys), encoding="utf-8")
    return str(path)


def snr_keys(**extra):
    keys = dict(
        relay_altitude_m=9000.0, kappa_up_db=10.0, kappa_down_db=10.0,
        ref_gain_up=8.1e7, ref_gain_down=8.1e7,
        sweep_start=0.0, sweep_stop=10.0, sweep_step=5.0, trials=5)
    keys.update(extra)
    return keys


def altitude_keys(**extra):
    keys = dict(
        relay_altitude_m=9000.0, kappa_up_db=20.0, kappa_down_db=20.0,
        ref_gain_up=8.1e7, ref_gain_down=8.1e7,
        hap_power=4000.0, relay_power=4000.0,
        sweep_variable="relay_altitude_m",
        sweep_start=8000.0, sweep_stop=10000.0, sweep_step=500.0, trials=40)
    keys.update(extra)
    return keys


# Every command, each way it loads a scenario; a --out gets its path appended.
EVERY_COMMAND = pytest.mark.parametrize("argv", [
    ["geometry"], ["geometry", "--dump-config"], ["snr-sweep", "--out"],
    ["snr-sweep", "--dump-config", "--out"],
    ["altitude-sweep", "--out"], ["optimal-altitude"]],
    ids=["geometry", "geometry-dump-config", "snr", "snr-dump-config",
         "altitude", "optimal"])


def parsed_lines(out: str) -> dict:
    return dict(line.split("=", 1) for line in out.strip().splitlines())


class TestGeometryCommand:
    def test_default_scenario_report(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path)
        assert main(["geometry", "--config", cfg]) == 0
        got = parsed_lines(capsys.readouterr().out)
        assert got["d_sd_m"] == "18000"
        assert got["d_sr_m"] == "1000"
        assert got["d_rd_m"] == "17000"
        assert got["min_hap_spacing_m"] == "1125"
        assert got["hap_spacing_ok"] == "yes"
        assert got["relay_antennas_required"] == "4"
        assert got["relay_antennas"] == "4"
        assert got["relay_antennas_ok"] == "yes"
        assert got["dof_total"] == "7.2"
        assert got["zero_forcing_feasible"] == "yes"
        assert got["far_field_ok"] == "yes"

    def test_smaller_network(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, num_haps=2, num_gs=3,
                             antennas_per_node=2)
        assert main(["geometry", "--config", cfg]) == 0
        got = parsed_lines(capsys.readouterr().out)
        assert got["relay_antennas_required"] == "2"
        assert got["dof_total"] == "3"
        assert got["zero_forcing_feasible"] == "yes"

    def test_infeasible_cases_reported(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, hap_spacing_m=500.0,
                             antennas_per_node=3)
        assert main(["geometry", "--config", cfg]) == 0
        got = parsed_lines(capsys.readouterr().out)
        assert got["hap_spacing_ok"] == "no"
        # Four relay antennas against three per node: shapes cannot match.
        assert got["zero_forcing_feasible"] == "no"

    def test_distances_are_the_layouts(self, tmp_path, capsys):
        keys = dict(hap_altitude_m=18000.1, relay_altitude_m=9000.7,
                    gs_altitude_m=12.3)
        assert main(["geometry", "--config",
                     write_scenario(tmp_path, **keys)]) == 0
        got = parsed_lines(capsys.readouterr().out)
        lay = scenario_from_mapping(keys).network.layout
        assert (got["d_sd_m"], got["d_sr_m"], got["d_rd_m"]) == (
            "17987.8", "8999.4", "8988.4")
        for key in ("d_sd_m", "d_sr_m", "d_rd_m"):
            assert got[key] == format(getattr(lay, key), ".12g")

    @pytest.mark.parametrize("hap,relay,too_long", [
        # Both relay hops lie past the far field, but their squares overflow
        # float64.
        (1.0e200, 5.0e199, "d_sr_m = 5e+199 m"),
        # The relay hops' squares fit; the direct link's, which the baseline
        # (on by default) draws, does not.
        (1.9e154, 0.95e154, "d_sd_m = 1.9e+154 m"),
    ], ids=["d_sr_m", "d_sd_m"])
    def test_far_field_report_agrees_with_the_sweeps(self, tmp_path, capsys,
                                                     hap, relay, too_long):
        cfg = write_scenario(tmp_path, hap_altitude_m=hap,
                             relay_altitude_m=relay)
        assert main(["geometry", "--config", cfg]) == 0
        assert parsed_lines(capsys.readouterr().out)["far_field_ok"] == "no"
        assert main(["snr-sweep", "--config", cfg,
                     "--out", str(tmp_path / "curve.csv")]) == 2
        assert f"{too_long} is too long" in capsys.readouterr().err


class TestSnrSweepCommand:
    def test_writes_csv(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, **snr_keys())
        out = tmp_path / "curve.csv"
        assert main(["snr-sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ("snr_db,mean_rate_bps_hz,std_err,"
                            "trials_failed,baseline_rate_bps_hz")
        assert len(lines) == 4
        xs = [float(row.split(",")[0]) for row in lines[1:]]
        assert xs == [0.0, 5.0, 10.0]
        for row in lines[1:]:
            fields = row.split(",")
            assert len(fields) == 5
            assert float(fields[1]) > 0.0
            assert fields[3] == "0"
            assert float(fields[4]) > 0.0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_scenario(tmp_path, **snr_keys())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["snr-sweep", "--config", cfg, "--out", str(a)]) == 0
        assert main(["snr-sweep", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_baseline_column_empty_when_disabled(self, tmp_path):
        cfg = write_scenario(tmp_path, **snr_keys(include_baseline=False))
        out = tmp_path / "curve.csv"
        assert main(["snr-sweep", "--config", cfg, "--out", str(out)]) == 0
        for row in out.read_text(encoding="utf-8").splitlines()[1:]:
            assert row.endswith(",")

    def test_seed_override_changes_estimates(self, tmp_path):
        cfg = write_scenario(tmp_path, **snr_keys())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["snr-sweep", "--config", cfg, "--out", str(a),
                     "--seed", "1"]) == 0
        assert main(["snr-sweep", "--config", cfg, "--out", str(b),
                     "--seed", "2"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_downlink_scattering_ordering_at_25db(self, tmp_path):
        means = {}
        for kl in (15.0, 20.0, 30.0):
            cfg = write_scenario(
                tmp_path, name=f"kl{kl:g}.yaml",
                relay_altitude_m=17000.0, kappa_up_db=30.0, kappa_down_db=kl,
                ref_gain_up=2.89e8, ref_gain_down=2.89e8,
                include_baseline=False, trials=150)
            out = tmp_path / f"kl{kl:g}.csv"
            assert main(["snr-sweep", "--config", cfg, "--out", str(out)]) == 0
            rows = out.read_text(encoding="utf-8").splitlines()[1:]
            row = next(r for r in rows if r.startswith("25,"))
            means[kl] = float(row.split(",")[1])
        assert means[15.0] > means[20.0] > means[30.0]

    def test_all_singular_exits_3_but_writes_csv(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, **snr_keys(kappa_up_db=200.0,
                                                  kappa_down_db=200.0))
        out = tmp_path / "curve.csv"
        code = main(["snr-sweep", "--config", cfg, "--out", str(out),
                     "--trials", "7"])
        assert code == 3
        assert "singular" in capsys.readouterr().err
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            fields = row.split(",")
            assert fields[1] == "nan"
            assert fields[3] == "7"


class TestAltitudeSweepCommand:
    def test_writes_csv_and_reports_optimum(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, **altitude_keys())
        out = tmp_path / "curve.csv"
        assert main(["altitude-sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "relay_altitude_m,mean_rate_bps_hz,std_err,trials_failed"
        assert len(lines) == 6
        assert all(len(row.split(",")) == 4 for row in lines[1:])
        got = parsed_lines(capsys.readouterr().out)
        # Symmetric network: the optimum sits at half the total link
        # distance, up to one grid step of Monte Carlo jitter.
        assert abs(float(got["optimal_altitude_m"]) - 9000.0) <= 500.0

    def test_all_singular_exits_3_but_writes_csv(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, **altitude_keys(kappa_up_db=200.0,
                                                       kappa_down_db=200.0))
        out = tmp_path / "curve.csv"
        assert main(["altitude-sweep", "--config", cfg, "--out", str(out),
                     "--cross-check", "--trials", "7"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "every trial was singular" in captured.err
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 5
        assert all(row.split(",")[1:] == ["nan", "0", "7"] for row in rows)

    def test_cross_check_agrees_with_grid(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, **altitude_keys())
        out = tmp_path / "curve.csv"
        assert main(["altitude-sweep", "--config", cfg, "--out", str(out),
                     "--cross-check"]) == 0
        got = parsed_lines(capsys.readouterr().out)
        grid_best = float(got["optimal_altitude_m"])
        refined = float(got["optimal_altitude_refined_m"])
        assert abs(refined - grid_best) <= 1000.0

    @pytest.mark.parametrize("name", ALTITUDE_SCENARIOS)
    def test_refined_optimum_within_one_step_of_grid(self, tmp_path, capsys,
                                                      name):
        # Both optima come from the same draws, so on a unimodal curve the
        # refinement lands within one grid step of the grid argmax.
        cfg = str(SCENARIOS / name)
        out = tmp_path / "curve.csv"
        assert main(["altitude-sweep", "--config", cfg, "--out", str(out),
                     "--cross-check", "--seed", "12345",
                     "--trials", "400"]) == 0
        got = parsed_lines(capsys.readouterr().out)
        keys = yaml.safe_load(Path(cfg).read_text(encoding="utf-8"))
        step = keys["sweep_step"]
        assert (abs(float(got["optimal_altitude_refined_m"])
                    - float(got["optimal_altitude_m"])) <= step)

    def test_bad_cross_check_bracket_exits_2_before_any_output(
            self, tmp_path, capsys):
        # The grid stops at 17750 m, which is valid; the search bracket
        # reaches 17999.9 m, inside the far-field limit of the platforms.
        cfg = write_scenario(tmp_path, **altitude_keys(
            sweep_start=1000.0, sweep_stop=17999.9, sweep_step=250.0))
        out = tmp_path / "curve.csv"
        assert main(["altitude-sweep", "--config", cfg, "--out", str(out),
                     "--cross-check"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "far-field" in captured.err
        assert not out.exists()
        assert main(["altitude-sweep", "--config", cfg, "--out", str(out)]) == 0
        assert out.exists()


class TestOneEnsemblePerCommand:
    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        init = simulator.TrialEnsemble.__init__

        def counted(self, *args, **kwargs):
            calls.append(args)
            init(self, *args, **kwargs)
        monkeypatch.setattr(simulator.TrialEnsemble, "__init__", counted)
        return calls

    def test_cross_check_reuses_the_grid_ensemble(self, tmp_path, capsys,
                                                  builds):
        cfg = write_scenario(tmp_path, **altitude_keys())
        out = tmp_path / "curve.csv"
        assert main(["altitude-sweep", "--config", cfg, "--out", str(out),
                     "--cross-check"]) == 0
        assert "optimal_altitude_refined_m=" in capsys.readouterr().out
        assert len(builds) == 1

    def test_optimal_altitude_builds_one_ensemble(self, tmp_path, capsys,
                                                  builds):
        cfg = write_scenario(tmp_path, **altitude_keys())
        assert main(["optimal-altitude", "--config", cfg]) == 0
        assert len(builds) == 1

    @pytest.mark.parametrize("command,keys,flags", [
        ("altitude-sweep", snr_keys(), []),
        ("altitude-sweep", altitude_keys(sweep_stop=17999.9),
         ["--cross-check"]),
        ("optimal-altitude", altitude_keys(), ["--tol", "0"]),
        ("optimal-altitude", altitude_keys(), ["--lo", "0", "--hi", "9000"]),
        ("snr-sweep", snr_keys(relay_altitude_m=17999.9), []),
        ("snr-sweep", snr_keys(sweep_start=-4000.0, sweep_stop=10.0,
                               sweep_step=2005.0, trials=2000), []),
        ("snr-sweep", snr_keys(hap_altitude_m=1e200), []),
        ("altitude-sweep", altitude_keys(hap_altitude_m=1e200), []),
        ("altitude-sweep", altitude_keys(hap_altitude_m=1e200),
         ["--cross-check"]),
        ("optimal-altitude", altitude_keys(hap_altitude_m=1e200), []),
        ("altitude-sweep", altitude_keys(hap_altitude_m=2e154,
                                         sweep_start=1e3, sweep_stop=1.9e154,
                                         sweep_step=1e153), []),
    ], ids=["wrong-variable", "bracket", "tol", "band", "snr-far-field",
            "snr-underflow", "snr-square-overflow", "altitude-square-overflow",
            "cross-check-square-overflow", "optimal-square-overflow",
            "far-end-square-overflow"])
    def test_bad_input_draws_nothing(self, tmp_path, capsys, builds, command,
                                     keys, flags):
        argv = [command, "--config", write_scenario(tmp_path, **keys), *flags]
        out = tmp_path / "curve.csv"
        if command != "optimal-altitude":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert builds == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["altitude-sweep", "optimal-altitude"])
    @pytest.mark.parametrize("powers,message", [
        (dict(hap_power=1e-300, noise_power=1e300),
         "d_sr_m underflows to 0: raise hap_power/noise_power"),
        (dict(hap_power=1e308, noise_power=1e-300),
         "d_sr_m overflows float64: lower hap_power/noise_power"),
        (dict(relay_power=1e-300, noise_power=1e300),
         "d_rd_m underflows to 0: raise relay_power/noise_power"),
        (dict(relay_power=1e308, noise_power=1e-300),
         "d_rd_m overflows float64: lower relay_power/noise_power"),
    ], ids=["hap-underflow", "hap-overflow", "relay-underflow",
            "relay-overflow"])
    def test_altitude_snr_scale_draws_nothing(self, tmp_path, capsys, builds,
                                              command, powers, message):
        # power/(noise * N_T) of 0 or inf is an input error before any draw,
        # not a sweep of every trial that ends in a rate error.
        argv = [command, "--config",
                write_scenario(tmp_path, **altitude_keys(**powers))]
        out = tmp_path / "curve.csv"
        if command == "altitude-sweep":
            argv += ["--out", str(out), "--cross-check"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: SNR scale on {message}\n"
        assert builds == []
        assert not out.exists()

    @pytest.mark.parametrize("command,keys,hop", [
        ("snr-sweep", snr_keys(num_haps=2, num_gs=2), "uplink (1 x 4)"),
        ("altitude-sweep", altitude_keys(antennas_per_node=3),
         "downlink (3 x 4)"),
        ("optimal-altitude", altitude_keys(antennas_per_node=3),
         "downlink (3 x 4)"),
    ])
    def test_infeasible_zero_forcing_draws_nothing(self, tmp_path, capsys,
                                                   builds, command, keys, hop):
        # relay_antennas != antennas_per_node makes one hop wide, so every
        # trial would be singular: an input error, not exit 3.
        cfg = write_scenario(tmp_path, **keys)
        assert main(["geometry", "--config", cfg]) == 0
        assert "zero_forcing_feasible=no" in capsys.readouterr().out
        argv = [command, "--config", cfg]
        out = tmp_path / "curve.csv"
        if command != "optimal-altitude":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: zero forcing is infeasible") and hop in err
        assert builds == []
        assert not out.exists()

    @pytest.mark.parametrize("command,flags", [
        ("altitude-sweep", ["--cross-check"]),
        ("optimal-altitude", []),
    ])
    def test_altitude_commands_ignore_the_layout_relay(self, tmp_path, capsys,
                                                       command, flags):
        # An altitude command sets the relay altitude itself, so a layout
        # relay inside the platforms' far field must not matter.
        keys = yaml.safe_load((SCENARIOS / "altitude_sweep.yaml").read_text(
            encoding="utf-8"))
        runs = []
        for relay in (keys["relay_altitude_m"], 17999.9):
            name = f"relay_{relay}"
            argv = [command, "--config", write_scenario(
                tmp_path, f"{name}.yaml", **dict(keys, relay_altitude_m=relay)),
                "--trials", "50", "--seed", "3", *flags]
            out = tmp_path / f"{name}.csv"
            if command == "altitude-sweep":
                argv += ["--out", str(out)]
            assert main(argv) == 0
            csv = out.read_bytes() if out.exists() else None
            runs.append((capsys.readouterr(), csv))
        assert runs[0] == runs[1]
        assert runs[0][0].out.startswith("optimal_altitude_m=")


class TestOptimalAltitudeCommand:
    def test_bounds_default_from_altitude_sweep(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, **altitude_keys())
        assert main(["optimal-altitude", "--config", cfg]) == 0
        got = parsed_lines(capsys.readouterr().out)
        assert 8000.0 <= float(got["optimal_altitude_m"]) <= 10000.0

    def test_explicit_bounds_on_snr_scenario(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, **snr_keys(hap_power=4000.0,
                                                  relay_power=4000.0))
        assert main(["optimal-altitude", "--config", cfg, "--lo", "8000",
                     "--hi", "10000", "--tol", "200"]) == 0
        got = parsed_lines(capsys.readouterr().out)
        assert 8000.0 <= float(got["optimal_altitude_m"]) <= 10000.0

    def test_missing_bounds_exit_2(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, **snr_keys())
        assert main(["optimal-altitude", "--config", cfg]) == 2
        assert "--lo/--hi/--tol" in capsys.readouterr().err

    def test_all_singular_exits_3_without_optimum(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, **altitude_keys(
            kappa_up_db=200.0, kappa_down_db=200.0, trials=50))
        assert main(["optimal-altitude", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "every trial was singular" in captured.err


class TestDumpConfig:
    def test_dump_reparses_to_same_scenario(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, **snr_keys(num_haps=2, num_gs=3,
                                                  antennas_per_node=2))
        assert main(["geometry", "--config", cfg, "--dump-config"]) == 0
        out = capsys.readouterr().out
        assert "d_sd_m=" not in out
        dumped = scenario_from_mapping(yaml.safe_load(out))
        with open(cfg, encoding="utf-8") as fh:
            original = scenario_from_mapping(yaml.safe_load(fh))
        assert dumped == original

    def test_dump_reflects_overrides(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path)
        assert main(["geometry", "--config", cfg, "--dump-config",
                     "--trials", "17", "--seed", "9"]) == 0
        doc = yaml.safe_load(capsys.readouterr().out)
        assert doc["trials"] == 17
        assert doc["master_seed"] == 9


class TestExitCodes:
    @pytest.fixture
    def no_draws(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("TrialEnsemble built")
        monkeypatch.setattr(simulator.TrialEnsemble, "__init__", built)

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, bogus_key=1)
        assert main(["geometry", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_sweep_exits_2(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, sweep_step=-2.0)
        out = tmp_path / "curve.csv"
        assert main(["snr-sweep", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["snr-sweep", "--out"],
                                      ["snr-sweep", "--dump-config", "--out"]],
                             ids=["snr", "dump-config"])
    def test_sweep_too_many_points_to_count_exits_2(self, tmp_path, capsys,
                                                     argv):
        cfg = write_scenario(tmp_path, **snr_keys(sweep_stop=1.0e300,
                                                  sweep_step=1.0e-300))
        out = tmp_path / "curve.csv"
        assert main(argv + [str(out), "--config", cfg]) == 2
        assert not out.exists()
        _, err = capsys.readouterr()
        assert err.startswith("error: sweep: step 1e-300 yields too many ")
        assert "Traceback" not in err

    @EVERY_COMMAND
    def test_sweep_with_too_many_points_exits_2(self, tmp_path, capsys, argv):
        # A finite count past the limit fails as the scenario loads, before
        # any grid is allocated, whatever the command.
        cfg = write_scenario(tmp_path, **snr_keys(sweep_stop=1.0e300,
                                                  sweep_step=1.0))
        out = tmp_path / "curve.csv"
        if argv[-1] == "--out":
            argv = argv + [str(out)]
        assert main(argv + ["--config", cfg]) == 2
        assert not out.exists()
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err == ("error: sweep: step 1.0 yields too many points to "
                       "count over [0.0, 1e+300]; a sweep has at most 1000000 "
                       "points\n")

    @EVERY_COMMAND
    def test_grid_below_float64_resolution_exits_2(self, tmp_path, capsys,
                                                   no_draws, argv):
        # Ten points, four of them equal to their neighbour once rounded:
        # rejected as the scenario loads, whatever the command.
        cfg = write_scenario(tmp_path, **altitude_keys(
            sweep_start=10000.0, sweep_stop=10000.00000000001,
            sweep_step=1.0e-12))
        out = tmp_path / "curve.csv"
        if argv[-1] == "--out":
            argv = argv + [str(out)]
        assert main(argv + ["--config", cfg]) == 2
        assert not out.exists()
        assert capsys.readouterr() == (
            "", "error: sweep: step 1e-12 is below float64 resolution over "
                "[10000.0, 10000.00000000001]: grid points coincide\n")

    def test_bad_override_exits_2(self, tmp_path, capsys, no_draws):
        # A flag's fault reads as the file key's would.
        cfg = write_scenario(tmp_path, **snr_keys())
        out = tmp_path / "curve.csv"
        assert main(["snr-sweep", "--config", cfg, "--out", str(out),
                     "--trials", "0"]) == 2
        assert not out.exists()
        assert capsys.readouterr() == (
            "", "error: sweep: trials must be in [1, 2**32], got 0\n")

    def test_override_replaces_invalid_file_value(self, tmp_path, capsys):
        # The flag's value replaces the file's before either is checked.
        cfg = write_scenario(tmp_path, **snr_keys(trials=0))
        out = tmp_path / "curve.csv"
        assert main(["snr-sweep", "--config", cfg, "--out", str(out),
                     "--trials", "7"]) == 0
        assert out.exists()
        assert main(["geometry", "--config", cfg, "--dump-config",
                     "--trials", "7"]) == 0
        assert "\ntrials: 7\n" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["geometry"], ["geometry", "--dump-config"], ["snr-sweep", "--out"],
        ["altitude-sweep", "--out"], ["optimal-altitude"],
    ], ids=["geometry", "dump-config", "snr", "altitude", "optimal"])
    def test_bad_spacing_dof_beta_exits_2(self, tmp_path, capsys, argv):
        cfg = write_scenario(tmp_path, spacing_dof_beta=-1.0,
                             **altitude_keys())
        out = tmp_path / "curve.csv"
        argv = argv + [str(out)] if argv[-1] == "--out" else argv
        assert main(argv + ["--config", cfg]) == 2
        assert not out.exists()
        assert capsys.readouterr() == ("", "error: spacing_dof_beta must be "
                                       "a positive finite number, got -1.0\n")

    @pytest.mark.parametrize("argv", [
        ["geometry"], ["geometry", "--dump-config"], ["snr-sweep", "--out"],
        ["altitude-sweep", "--out"], ["optimal-altitude"],
    ], ids=["geometry", "dump-config", "snr", "altitude", "optimal"])
    def test_number_past_float64_exits_2(self, tmp_path, capsys, argv):
        cfg = write_scenario(tmp_path, **altitude_keys(hap_power=10**400))
        out = tmp_path / "curve.csv"
        argv = argv + [str(out)] if argv[-1] == "--out" else argv
        assert main(argv + ["--config", cfg]) == 2
        assert not out.exists()
        assert capsys.readouterr() == (
            "", "error: hap_power is out of float64 range\n")

    def test_integer_too_long_to_convert_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text("hap_power: " + "1" * 5000 + "\n", encoding="utf-8")
        assert main(["geometry", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: invalid YAML in {cfg}: ")
        assert "line 1," in err
        assert "set_int_max_str_digits" not in err

    def test_repeated_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(yaml.safe_dump(snr_keys(trials=50)) + "trials: 7\n",
                       encoding="utf-8")
        out = tmp_path / "curve.csv"
        assert main(["snr-sweep", "--config", str(cfg), "--out",
                     str(out)]) == 2
        assert not out.exists()
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err.startswith(f"error: invalid YAML in {cfg}: found "
                              "duplicate key 'trials'\n")

    def test_trials_beyond_one_spawn_word_exit_2(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, **snr_keys())
        out = tmp_path / "curve.csv"
        assert main(["snr-sweep", "--config", cfg, "--out", str(out),
                     "--trials", str(2**32 + 1)]) == 2
        assert not out.exists()
        assert "trials must be in [1, 2**32]" in capsys.readouterr().err

    @pytest.mark.parametrize("keys", [
        dict(kappa_up_db=4000.0),
        dict(sweep_stop=4000.0, sweep_step=1000.0),
        dict(sweep_start=-4000.0, sweep_stop=10.0, sweep_step=2000.0),
    ], ids=["kappa", "snr", "snr-underflow"])
    def test_db_overflow_exits_2(self, tmp_path, capsys, keys):
        cfg = write_scenario(tmp_path, **snr_keys(**keys))
        out = tmp_path / "curve.csv"
        assert main(["snr-sweep", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "4000.0 dB" in err

    def test_far_field_message_formats_the_distance(self, tmp_path, capsys):
        # 18000 - 17999.9 is 0.09999999999854481 in float64.
        cfg = write_scenario(tmp_path, **snr_keys(relay_altitude_m=17999.9))
        out = tmp_path / "curve.csv"
        assert main(["snr-sweep", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: d_sr_m = 0.1 m is inside the far-field limit 0.3125 m\n")

    @pytest.mark.parametrize("command,keys,names", [
        ("altitude-sweep", altitude_keys(hap_power=1e308, relay_power=1e308,
                                         noise_power=1e-300),
         "hap_power/noise_power"),
        ("optimal-altitude", altitude_keys(hap_power=1e308, relay_power=1e308,
                                           noise_power=1e-300),
         "hap_power/noise_power"),
        ("snr-sweep", snr_keys(ref_gain_up=1e200, ref_gain_down=1e200),
         "ref_gain_up"),
    ], ids=["altitude-power", "optimal-power", "snr-gain"])
    def test_snr_overflow_exits_2(self, tmp_path, capsys, command, keys,
                                  names):
        cfg = write_scenario(tmp_path, **keys)
        argv = [command, "--config", cfg]
        if command != "optimal-altitude":
            argv += ["--out", str(tmp_path / "curve.csv")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and names in captured.err

    @pytest.mark.parametrize("command,keys,spelled,message", [
        ("altitude-sweep", altitude_keys(),
         "hap_power: 1e308\nnoise_power: 1e-300\n",
         "error: SNR scale on d_sr_m overflows float64: "
         "lower hap_power/noise_power\n"),
        ("snr-sweep", snr_keys(), "ref_gain_up: 1e200\n",
         "error: SNR on d_sr_m overflows float64: lower "
         "hap_power/noise_power, ref_gain_up or the swept SNR\n"),
    ], ids=["powers", "gain"])
    def test_readme_overflow_examples_exit_2(self, tmp_path, capsys, command,
                                             keys, spelled, message):
        # The README's examples, spelled as there: exponent floats with
        # neither a dot nor an exponent sign.
        spelled_keys = [line.split(":")[0] for line in spelled.splitlines()]
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump({k: v for k, v in keys.items()
                                        if k not in spelled_keys}) + spelled,
                        encoding="utf-8")
        out = tmp_path / "curve.csv"
        argv = [command, "--config", str(path), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("gains,hop,keys", [
        (dict(ref_gain_up=8.1e8, ref_gain_down=8.1e5), "d_sr_m",
         "hap_power/noise_power, ref_gain_up"),
        (dict(ref_gain_up=8.1e5, ref_gain_down=8.1e8), "d_rd_m",
         "relay_power/noise_power, ref_gain_down"),
    ], ids=["uplink", "downlink"])
    def test_overflow_at_the_last_snr_point_exits_2(self, tmp_path, capsys,
                                                     gains, hop, keys):
        # At 3000, 3040 and 3080 dB one hop's path factor is 100 and the
        # other's 1e-4; the forms lie below 0.35, so only the last point's
        # SNR on the first hop, near 1e310 q, overflows.
        cfg = write_scenario(tmp_path, **snr_keys(
            sweep_start=3000.0, sweep_stop=3080.0, sweep_step=40.0, **gains))
        out = tmp_path / "curve.csv"
        assert main(["snr-sweep", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: SNR on {hop} overflows float64: "
                                f"lower {keys} or the swept SNR\n")
        assert not out.exists()

    @pytest.mark.parametrize("start,stop,message", [
        (17999.5, 17999.9, "d_sr_m = 0.1 m"),
        (0.1, 500.1, "d_rd_m = 0.1 m"),
    ], ids=["last-point", "first-point"])
    def test_grid_distance_inside_the_far_field_exits_2(self, tmp_path,
                                                        capsys, start, stop,
                                                        message):
        # The grid's end points are its shortest hops; 0.3125 m is the
        # far-field limit of the default arrays.
        cfg = write_scenario(tmp_path, **altitude_keys(
            sweep_start=start, sweep_stop=stop, sweep_step=stop - start))
        out = tmp_path / "curve.csv"
        assert main(["altitude-sweep", "--config", cfg, "--out",
                     str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {message} is inside the far-field limit 0.3125 m\n")
        assert not out.exists()

    def test_missing_config_exits_4(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.yaml")
        assert main(["geometry", "--config", missing]) == 4

    def test_unwritable_output_exits_4(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, **snr_keys())
        out = tmp_path / "no_such_dir" / "curve.csv"
        assert main(["snr-sweep", "--config", cfg, "--out", str(out)]) == 4

    @pytest.mark.parametrize("command,keys", [
        ("snr-sweep", snr_keys()),
        ("altitude-sweep", altitude_keys()),
    ], ids=["snr", "altitude"])
    @pytest.mark.parametrize("out,message", [
        ("no_such_dir/curve.csv", "[Errno 2] No such file or directory"),
        (".", "[Errno 21] Is a directory"),
        ("scenario.yaml/curve.csv", "[Errno 20] Not a directory"),
    ], ids=["missing-dir", "directory", "under-a-file"])
    def test_unusable_output_exits_4_before_drawing(
            self, tmp_path, capsys, no_draws, command, keys, out, message):
        out = str(tmp_path / out)
        argv = [command, "--config", write_scenario(tmp_path, **keys),
                "--out", out]
        assert main(argv) == 4
        assert capsys.readouterr().err == f"error: {message}: {out!r}\n"
        assert not (tmp_path / "no_such_dir").exists()

    @pytest.mark.parametrize("command,keys", [
        ("snr-sweep", snr_keys()),
        ("altitude-sweep", altitude_keys()),
    ], ids=["snr", "altitude"])
    def test_empty_output_exits_4_before_drawing(self, tmp_path, capsys,
                                                 no_draws, command, keys):
        argv = [command, "--config", write_scenario(tmp_path, **keys),
                "--out", ""]
        assert main(argv) == 4
        assert capsys.readouterr() == (
            "", "error: [Errno 2] No such file or directory: ''\n")

    @pytest.mark.parametrize("scenario,keys,message", [
        ("snr_sweep.yaml", dict(relay_altitude_m=0.2),
         "d_rd_m = 0.2 m is inside the far-field limit 0.3125 m"),
        ("snr_sweep.yaml", dict(sweep_start=-4000.0),
         "snr_db sweep point -4000.0 dB is too small for a linear value"),
        ("altitude_sweep.yaml", {},
         "spec.variable must be 'snr_db', got 'relay_altitude_m'"),
        ("snr_sweep.yaml", dict(sweep_stop=4000.0),
         "3085.0 dB is too large for a linear value"),
    ], ids=["far-field", "db-underflow", "wrong-variable", "db-overflow"])
    def test_snr_input_error_exits_2_before_an_empty_output(
            self, tmp_path, capsys, monkeypatch, no_draws, scenario, keys,
            message):
        # As for the altitude commands, snr-sweep's own input checks come
        # before the --out check.
        mapping = yaml.safe_load((SCENARIOS / scenario).read_text())
        cfg = write_scenario(tmp_path, **{**mapping, **keys})
        monkeypatch.chdir(tmp_path)
        assert main(["snr-sweep", "--config", cfg, "--out", ""]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert os.listdir(tmp_path) == ["scenario.yaml"]

    @pytest.fixture
    def conversions(self, monkeypatch):
        """The dB values simulator converts to linear, in call order."""
        calls = []

        def counted(value_db):
            calls.append(value_db)
            return db_to_linear(value_db)
        monkeypatch.setattr(simulator, "db_to_linear", counted)
        return calls

    def test_snr_sweep_converts_each_grid_point_once(self, tmp_path,
                                                     conversions):
        # The Rician factors (10 dB) are converted too, so only the grid
        # points are counted: 1, 6 and 11 dB.
        cfg = write_scenario(tmp_path, **snr_keys(sweep_start=1.0,
                                                  sweep_stop=11.0))
        out = tmp_path / "curve.csv"
        assert main(["snr-sweep", "--config", cfg, "--out", str(out)]) == 0
        assert [x for x in conversions if x != 10.0] == [1.0, 6.0, 11.0]
        assert len(out.read_text().splitlines()) == 4

    def test_valid_input_with_an_empty_output_is_checked_once(
            self, tmp_path, capsys, no_draws, conversions):
        cfg = write_scenario(tmp_path, **snr_keys())
        assert main(["snr-sweep", "--config", cfg, "--out", ""]) == 4
        assert capsys.readouterr() == (
            "", "error: [Errno 2] No such file or directory: ''\n")
        assert conversions == [0.0, 5.0, 10.0]

    def test_snr_input_error_comes_before_a_nul_in_the_output_directory(
            self, tmp_path, capsys, no_draws):
        # os.stat raises ValueError for the NUL; a command line cannot
        # carry one, so only an in-process call reaches this.
        cfg = write_scenario(tmp_path, **snr_keys(relay_altitude_m=0.2))
        assert main(["snr-sweep", "--config", cfg, "--out",
                     str(tmp_path / "a\0b" / "curve.csv")]) == 2
        assert capsys.readouterr() == (
            "", "error: d_rd_m = 0.2 m is inside the far-field limit "
                "0.3125 m\n")

    def test_non_finite_tol_exits_2_before_drawing(self, tmp_path, capsys,
                                                   no_draws):
        cfg = write_scenario(tmp_path, **altitude_keys())
        assert main(["optimal-altitude", "--config", cfg, "--tol", "inf"]) == 2
        assert capsys.readouterr() == ("",
                                       "error: tol must be finite, got inf\n")

    @pytest.mark.parametrize("command,keys", [
        ("snr-sweep", snr_keys()),
        ("altitude-sweep", altitude_keys()),
        ("optimal-altitude", altitude_keys()),
    ], ids=["snr", "altitude", "optimal"])
    def test_trials_too_many_to_store_exit_2(self, tmp_path, capsys,
                                             monkeypatch, command, keys):
        # numpy's message for 36 stored forms of 2**32 trials each;
        # nothing is allocated for real.
        message = ("Unable to allocate 1.12 TiB for an array with shape "
                   "(36, 4294967296) and data type float64")

        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)
        monkeypatch.setattr(simulator.TrialEnsemble, "__init__", out_of_memory)
        out = tmp_path / "curve.csv"
        argv = [command, "--config", write_scenario(tmp_path, **keys),
                "--trials", str(2**32)]
        if command != "optimal-altitude":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_missing_required_args_raise_system_exit(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["snr-sweep"])


def glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


class TestChunkMemory:
    """main keeps freed chunk arrays resident through glibc's mallopt."""

    @pytest.fixture
    def fresh(self):
        # The helper is cached per process; let it run again before and
        # after a test that replaces the C library.
        cli._keep_chunk_memory.cache_clear()
        yield
        cli._keep_chunk_memory.cache_clear()

    @staticmethod
    def snr_argv(out, trials=500):
        return ["snr-sweep", "--config", str(SCENARIOS / "snr_sweep.yaml"),
                "--trials", str(trials), "--out", str(out)]

    @pytest.mark.skipif(not glibc(), reason="the thresholds are glibc's")
    def test_repeated_sweep_takes_no_fresh_pages(self, tmp_path):
        import resource

        argv = self.snr_argv(tmp_path / "curve.csv")
        assert main(argv) == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(argv) == 0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 100

    @pytest.mark.parametrize("libc", [SimpleNamespace(),
                                      SimpleNamespace(mallopt=lambda p, v: 0)],
                             ids=["no-mallopt", "mallopt-refuses"])
    def test_same_csv_without_mallopt(self, tmp_path, monkeypatch, fresh,
                                      libc):
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        assert main(self.snr_argv(want, trials=40)) == 0
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        cli._keep_chunk_memory.cache_clear()
        assert main(self.snr_argv(got, trials=40)) == 0
        assert cli._keep_chunk_memory() is False
        assert got.read_bytes() == want.read_bytes()

    def test_thresholds_set_once_per_process(self, tmp_path, monkeypatch,
                                             fresh, capsys):
        calls = []
        libc = SimpleNamespace(mallopt=lambda p, v: calls.append((p, v)) or 1)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        cfg = write_scenario(tmp_path)
        for _ in range(3):
            assert main(["geometry", "--config", cfg]) == 0
        # M_MMAP_THRESHOLD at four 1 MiB chunk budgets, M_TRIM_THRESHOLD
        # at twice that.
        assert simulator._CHUNK_DRAWS * 8 == 2**20
        assert calls == [(-3, 4 * 2**20), (-1, 8 * 2**20)]
        assert cli._keep_chunk_memory() is True
        assert len(calls) == 2


@pytest.mark.skipif(shutil.which("hapsim") is None,
                    reason="console script not on PATH")
class TestConsoleScript:
    def test_geometry_runs(self, tmp_path):
        cfg = write_scenario(tmp_path)
        proc = subprocess.run(["hapsim", "geometry", "--config", cfg],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "d_sd_m=18000" in proc.stdout


def test_cli_import_loads_neither_scipy_nor_numba():
    code = ("import sys, hapsim.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} "
            "& {'scipy', 'numba'}))")
    env = dict(os.environ, PYTHONPATH=str(Path(hapsim.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random lazily, and loading it costs about 20 ms, so
    # the trial seeding touches it on first use, not at import.
    code = ("import sys, hapsim, hapsim.cli; "
            "print('numpy' in sys.modules, 'numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(hapsim.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True False"
