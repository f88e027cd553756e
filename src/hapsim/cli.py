"""Command-line front end: geometry reports and CSV sweep experiments."""

from __future__ import annotations

import argparse
import ctypes
import errno
import functools
import math
import os
import stat
import sys
from collections.abc import Iterable
from itertools import repeat

from .network import min_hap_separation, wide_hop
from .scenario import Scenario, ScenarioError, dump_scenario, load_scenario
from .simulator import (
    _CHUNK_DRAWS,
    RELAY_ALTITUDE_M,
    SumRateCurve,
    TrialEnsemble,
    check_altitude_bracket,
    check_snr_hops,
    check_snr_sweep,
    check_sweep_variable,
    find_optimal_altitude,
    run_altitude_sweep,
    run_snr_sweep,
)


# glibc mallopt parameters.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_chunk_memory() -> bool:
    """Keep freed chunk-sized arrays in the heap; whether glibc took it.

    By default glibc returns each chunk's work arrays (about 1 MiB each:
    draws, mixed channels and their copy, Gram rows, factors, inverses and
    rate rows) to the kernel when they are freed and faults them in again,
    page by page, for the next chunk.  An mmap threshold of four chunk
    budgets and a trim threshold twice that (glibc's own ratio) serve them
    from resident heap pages instead; the stored forms, which grow with the
    trials, stay above the mmap threshold.  On a 2-core x86 host a fresh
    page cost 2.7-3.1 us against 0.02-0.04 us to re-touch a resident one,
    and a 10^5-trial snr-sweep fell from 158k faults to 14k at the same
    peak RSS.  A no-op where the C library has no mallopt or rejects it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_threshold = 4 * _CHUNK_DRAWS * 8  # bytes of float64
    return bool(mallopt(_M_MMAP_THRESHOLD, mmap_threshold)
                and mallopt(_M_TRIM_THRESHOLD, 2 * mmap_threshold))


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _verdict(flag: bool) -> str:
    return "yes" if flag else "no"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hapsim",
        description="Monte Carlo sum-rate experiments for a relayed "
                    "platform-to-ground MIMO network",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, metavar="PATH",
                        help="scenario YAML file")
    common.add_argument("--seed", type=int, metavar="U64",
                        help="override master_seed")
    common.add_argument("--trials", type=int, metavar="N",
                        help="override trials per point")
    common.add_argument("--dump-config", action="store_true",
                        help="print the effective scenario as YAML and exit")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", required=True, metavar="CSV", help="output file")
    sub.add_parser("geometry", parents=[common],
                   help="print spacings, link distances, and feasibility")
    sub.add_parser("snr-sweep", parents=[common, output],
                   help="mean sum-rate vs transmit SNR, written as CSV")
    sp = sub.add_parser("altitude-sweep", parents=[common, output],
                        help="mean sum-rate vs relay altitude, written as CSV")
    sp.add_argument("--cross-check", action="store_true",
                    help="also refine the optimum by golden-section search "
                         "on the same trials")
    sp = sub.add_parser("optimal-altitude", parents=[common],
                        help="golden-section search for the best relay altitude")
    sp.add_argument("--lo", type=float, metavar="M", help="lower altitude bound")
    sp.add_argument("--hi", type=float, metavar="M", help="upper altitude bound")
    sp.add_argument("--tol", type=float, metavar="M",
                    help="bracket width to stop at (default: sweep step)")
    return parser


def _cmd_geometry(scenario: Scenario) -> int:
    net = scenario.network
    lay = net.layout
    spacing = min_hap_separation(lay.d_sd_m, net.wavelength_m,
                                 scenario.spacing_dof_beta, lay.gs_spacing_m)
    try:
        check_snr_hops(net, scenario.include_baseline)
        far_field_ok = True
    except ValueError:
        far_field_ok = False
    lines = [
        f"d_sd_m={_fmt(lay.d_sd_m)}",
        f"d_sr_m={_fmt(lay.d_sr_m)}",
        f"d_rd_m={_fmt(lay.d_rd_m)}",
        f"min_hap_spacing_m={_fmt(spacing)}",
        f"hap_spacing_m={_fmt(lay.hap_spacing_m)}",
        f"hap_spacing_ok={_verdict(lay.hap_spacing_m >= spacing)}",
        f"relay_antennas_required={net.required_relay_antennas}",
        f"relay_antennas={net.relay_antennas}",
        f"relay_antennas_ok={_verdict(net.relay_antennas >= net.required_relay_antennas)}",
        f"dof_total={_fmt(net.dof_prefactor * net.antennas_per_node)}",
        f"zero_forcing_feasible={_verdict(wide_hop(net) is None)}",
        f"far_field_ok={_verdict(far_field_ok)}",
    ]
    print("\n".join(lines))
    return 0


def _all_singular() -> int:
    print("error: every trial was singular at every sweep point",
          file=sys.stderr)
    return 3


def _check_out(path: str) -> None:
    """Raise, before any draw and without creating the file, the OSError
    that writing the CSV to path would: path is empty or a directory, or
    its directory is missing or not a directory."""
    if not path:
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    else:
        try:
            if stat.S_ISDIR(os.stat(os.path.dirname(path) or os.curdir).st_mode):
                return
            code = errno.ENOTDIR
        except OSError as exc:
            code = exc.errno
    raise OSError(code, os.strerror(code), path)


def _write_csv(path: str, header: str, curve: SumRateCurve,
               *extra: Iterable[str]) -> None:
    """header, then one row per point of curve: x, mean rate, std err,
    trials failed and that point's cell of each extra column."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for x, mean, std_err, *cells in zip(curve.xs, curve.mean_rates,
                                            curve.std_errs, *extra):
            fh.write(",".join([_fmt(x), _fmt(mean), _fmt(std_err),
                               str(curve.trials_failed), *cells]) + "\n")


def _cmd_snr_sweep(scenario: Scenario, out_path: str) -> int:
    # Input errors outrank an unusable --out, as in altitude-sweep, so the
    # input is checked here only then; else run_snr_sweep checks it once.
    try:
        _check_out(out_path)
    except (OSError, ValueError):  # ValueError: a NUL in the directory
        check_snr_sweep(scenario.network, scenario.sweep, scenario.include_baseline)
        raise
    result = run_snr_sweep(scenario.network, scenario.sweep,
                           include_baseline=scenario.include_baseline)
    base = (repeat("") if result.baseline is None
            else map(_fmt, result.baseline.mean_rates))
    _write_csv(out_path,
               "snr_db,mean_rate_bps_hz,std_err,trials_failed,baseline_rate_bps_hz",
               result.relay, base)
    if result.relay.trials_failed == scenario.sweep.trials:
        return _all_singular()
    return 0


def _cmd_altitude_sweep(scenario: Scenario, out_path: str,
                        cross_check: bool) -> int:
    sweep = scenario.sweep
    # Reject bad input before any draw or output: the cross-check searches
    # [start, stop], which can reach past the last grid point.
    check_sweep_variable(sweep, RELAY_ALTITUDE_M)
    check_altitude_bracket(scenario.network, sweep.start,
                           sweep.stop if cross_check else sweep.grid()[-1],
                           sweep.step)
    _check_out(out_path)
    ens = TrialEnsemble(scenario.network, sweep.trials, sweep.master_seed)
    curve = run_altitude_sweep(ens, sweep)
    _write_csv(out_path, "relay_altitude_m,mean_rate_bps_hz,std_err,trials_failed",
               curve)
    if curve.trials_failed == sweep.trials:
        return _all_singular()
    print(f"optimal_altitude_m={_fmt(curve.argmax_x)}")
    if cross_check:
        refined = find_optimal_altitude(ens, sweep.start, sweep.stop, sweep.step)
        print(f"optimal_altitude_refined_m={_fmt(refined)}")
    return 0


def _cmd_optimal_altitude(scenario: Scenario, args: argparse.Namespace) -> int:
    sweep = scenario.sweep
    lo, hi, tol = args.lo, args.hi, args.tol
    if sweep.variable == RELAY_ALTITUDE_M:
        lo = sweep.start if lo is None else lo
        hi = sweep.stop if hi is None else hi
        tol = sweep.step if tol is None else tol
    if lo is None or hi is None or tol is None:
        raise ScenarioError(
            "pass --lo/--hi/--tol or use a relay_altitude_m sweep scenario"
        )
    check_altitude_bracket(scenario.network, lo, hi, tol)  # before any draw
    ens = TrialEnsemble(scenario.network, sweep.trials, sweep.master_seed)
    best = find_optimal_altitude(ens, lo, hi, tol)
    if math.isnan(best):
        return _all_singular()
    print(f"optimal_altitude_m={_fmt(best)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _keep_chunk_memory()
    try:
        scenario = load_scenario(args.config, trials=args.trials,
                                 master_seed=args.seed)
        if args.dump_config:
            sys.stdout.write(dump_scenario(scenario))
            return 0
        if args.command == "geometry":
            return _cmd_geometry(scenario)
        if hop := wide_hop(scenario.network):  # before any draw
            raise ValueError(f"zero forcing is infeasible: every {hop} matrix is "
                             "wider than tall; set relay_antennas = antennas_per_node")
        if args.command == "snr-sweep":
            return _cmd_snr_sweep(scenario, args.out)
        if args.command == "altitude-sweep":
            return _cmd_altitude_sweep(scenario, args.out, args.cross_check)
        return _cmd_optimal_altitude(scenario, args)
    except (ValueError, MemoryError) as exc:  # MemoryError: trials too many to store
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
