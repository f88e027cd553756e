"""Output checks of the sweep benchmark.

Each check returns a list of problems; an empty list means it passed.  The
checks read only the CSV text and captured stdout that a CLI call produced,
never hapsim's own objects, so they stay independent of the code measured.
"""

from __future__ import annotations

import math

REL_TOL = 1e-9  # the repository's fixed oracle tolerance


def parse_csv(text: str) -> tuple[list[str], list[dict[str, str]]]:
    lines = text.splitlines()
    if not lines:
        return [], []
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def parse_stdout(text: str) -> dict[str, str]:
    """key=value lines the CLI prints."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _num(value: str) -> float:
    try:
        return float(value)
    except ValueError:
        return math.nan


def invariants(workload, csv_text: str, stdout_text: str) -> list[str]:
    """Properties that hold for any seed."""
    header, rows = parse_csv(csv_text)
    problems = []
    start, stop, step = workload.grid
    expected = int(math.floor((stop - start) / step + 1e-9)) + 1
    if len(rows) != expected:
        return [f"{len(rows)} rows, grid has {expected}"]
    xkey = header[0]
    for i, row in enumerate(rows):
        if abs(_num(row[xkey]) - (start + step * i)) > 1e-9 * max(1.0, abs(stop)):
            problems.append(f"row {i}: {xkey}={row[xkey]} is off the grid")
    means = [_num(r.get("mean_rate_bps_hz", "")) for r in rows]
    if not all(math.isfinite(m) for m in means):
        problems.append("a mean rate is not finite")
    # Singular flags depend on the draws alone, not on SNR or altitude.
    failed = {r.get("trials_failed") for r in rows}
    if len(failed) != 1:
        problems.append(f"trials_failed differs across points: {sorted(failed)}")
    if not workload.altitude:
        if any(b < a for a, b in zip(means, means[1:])):
            problems.append("relay mean rate decreases with SNR")
        return problems
    printed = parse_stdout(stdout_text)
    finite = [(m, _num(r[xkey])) for m, r in zip(means, rows) if math.isfinite(m)]
    if not finite:
        return problems + ["no finite point to take an argmax of"]
    # Largest mean; ties resolve to the smallest altitude, as the CLI does.
    argmax = max(finite, key=lambda mx: (mx[0], -mx[1]))[1]
    if _num(printed.get("optimal_altitude_m", "")) != argmax:
        problems.append(f"printed optimum {printed.get('optimal_altitude_m')} "
                        f"is not the CSV argmax {argmax:.12g}")
    refined = _num(printed.get("optimal_altitude_refined_m", ""))
    if not abs(refined - argmax) <= step:
        problems.append(f"refined optimum {refined} is more than one step "
                        f"from the grid argmax {argmax:.12g}")
    return problems


def against_reference(csv_text: str, stdout_text: str, ref_csv: str,
                      ref_stdout: str) -> list[str]:
    """Rows against the committed reference of the recorded seed.

    Grid values and trials_failed must match exactly; every other value to
    REL_TOL relative.  The same rule covers the key=value lines printed.
    """
    header, rows = parse_csv(csv_text)
    ref_header, ref_rows = parse_csv(ref_csv)
    if header != ref_header:
        return [f"header {header} differs from reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    exact = {header[0], "trials_failed", "optimal_altitude_m"}
    pairs = [(f"row {i}", row, ref) for i, (row, ref) in enumerate(zip(rows, ref_rows))]
    pairs.append(("stdout", parse_stdout(stdout_text), parse_stdout(ref_stdout)))
    for where, got, want in pairs:
        if got.keys() != want.keys():
            problems.append(f"{where}: keys {sorted(got)} != {sorted(want)}")
            continue
        for key, value in want.items():
            if key in exact or value == "":
                ok = got[key] == value
            else:
                ok = math.isclose(_num(got[key]), _num(value), rel_tol=REL_TOL,
                                  abs_tol=0.0)
            if not ok:
                problems.append(f"{where}: {key}={got[key]}, reference {value}")
    return problems
