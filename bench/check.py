"""Output checks for one benchmark job's CSV.

For the default seed every numeric cell must match the golden CSV (made from
the unchanged program) to float round-off.  For any seed the ensemble
reference, which depends only on the model and beta, must match the golden
reference, and each workload's invariants must hold.
"""

from __future__ import annotations

import math

from workloads import DEFAULT_SEED, Workload, make_config

RTOL = 1e-8     # CSV cells carry 12 significant digits
ATOL = 1e-12    # times the column's largest magnitude

# The exact backend's estimate must sit within max(REL_FLOOR, Z_MAX * sigma)
# of the reference, sigma being the CSV's own uncertainty.  Acceptance
# criterion 1 uses max(0.03, 2 sigma) for one hand-picked seed.  Over seeds
# 0-299 of exact-chain10 the unchanged program breaks that on some row of the
# 20-beta grid for 60 seeds; its largest relative error was 0.073 and its
# largest error was 6.6 sigma (R=10 makes sigma itself noisy), so the
# per-seed gate is wider.
REL_FLOOR = 0.1
Z_MAX = 6.0


def parse_csv(text: str) -> tuple[list[str], list[dict[str, str]]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _num(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL * scale


def _key_and_estimate(workload: Workload) -> tuple[str, str]:
    if workload.subcommand == "dilation-scan":
        return "epsilon", "mean_energy"
    return "beta", "mean"


def _expected_keys(workload: Workload) -> list[float]:
    if workload.subcommand == "dilation-scan":
        return workload.body["dilation"]["epsilons"]
    return workload.body["estimate"]["betas"]


def check_output(workload: Workload, seed: int, text: str,
                 golden: str) -> list[str]:
    """Problems found in one job's CSV; an empty list means it passed."""
    header, rows = parse_csv(text)
    g_header, g_rows = parse_csv(golden)
    if header != g_header:
        return [f"header {header} != golden {g_header}"]
    key, est = _key_and_estimate(workload)
    keys = _expected_keys(workload)
    if [_num(r[key]) for r in rows] != keys:
        return [f"{key} column does not match the config"]
    problems = []
    for i, row in enumerate(rows):
        for col, cell in row.items():
            v = _num(cell)
            if v is not None and not math.isfinite(v):
                problems.append(f"row {i}: {col}={cell} is not finite")

    def column(rs, col):
        return [_num(r[col]) for r in rs]

    ref, g_ref = column(rows, "ensemble_ref"), column(g_rows, "ensemble_ref")
    scale = max(abs(v) for v in g_ref)
    for i, (a, b) in enumerate(zip(ref, g_ref)):
        if a is None or not _close(a, b, scale):
            problems.append(f"row {i}: ensemble_ref {a} != golden {b}")

    if seed == DEFAULT_SEED:
        for col in header:
            got, want = column(rows, col), column(g_rows, col)
            if any(w is None for w in want):
                if [r[col] for r in rows] != [r[col] for r in g_rows]:
                    problems.append(f"column {col} differs from golden")
                continue
            scale = max(abs(w) for w in want)
            for i, (a, b) in enumerate(zip(got, want)):
                if a is None or not _close(a, b, scale):
                    problems.append(f"row {i}: {col}={a} != golden {b}")

    if workload.subcommand == "dilation-scan":
        for i, row in enumerate(rows):
            for col in ("P0", "F"):
                v = _num(row[col])
                if v is None or not 0.0 <= v <= 1.0:
                    problems.append(f"row {i}: {col}={row[col]} not in [0, 1]")
    else:
        problems += _check_sweep(workload, seed, rows)
    return problems


def _check_sweep(workload: Workload, seed: int, rows) -> list[str]:
    config = make_config(workload, seed)
    fixed = {"backend": config["backend"]["kind"],
             "N": str(math.prod(config["model"]["extents"])),
             "d": str(config["random_circuit"]["depth"]),
             "R": str(config["estimate"]["R"]),
             "seed": str(config["random_circuit"]["seed"])}
    problems = []
    for i, row in enumerate(rows):
        for col, want in fixed.items():
            if row[col] != want:
                problems.append(f"row {i}: {col}={row[col]} != {want}")
        mean, unc, ref, sq = (_num(row[c]) for c in
                              ("mean", "uncertainty", "ensemble_ref",
                               "squared_error"))
        if None in (mean, unc, ref, sq):
            problems.append(f"row {i}: missing numeric cell")
            continue
        if unc < 0:
            problems.append(f"row {i}: negative uncertainty {unc}")
        if not _close(sq, (mean - ref) ** 2, ref * ref):
            problems.append(f"row {i}: squared_error != (mean - ref)^2")
        if fixed["backend"] == "exact":
            tol = max(REL_FLOOR, Z_MAX * unc / abs(ref))
            if abs(mean - ref) / abs(ref) > tol:
                problems.append(f"row {i}: |mean - ref| / |ref| = "
                                f"{abs(mean - ref) / abs(ref):.4g} > {tol:.4g}")
    return problems


def ref_rel_err(workload: Workload, text: str) -> float:
    """max over rows of |estimate - ensemble_ref| / |ensemble_ref|."""
    _, est = _key_and_estimate(workload)
    _, rows = parse_csv(text)
    return max(abs(float(r[est]) - float(r["ensemble_ref"]))
               / abs(float(r["ensemble_ref"])) for r in rows)
