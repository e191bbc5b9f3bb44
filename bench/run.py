"""tpqsim benchmark: each job is a fresh `python -m tpqsim.cli` process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the harness finds `src/` next to `bench/`).
A run is a closed loop: one job at a time from this process, each job a
fresh CLI process on the generated config, until the next job would end past
`--seconds`.  Every job's CSV is checked (see check.py); a job fails on a
nonzero exit or a failed check.

--trace 0 reports the end-to-end metrics: median job wall time, CLI import
time, states per second, peak RSS and the share of jobs that passed.
--trace 1 alternates an untraced job with the same job traced in-process
(spans.py) and reports per-layer self times and counts, the tracing
overhead, and, for the BLAS-heavy workloads, a traced pass with one BLAS
thread.  A layer a workload never calls has an absent span and reads 0, as
do the one-thread metrics on the other workloads.  `--workload all` runs
every workload in turn.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

Tests of the harness: `python3 -m pytest bench`.  Golden CSVs:
`python3 bench/make_golden.py`.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from check import check_output, ref_rel_err
from spans import ROOT as ROOT_SPAN
from workloads import OUTPUT_NAME, WORKLOADS, Workload, config_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"

RUN_DEADLINE_S = 170.0       # a run must end within 180 s
BLAS1_WORKLOADS = ("exact-chain10", "qite-chain6")

END_TO_END = {  # name: unit
    "wall_s": "s", "setup_s": "s", "states_per_s": "1/s",
    "peak_rss_mb": "MB", "ok_frac": "ratio"}

# per-layer metrics: (span name, field, unit); fields are self_s, calls, a
# summed count, or a derived value (p0_mean, gbps_computed)
LAYER_METRICS = [
    ("pauli.to_dense", "self_s", "s"), ("pauli.to_dense", "bytes", "B"),
    ("pauli.eig", "self_s", "s"),
    ("estimator.ensemble_expectation", "self_s", "s"),
    ("estimator.ensemble_expectation", "calls", "count"),
    ("nonunitary.apply_exact", "self_s", "s"),
    ("nonunitary.apply_exact", "calls", "count"),
    ("statevector.expectation", "self_s", "s"),
    ("statevector.expectation", "calls", "count"),
    ("nonunitary.apply_dilated", "self_s", "s"),
    ("nonunitary.apply_dilated", "calls", "count"),
    ("nonunitary.apply_dilated", "p0_mean", "prob"),
    ("nonunitary.apply_dilated", "dense_bytes", "B"),
    ("qite.qite_evolve", "self_s", "s"), ("qite.qite_evolve", "calls", "count"),
    ("qite.qite_evolve", "gates", "count"),
    ("qite.qite_evolve", "cnots", "count"),
    ("fable.fable_encode", "self_s", "s"),
    ("fable.fable_encode", "gates", "count"),
    ("fable.fable_encode", "cnots", "count"),
    ("fable.apply_fable", "self_s", "s"), ("fable.apply_fable", "calls", "count"),
    ("fable.apply_fable", "p0_mean", "prob"),
    ("statevector.apply_circuit", "self_s", "s"),
    ("statevector.apply_circuit", "gates", "count"),
    ("statevector.apply_circuit", "gbps_computed", "GB/s"),
    ("statevector.postselect", "self_s", "s"),
    ("random_state.random_state", "self_s", "s"),
    ("random_state.random_state", "gates", "count"),
    ("cli.load_config", "self_s", "s"), ("cli.write_csv", "self_s", "s"),
    (ROOT_SPAN, "self_s", "s"),
]
# layers re-measured with one BLAS thread (reported as 0 on other workloads)
BLAS1_LAYERS = ("pauli.eig", "estimator.ensemble_expectation",
                "qite.qite_evolve", "statevector.apply_circuit")


@dataclass
class Job:
    exit_code: int
    wall_s: float
    rss_mb: float
    csv: str = ""
    problems: list[str] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


class Runner:
    """Starts child processes in one work directory and checks their output."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.started = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.config = workdir / "config.json"
        self.config.write_text(config_text(workload, seed))
        self.golden = (GOLDEN / f"{workload.name}.csv").read_text()
        self.attempted = 0
        self.failed = 0

    def spawn(self, argv: list[str], env: dict | None = None) -> Job:
        """Run one child to completion; wall time and its own peak RSS."""
        remaining = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        with open(self.workdir / "stdout", "wb") as out, \
                open(self.workdir / "stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.workdir,
                                    env=env or self.env, stdout=out, stderr=err)
            killer = threading.Timer(max(remaining, 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Job(proc.returncode, wall, usage.ru_maxrss / 1024.0)

    def _take_csv(self, job: Job) -> Job:
        out = self.workdir / OUTPUT_NAME
        if job.exit_code != 0:
            err = (self.workdir / "stderr").read_text(errors="replace").strip()
            job.problems.append(f"exit code {job.exit_code}: {err[-300:]}")
        elif not out.exists():
            job.problems.append("no CSV written")
        else:
            job.csv = out.read_text()
            job.problems += check_output(self.workload, self.seed, job.csv,
                                         self.golden)
        out.unlink(missing_ok=True)
        return job

    def _count(self, job: Job, label: str) -> Job:
        self.attempted += 1
        if not job.ok:
            self.failed += 1
        status = "ok" if job.ok else "FAILED: " + "; ".join(job.problems[:3])
        print(f"  {label}: {job.wall_s:.3f} s, {job.rss_mb:.0f} MB, {status}",
              flush=True)
        return job

    def cli_job(self) -> Job:
        (self.workdir / OUTPUT_NAME).unlink(missing_ok=True)
        job = self.spawn(["-m", "tpqsim.cli", self.workload.subcommand,
                          str(self.config)])
        return self._count(self._take_csv(job), "job")

    def traced_job(self, blas_threads: int | None = None,
                   expect_csv: str | None = None) -> Job:
        """The same job run in-process under spans.Tracer.

        With `expect_csv`, the CSV must equal it byte for byte, so that
        tracing cannot change results.
        """
        summary_path = self.workdir / "summary.json"
        summary_path.unlink(missing_ok=True)
        (self.workdir / OUTPUT_NAME).unlink(missing_ok=True)
        env = self.env
        if blas_threads is not None:
            env = dict(env, OPENBLAS_NUM_THREADS=str(blas_threads))
        job = self._take_csv(self.spawn(
            [str(BENCH / "spans.py"), self.workload.subcommand,
             str(self.config), str(summary_path)], env))
        if job.exit_code == 0:
            job.summary = json.loads(summary_path.read_text())["layers"]
        if job.ok and expect_csv is not None and job.csv != expect_csv:
            job.problems.append("traced CSV differs from the untraced CSV")
        label = "traced" if blas_threads is None else \
            f"traced, {blas_threads} BLAS thread"
        return self._count(job, label)

    def import_s(self) -> float:
        """Time for a fresh interpreter to import tpqsim.cli from SRC."""
        probe = "import sys, tpqsim.cli; sys.stdout.write(tpqsim.cli.__file__)"
        job = self.spawn(["-c", probe])
        where = (self.workdir / "stdout").read_text()
        if job.exit_code != 0 or not where.startswith(str(SRC)):
            err = (self.workdir / "stderr").read_text(errors="replace")
            raise SystemExit(f"tpqsim.cli did not import from {SRC}: "
                             f"{where!r} {err[-300:]}")
        return job.wall_s

    def loop(self, seconds: float, iteration) -> None:
        """Closed loop: repeat until the next iteration would end late."""
        start = time.perf_counter()
        durations = []
        while True:
            t0 = time.perf_counter()
            iteration()
            durations.append(time.perf_counter() - t0)
            if (time.perf_counter() - start + statistics.median(durations)
                    > seconds):
                return


def measure_end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    runner.import_s()  # warm-up: the first import may compile bytecode
    setup: list[float] = []
    jobs: list[Job] = []

    def iteration():
        # interleaved, so that both medians sample the same machine state
        setup.append(runner.import_s())
        jobs.append(runner.cli_job())

    runner.loop(seconds, iteration)
    timed = [j for j in jobs if j.ok] or jobs
    wall = statistics.median(j.wall_s for j in timed)
    print(f"  {len(setup)} imports, {len(jobs)} jobs")
    return {"wall_s": wall, "setup_s": statistics.median(setup),
            "states_per_s": runner.workload.pairs / wall,
            "peak_rss_mb": statistics.median(j.rss_mb for j in timed),
            "ok_frac": (runner.attempted - runner.failed) / runner.attempted}


def _layer_value(summary: dict, span: str, key: str) -> float:
    entry = summary.get(span)
    if entry is None:  # the layer was not called: an absent span, not an error
        return 0.0
    if key in ("self_s", "total_s", "calls"):
        return float(entry[key])
    counts = entry["counts"]
    if key == "p0_mean":
        return counts.get("p0", 0.0) / entry["calls"]
    if key == "gbps_computed":
        return counts.get("bytes", 0) / entry["self_s"] / 1e9 \
            if entry["self_s"] > 0 else 0.0
    return float(counts.get(key, 0))


def _median_layer(jobs: list[Job], span: str, key: str) -> float:
    if not jobs:
        return 0.0
    return statistics.median(_layer_value(j.summary, span, key) for j in jobs)


def measure_layers(runner: Runner, seconds: float) -> dict[str, float]:
    runner.import_s()  # warm-up, as in measure_end_to_end
    plain, traced, blas1 = [], [], []

    def iteration():
        plain.append(runner.cli_job())
        traced.append(runner.traced_job(expect_csv=plain[-1].csv))
        if runner.workload.name in BLAS1_WORKLOADS:
            blas1.append(runner.traced_job(blas_threads=1))

    runner.loop(seconds, iteration)
    traced_ok = [j for j in traced if j.ok]
    blas1_ok = [j for j in blas1 if j.ok]
    metrics = {f"{span}.{key}": _median_layer(traced_ok, span, key)
               for span, key, _ in LAYER_METRICS}
    metrics["trace.wall_s"] = _median_layer(traced_ok, ROOT_SPAN, "total_s")
    metrics["trace.overhead_s"] = (statistics.median(j.wall_s for j in traced)
                                   - statistics.median(j.wall_s for j in plain))
    metrics["blas1.trace.wall_s"] = _median_layer(blas1_ok, ROOT_SPAN, "total_s")
    for span in BLAS1_LAYERS:
        metrics[f"blas1.{span}.self_s"] = _median_layer(blas1_ok, span, "self_s")
    good = [j for j in plain if j.ok]
    metrics["output.ref_rel_err"] = \
        ref_rel_err(runner.workload, good[0].csv) if good else 0.0
    if traced_ok:
        _print_stress(runner.workload.name, traced_ok)
    return metrics


def layer_units() -> dict[str, str]:
    units = {f"{span}.{key}": unit for span, key, unit in LAYER_METRICS}
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s",
                  "blas1.trace.wall_s": "s", "output.ref_rel_err": "ratio"})
    units.update({f"blas1.{span}.self_s": "s" for span in BLAS1_LAYERS})
    return units


def _print_stress(name: str, jobs: list[Job]) -> None:
    """Print the largest self times and the share of the targeted layer."""
    wall = _median_layer(jobs, ROOT_SPAN, "total_s")
    spans = {span for j in jobs for span in j.summary} - {ROOT_SPAN}
    top = sorted(((_median_layer(jobs, span, "self_s"), span) for span in spans),
                 reverse=True)[:4]
    print(f"  largest self times of {wall:.3f} s traced wall: " + ", ".join(
        f"{span} {t:.3f} s ({100 * t / wall:.0f}%)" for t, span in top))
    target = {"qite-chain6": "qite.qite_evolve",
              "fable-chain6": "fable.apply_fable",
              "dilation-grid3x3": "nonunitary.apply_dilated"}.get(name)
    if target:
        share = _median_layer(jobs, target, "total_s") / wall
        print(f"  {target} with its children: {100 * share:.0f}% of traced wall")


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, asked from the library numpy loaded."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    workload = WORKLOADS[name]
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=scratch))
    print(f"# workload {name}, seed {seed}, trace {int(trace)}", flush=True)
    try:
        runner = Runner(workload, seed, workdir)
        if trace:
            metrics, units = measure_layers(runner, seconds), layer_units()
        else:
            metrics, units = measure_end_to_end(runner, seconds), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for key, value in metrics.items():
        print(f"  {key:48s} {value:14.6g} {units[key]}")
    return runner, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "tpqsim" / "cli.py").is_file():
        print(f"error: no tpqsim sources under {SRC}", file=sys.stderr)
        return 2
    print("# machine " + json.dumps(machine_facts(), sort_keys=True), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        runner, found = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace))
        attempted += runner.attempted
        failed += runner.failed
        if len(names) > 1:
            found = {f"{name}/{k}": v for k, v in found.items()}
        metrics.update(found)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
