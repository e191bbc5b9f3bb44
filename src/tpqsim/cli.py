"""Experiment CLI: JSON config in, deterministic CSV out.

Subcommands: sweep-beta, entropy-scan, dilation-scan, error-scan, resources.
Every CSV starts with a comment line embedding the SHA-256 of the canonical
config so outputs are auditable and regenerable.  Exit codes: 0 success,
1 configuration error, 2 backend failure.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time

import click
import numpy as np

from .errors import ConfigError, TpqsimError
from .estimator import (
    BackendSpec,
    TpqRunSpec,
    ensemble_expectation,
    run_ensemble,
    realization_seed,
    squared_error_scan,
)
from .fable import fable_encode
from .lattice import LatticeSpec, build_heisenberg, magnetization_x
from .nonunitary import (
    DilationSpec,
    ThermalOperator,
    apply_dilated,
    dilated_cnot_count,
    dilated_omega,
)
from .pauli import to_dense
from .qite import QiteSpec, qite_resources
from .random_state import (
    RandomCircuitSpec,
    haar_entropy_reference,
    random_state,
    state_entropy,
)
from .statevector import expectation

_SCHEMA = {
    "model": {"dimension", "extents", "Jx", "Jy", "Jz", "hx"},
    "random_circuit": {"depth", "entangler", "seed"},
    "backend": {"kind", "epsilon", "n_steps", "domain"},
    "estimate": {"betas", "R", "shots", "observable"},
    "output": {"path"},
    "entropy": {"depths", "seeds"},
    "dilation": {"beta", "epsilons", "R"},
    "error_scan": {"sizes", "depths", "beta", "R", "compare_R", "compare_N",
                   "compare_seeds"},
    "resources": {"sizes", "backends", "beta", "n_steps", "domain"},
}


def _check_keys(config: dict) -> None:
    for section, body in config.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"section {section!r} must be an object")
        unknown = set(body) - _SCHEMA[section]
        if unknown:
            raise ConfigError(f"unknown keys in {section!r}: {sorted(unknown)}")
        for key, value in body.items():
            values = value if isinstance(value, list) else [value]
            if any(isinstance(v, float) and not np.isfinite(v) for v in values):
                raise ConfigError(f"{section}.{key} must be finite")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(config)
    return config


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _require(config: dict, *sections: str) -> None:
    for s in sections:
        if s not in config:
            raise ConfigError(f"missing config section {s!r}")


def _int(value, name: str) -> int:
    """A config integer: an int or an integral float, never a bool.

    A bare int() would truncate 3.7 to 3 and accept True as 1.
    """
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _ints(values, name: str) -> list[int]:
    if not isinstance(values, (list, tuple, range)):
        raise ConfigError(f"{name} must be a list of integers")
    return [_int(v, name) for v in values]


def _beta(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not value >= 0:
        raise ConfigError(f"{name} must be a number >= 0, got {value!r}")
    return float(value)


def _base_seed(config: dict, override: int | None) -> int:
    if override is not None:
        return override
    return _int(config.get("random_circuit", {}).get("seed", 0),
                "random_circuit.seed")


def _lattice(config: dict) -> LatticeSpec:
    m = config["model"]
    try:
        return LatticeSpec(
            dimension=_int(m.get("dimension", 1), "model.dimension"),
            extents=tuple(_ints(m["extents"], "model.extents")),
            Jx=float(m.get("Jx", 0.5)), Jy=float(m.get("Jy", 1.25)),
            Jz=float(m.get("Jz", 2.0)), hx=float(m.get("hx", 1.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model: {exc}") from exc


def _backend(config: dict) -> BackendSpec:
    b = config.get("backend", {})
    try:
        return BackendSpec(
            kind=b.get("kind", "exact"),
            epsilon=float(b.get("epsilon", 1e-3)),
            n_steps=_int(b.get("n_steps", 10), "backend.n_steps"),
            domain=b.get("domain"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid backend: {exc}") from exc


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def write_csv(path: str, config: dict, header: list[str],
              rows: list[list], comments: list[str] | None = None) -> None:
    lines = [f"# config_sha256={config_hash(config)}"]
    lines.extend(f"# {c}" for c in (comments or []))
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _output_path(config: dict, override: str | None) -> str:
    if override:
        return override
    if "output" in config and "path" in config["output"]:
        return config["output"]["path"]
    raise ConfigError("no output path: set output.path or pass --output")


@click.group()
def main():
    """Estimate thermal observables of spin models with TPQ states."""


def _common_options(fn):
    fn = click.argument("config_path", type=click.Path(exists=False))(fn)
    fn = click.option("--output", "-o", default=None,
                      help="Override output.path from the config.")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="Override random_circuit.seed.")(fn)
    return fn


def _run(config_path, body):
    try:
        config = load_config(config_path)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(1)
    try:
        body(config)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(1)
    except TpqsimError as exc:
        click.echo(f"backend failure: {exc}", err=True)
        sys.exit(2)


@main.command("sweep-beta")
@_common_options
@click.option("--realizations", "-R", type=int, default=None,
              help="Override estimate.R.")
def sweep_beta(config_path, output, seed, realizations):
    """Thermal observable over a beta grid, averaged over R TPQ states."""

    def body(config):
        _require(config, "model", "estimate")
        lattice = _lattice(config)
        est_cfg = config["estimate"]
        rc = config.get("random_circuit", {})
        betas = tuple(float(b) for b in est_cfg.get(
            "betas", np.round(np.arange(0.1, 2.01, 0.1), 10)))
        observable = None
        if est_cfg.get("observable", "energy") == "magnetization_x":
            observable = magnetization_x(lattice)
        spec = TpqRunSpec(
            lattice, betas,
            observable=observable,
            realizations=realizations or _int(est_cfg.get("R", 10),
                                              "estimate.R"),
            depth=_int(rc.get("depth", 20), "random_circuit.depth"),
            entangler=rc.get("entangler", "cz"),
            backend=_backend(config),
            base_seed=_base_seed(config, seed),
            shots=_int(est_cfg.get("shots", 0), "estimate.shots"))
        est = run_ensemble(spec)
        rows = []
        for i, beta in enumerate(betas):
            rows.append([beta, est.mean[i], est.uncertainty[i],
                         est.ensemble_ref[i], est.squared_error[i],
                         spec.backend.kind, lattice.n_sites, spec.depth,
                         spec.realizations, spec.base_seed])
        write_csv(_output_path(config, output), config,
                  ["beta", "mean", "uncertainty", "ensemble_ref",
                   "squared_error", "backend", "N", "d", "R", "seed"], rows)

    _run(config_path, body)


@main.command("entropy-scan")
@_common_options
def entropy_scan(config_path, output, seed):
    """Mean basis entropy of random-circuit states vs depth."""

    def body(config):
        _require(config, "model", "entropy")
        lattice = _lattice(config)
        scan = config["entropy"]
        depths = _ints(scan.get("depths", range(1, 31)), "entropy.depths")
        n_seeds = _int(scan.get("seeds", 50), "entropy.seeds")
        rc = config.get("random_circuit", {})
        base_seed = _base_seed(config, seed)
        entangler = rc.get("entangler", "cz")
        ref = haar_entropy_reference(lattice.n_sites)
        rows = []
        for d in depths:
            ent = [state_entropy(random_state(RandomCircuitSpec(
                lattice, depth=d, entangler=entangler,
                seed=realization_seed(base_seed, s)))) for s in range(n_seeds)]
            rows.append([d, float(np.mean(ent)),
                         float(np.std(ent) / np.sqrt(n_seeds)), ref])
        write_csv(_output_path(config, output), config,
                  ["depth", "mean_entropy", "stderr", "haar_reference"], rows)

    _run(config_path, body)


@main.command("dilation-scan")
@_common_options
def dilation_scan(config_path, output, seed):
    """Mean energy, success probability P0, and fidelity F vs epsilon."""

    def body(config):
        _require(config, "model", "dilation")
        lattice = _lattice(config)
        scan = config["dilation"]
        beta = _beta(scan.get("beta", 0.5), "dilation.beta")
        epsilons = [float(e) for e in scan.get(
            "epsilons", np.logspace(-3, 0, 10))]
        if not all(e > 0 for e in epsilons):
            raise ConfigError("dilation.epsilons must all be > 0")
        r_count = _int(scan.get("R", 100), "dilation.R")
        if r_count < 1:
            raise ConfigError("dilation.R must be >= 1")
        rc = config.get("random_circuit", {})
        base_seed = _base_seed(config, seed)
        depth = _int(rc.get("depth", 20), "random_circuit.depth")
        h_pauli = build_heisenberg(lattice)
        dense = to_dense(h_pauli, lattice.n_sites)
        op = ThermalOperator(beta, dense)
        ref = ensemble_expectation(dense, None, beta)
        states = [random_state(RandomCircuitSpec(
            lattice, depth=depth, entangler=rc.get("entangler", "cz"),
            seed=realization_seed(base_seed, r))) for r in range(r_count)]
        rows = []
        for eps in epsilons:
            dspec = DilationSpec(eps, op)
            energies, p0s, fids = [], [], []
            for psi in states:
                out, p0, fid = apply_dilated(dspec, psi)
                energies.append(expectation(out, h_pauli))
                p0s.append(p0)
                fids.append(fid)
            # successful post-selections occur in proportion to P0, so the
            # measured-energy average weights each realization by it
            mean_energy = float(np.average(energies, weights=p0s))
            rows.append([eps, mean_energy, float(np.mean(p0s)),
                         float(np.mean(fids)), ref])
        write_csv(_output_path(config, output), config,
                  ["epsilon", "mean_energy", "P0", "F", "ensemble_ref"], rows)

    _run(config_path, body)


@main.command("error-scan")
@_common_options
def error_scan(config_path, output, seed):
    """Single-TPQ squared-error scaling in N, plus the R-averaging comparison."""

    def body(config):
        _require(config, "model", "error_scan")
        scan = config["error_scan"]
        m = config["model"]
        couplings = dict(Jx=float(m.get("Jx", 0.5)), Jy=float(m.get("Jy", 1.25)),
                         Jz=float(m.get("Jz", 2.0)), hx=float(m.get("hx", 1.0)))
        sizes = _ints(scan.get("sizes", range(2, 11)), "error_scan.sizes")
        depths = _ints(scan.get("depths", (2, 50)), "error_scan.depths")
        beta = float(scan.get("beta", 0.5))
        r_count = _int(scan.get("R", 100), "error_scan.R")
        base_seed = _base_seed(config, seed)
        cmp_rs = _ints(scan.get("compare_R", (1, 100)), "error_scan.compare_R")
        cmp_n = _int(scan.get("compare_N", 6), "error_scan.compare_N")
        n_base_seeds = _int(scan.get("compare_seeds", 5),
                            "error_scan.compare_seeds")
        rows = []
        comments = []
        for d in depths:
            dsq = squared_error_scan(sizes, d, beta, r_count,
                                     base_seed=base_seed, **couplings)
            for n in sizes:
                rows.append(["dsq", d, n, "", dsq[n]])
            slope = np.polyfit(sizes, np.log(np.array([dsq[n] for n in sizes])), 1)[0]
            comments.append(f"trend_d{d}_slope={slope:.6g} "
                            f"monotone_down={str(slope < 0).lower()}")
        lattice = LatticeSpec(1, (cmp_n,), **couplings)
        betas = tuple(np.round(np.arange(0.1, 2.01, 0.1), 10))
        for r_cmp in cmp_rs:
            errs = []
            for s in range(n_base_seeds):
                est = run_ensemble(TpqRunSpec(
                    lattice, betas, realizations=r_cmp,
                    base_seed=base_seed + s))
                errs.append(float(np.mean(np.abs(est.mean - est.ensemble_ref))))
            rows.append(["rcomp", "", cmp_n, r_cmp, float(np.mean(errs))])
        write_csv(_output_path(config, output), config,
                  ["scan", "d", "N", "R", "value"], rows, comments=comments)

    _run(config_path, body)


@main.command("resources")
@_common_options
def resources(config_path, output, seed):
    """Per-backend CNOT counts, ancilla counts, and generation times."""

    def body(config):
        _require(config, "model", "resources")
        scan = config["resources"]
        m = config["model"]
        couplings = dict(Jx=float(m.get("Jx", 0.5)), Jy=float(m.get("Jy", 1.25)),
                         Jz=float(m.get("Jz", 2.0)), hx=float(m.get("hx", 1.0)))
        sizes = _ints(scan.get("sizes", (2, 3, 4, 5)), "resources.sizes")
        backends = list(scan.get("backends", ("qite", "dilated", "fable")))
        beta = _beta(scan.get("beta", 1.0), "resources.beta")
        # validated like sweep-beta's backend section
        try:
            qite_backend = BackendSpec("qite",
                                       n_steps=_int(scan.get("n_steps", 10),
                                                    "resources.n_steps"),
                                       domain=scan.get("domain"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid resources: {exc}") from exc
        base_seed = seed if seed is not None else 0
        rows = []
        for kind in backends:
            if kind not in ("qite", "dilated", "fable"):
                raise ConfigError(f"unknown resource backend {kind!r}")
            for n in sizes:
                lattice = LatticeSpec(1, (n,), **couplings)
                h_pauli = build_heisenberg(lattice)
                if kind == "qite":
                    qspec = QiteSpec(beta, n_steps=qite_backend.n_steps,
                                     domain=qite_backend.domain)
                    samples = [qite_resources(qspec, h_pauli, n, lattice,
                                              seed=base_seed + i)
                               for i in range(3)]
                    cnots = samples[0][0]
                    seconds = statistics.median(s[1] for s in samples)
                    ancillas = 0
                else:
                    dense = to_dense(h_pauli, n)
                    op = ThermalOperator(beta, dense)
                    if kind == "dilated":
                        times = []
                        for _ in range(3):
                            t0 = time.perf_counter()
                            dilated_omega(DilationSpec(1e-1, op))
                            times.append(time.perf_counter() - t0)
                        cnots = dilated_cnot_count(n)
                        seconds = statistics.median(times)
                        ancillas = 1
                    else:
                        encodings = [fable_encode(op) for _ in range(3)]
                        cnots = encodings[0].cnot_count
                        seconds = statistics.median(
                            e.generation_seconds for e in encodings)
                        ancillas = n + 1
                rows.append([kind, n, cnots, ancillas, seconds])
        write_csv(_output_path(config, output), config,
                  ["backend", "N", "cnot_count", "ancillas",
                   "generation_seconds"], rows,
                  comments=["generation_seconds are machine-relative "
                            "(median of 3 runs)"])

    _run(config_path, body)


if __name__ == "__main__":
    main()
