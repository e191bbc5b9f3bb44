"""Experiment CLI: JSON config in, deterministic CSV out.

Subcommands: sweep-beta, entropy-scan, dilation-scan, error-scan, resources.
Each config key is declared once in `_TABLE`, with its kind and default.  A
run reads and checks the keys it uses and builds its specs before computing,
and rejects every section or key of its config that it did not read, since
the run would silently ignore it.  Every CSV starts with a comment line
embedding the SHA-256 of the config as loaded.
Exit codes: 0 success, 1 configuration error (including an output file that
cannot be written), 2 backend failure (including an allocation the machine
refuses).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time

import click
import numpy as np

from .errors import ConfigError, TpqsimError
from .estimator import (
    BACKEND_KINDS,
    BackendSpec,
    TpqRunSpec,
    ensemble_expectation,
    run_ensemble,
    run_ensembles,
    realization_seeds,
    squared_error_scan,
)
from .fable import check_fable_fits, fable_encode
from .lattice import LatticeSpec, build_heisenberg, magnetization_x
from .nonunitary import (
    apply_dilated,
    check_omega_fits,
    dilated_cnot_count,
    dilated_omega,
    scaled_filter,
    scaled_weights,
    thermal_weights,
)
from .pauli import dense_dtype, to_dense
from .qite import QiteSpec, beta_groups, qite_circuit, qite_evolve
from .random_state import (
    RandomCircuitSpec,
    haar_entropy_reference,
    random_state,
    random_states,
    sample_haar_state,
    state_entropy,
)

_BIG = sys.float_info.max


def _number(lo=None, integer=False, above=False, hi=_BIG):
    """Kind: a finite number >= lo (> lo when `above`) and <= hi, never a bool
    or a string; an integer kind rejects 3.7, which int() truncates to 3."""
    rule = "an integer" if integer else "a finite number"
    if lo is not None:
        rule += f" {'>' if above else '>='} {lo}"
    if hi != _BIG:
        rule += f" and <= {hi}"

    def parse(v, name):
        if (isinstance(v, bool) or not isinstance(v, (int, float))
                or not -_BIG <= v <= hi
                or lo is not None and not (v > lo if above else v >= lo)
                or integer and not float(v).is_integer()):
            raise ConfigError(f"{name} must be {rule}, got {v!r}")
        return int(v) if integer else float(v)
    return parse


def _choice(*options):
    """Kind: one of the given strings."""
    def parse(v, name):
        if not isinstance(v, str) or v not in options:
            raise ConfigError(f"{name} must be one of {list(options)}, got {v!r}")
        return v
    return parse


def _list(item, distinct=1):
    """Kind: a list of `item` values, at least `distinct` of them distinct."""
    def parse(value, name):
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        items = tuple(item(x, f"{name}[{i}]") for i, x in enumerate(value))
        if len(set(items)) < distinct:
            raise ConfigError(f"{name} needs {distinct} or more distinct "
                              f"values, got {value!r}")
        return items
    return parse


def _path(value, name):
    """Kind: a non-empty string naming a file, not a directory, in an
    existing directory."""
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{name} must be a non-empty string, got {value!r}")
    try:
        click.Path(dir_okay=False).convert(value, None, None)
        click.Path(exists=True, file_okay=False).convert(
            value.rpartition("/")[0] or ".", None, None)
    except click.BadParameter as exc:
        raise ConfigError(f"{name}: {exc.message}") from exc
    return value


_REQUIRED = object()  # a key without a default
_BETA_GRID = tuple(float(b) for b in np.round(np.arange(0.1, 2.01, 0.1), 10))
_COUNT = _number(1, integer=True)

# "section.key" -> (kind, default); the model and backend keys are the field
# names of LatticeSpec and BackendSpec, which are built from what is read
_TABLE = {
    "model.dimension": (_COUNT, 1),  # LatticeSpec allows 1 or 2
    "model.extents": (_list(_COUNT), _REQUIRED),
    "model.Jx": (_number(), 0.5),
    "model.Jy": (_number(), 1.25),
    "model.Jz": (_number(), 2.0),
    "model.hx": (_number(), 1.0),
    "random_circuit.depth": (_COUNT, 20),
    "random_circuit.entangler": (_choice("cz", "cnot"), "cz"),
    "random_circuit.seed": (_number(0, integer=True), 0),
    "backend.kind": (_choice(*BACKEND_KINDS), "exact"),
    "backend.epsilon": (_number(0, above=True), 1e-3),
    "backend.n_steps": (_COUNT, 10),
    "backend.domain": (_COUNT, None),  # None: min(N, 3)
    "estimate.betas": (_list(_number(0)), _BETA_GRID),
    "estimate.R": (_COUNT, 10),
    # numpy draws a binomial count as a C long
    "estimate.shots": (_number(0, integer=True, hi=2**63 - 1), 0),
    "estimate.observable": (_choice("energy", "magnetization_x"), "energy"),
    "output.path": (_path, _REQUIRED),
    "entropy.depths": (_list(_COUNT), tuple(range(1, 31))),
    "entropy.seeds": (_COUNT, 50),
    "dilation.beta": (_number(0), 0.5),
    "dilation.epsilons": (_list(_number(0, above=True)),
                          tuple(float(e) for e in np.logspace(-3, 0, 10))),
    "dilation.R": (_COUNT, 100),
    # a log-slope in N needs two sizes
    "error_scan.sizes": (_list(_number(2, integer=True), distinct=2),
                         tuple(range(2, 11))),
    "error_scan.depths": (_list(_COUNT), (2, 50)),
    "error_scan.beta": (_number(0), 0.5),
    "error_scan.R": (_COUNT, 100),
    "error_scan.compare_R": (_list(_COUNT), (1, 100)),
    "error_scan.compare_N": (_number(2, integer=True), 6),
    "error_scan.compare_seeds": (_COUNT, 5),
    "resources.sizes": (_list(_number(2, integer=True)), (2, 3, 4, 5)),
    "resources.backends": (_list(_choice("qite", "dilated", "fable")),
                           ("qite", "dilated", "fable")),
    "resources.beta": (_number(0), 1.0),
    "resources.n_steps": (_COUNT, 10),
    "resources.domain": (_COUNT, None),  # None: min(N, 3)
}
# backend kind -> the backend keys that only it reads
_KIND_KEYS = {"dilated": ("epsilon",), "qite": ("n_steps", "domain")}


def load_config(path: str) -> dict:
    """The JSON object at `path`, whose every section is an object."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    for section, body in config.items():
        if not isinstance(body, dict):
            raise ConfigError(f"section {section!r} must be an object")
    return config


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


class _Config:
    """`with _Config(...) as c:` loads a config whose `required` sections
    must be present; `c.read(...)` checks the values the run reads, and the
    block builds the run's specs from them.  A ValueError or TypeError raised
    there is a config error, and so, when the block ends, is every section,
    key or override of the config that the block did not read, since the run
    would silently ignore it."""

    def __init__(self, config_path, required, output, seed,
                 realizations=None):
        self.config = load_config(config_path)
        for section in required:
            if section not in self.config:
                raise ConfigError(f"missing config section {section!r}")
        self._overrides = {"output.path": output, "random_circuit.seed": seed,
                           "estimate.R": realizations}
        self._read = set()
        self.output = self.read("output").get("path")
        if self.output is None:
            raise ConfigError("no output path: set output.path or pass --output")

    def read(self, section: str, *keys: str) -> dict:
        """key -> checked value, or default, of each of `keys` of `section`
        (of its every `_TABLE` key when none is given), overrides applied; a
        required key that is not set is left out."""
        body = self.config.get(section, {})
        keys = keys or [name.split(".")[1] for name in _TABLE
                        if name.startswith(f"{section}.")]
        values = {}
        for key in keys:
            name = f"{section}.{key}"
            kind, default = _TABLE[name]
            self._read.add(name)
            if self._overrides.get(name) is not None:
                values[key] = kind(self._overrides[name], name)
            elif key in body:
                values[key] = kind(body[key], name)
            elif default is not _REQUIRED:
                values[key] = default
        return values

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, (TypeError, ValueError)):
            raise ConfigError(str(exc)) from exc
        if exc is None:
            sections = {name.split(".")[0] for name in self._read}
            unread = [s for s in self.config if s not in sections]
            unread += [f"{s}.{k}" for s in self.config if s in sections
                       for k in self.config[s] if f"{s}.{k}" not in self._read]
            unread += [name for name, value in self._overrides.items()
                       if value is not None and name not in self._read]
            if unread:
                raise ConfigError(f"this subcommand does not read {unread}")


def _chains(c: _Config, sizes) -> list[LatticeSpec]:
    """The 1D chains a size scan runs; of the model, it uses only the
    couplings, and accepts and ignores `extents`."""
    m = c.read("model")
    if m["dimension"] != 1:
        raise ConfigError("size scans run 1D chains: model.dimension must be 1")
    return [LatticeSpec(1, (n,), m["Jx"], m["Jy"], m["Jz"], m["hx"])
            for n in sizes]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def write_csv(path: str, config: dict, header: list[str],
              rows: list[list], comments: list[str] | None = None) -> None:
    """Write the CSV; a nan or infinite float cell raises TpqsimError first."""
    for row in rows:
        for name, x in zip(header, row):
            if isinstance(x, float) and not math.isfinite(x):
                raise TpqsimError(f"column {name!r} has the non-finite "
                                  f"value {x}")
    lines = [f"# config_sha256={config_hash(config)}"]
    lines.extend(f"# {c}" for c in (comments or []))
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


class _Main(click.Group):
    """Exit 1 with `config error:` on a ConfigError, 2 on other package errors
    and on an allocation the machine refuses."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(1)
        except TpqsimError as exc:
            click.echo(f"backend failure: {exc}", err=True)
            sys.exit(2)
        except MemoryError as exc:
            click.echo(f"backend failure: out of memory: {exc}", err=True)
            sys.exit(2)


@click.group(cls=_Main)
def main():
    """Estimate thermal observables of spin models with TPQ states."""


def _common_options(fn):
    fn = click.argument("config_path", type=click.Path(exists=False))(fn)
    fn = click.option("--output", "-o", default=None,
                      help="Override output.path from the config.")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="Override random_circuit.seed.")(fn)
    return fn


@main.command("sweep-beta")
@_common_options
@click.option("--realizations", "-R", type=int, default=None,
              help="Override estimate.R.")
def sweep_beta(config_path, output, seed, realizations):
    """Thermal observable over a beta grid, averaged over R TPQ states."""
    with _Config(config_path, ("model", "estimate"), output, seed,
                 realizations) as c:
        est_cfg, rc = c.read("estimate"), c.read("random_circuit")
        kind = c.read("backend", "kind")["kind"]
        backend = c.read("backend", "kind", *_KIND_KEYS.get(kind, ()))
        lattice = LatticeSpec(**c.read("model"))
        spec = TpqRunSpec(
            lattice, est_cfg["betas"],
            observable=(magnetization_x(lattice) if est_cfg["observable"]
                        == "magnetization_x" else None),
            realizations=est_cfg["R"], depth=rc["depth"],
            entangler=rc["entangler"], backend=BackendSpec(**backend),
            base_seed=rc["seed"], shots=est_cfg["shots"])
    est = run_ensemble(spec)
    rows = [[beta, est.mean[i], est.uncertainty[i], est.ensemble_ref[i],
             est.squared_error[i], spec.backend.kind, lattice.n_sites,
             spec.depth, spec.realizations, spec.base_seed]
            for i, beta in enumerate(spec.betas)]
    write_csv(c.output, c.config,
              ["beta", "mean", "uncertainty", "ensemble_ref",
               "squared_error", "backend", "N", "d", "R", "seed"], rows)


@main.command("entropy-scan")
@_common_options
def entropy_scan(config_path, output, seed):
    """Mean basis entropy of random-circuit states vs depth."""
    with _Config(config_path, ("model", "entropy"), output, seed) as c:
        lattice = LatticeSpec(**c.read("model"))
        # the depths come from `entropy`, so random_circuit.depth is unread
        rc = c.read("random_circuit", "entangler", "seed")
        scan = c.read("entropy")
        seeds = realization_seeds(rc["seed"], scan["seeds"], lattice.n_sites)
    ref = haar_entropy_reference(lattice.n_sites)
    rows = []
    for d in scan["depths"]:
        ent = state_entropy(random_states(lattice, d, rc["entangler"], seeds))
        rows.append([d, float(np.mean(ent)),
                     float(np.std(ent) / np.sqrt(len(ent))), ref])
    write_csv(c.output, c.config,
              ["depth", "mean_entropy", "stderr", "haar_reference"], rows)


@main.command("dilation-scan")
@_common_options
def dilation_scan(config_path, output, seed):
    """Mean energy, success probability P0, and fidelity F vs epsilon."""
    with _Config(config_path, ("model", "dilation"), output, seed) as c:
        scan, rc = c.read("dilation"), c.read("random_circuit")
        lattice = LatticeSpec(**c.read("model"))
        circuits = [RandomCircuitSpec(lattice, rc["depth"], rc["entangler"], s)
                    for s in realization_seeds(rc["seed"], scan["R"],
                                               lattice.n_sites)]
    dense = to_dense(build_heisenberg(lattice), lattice.n_sites)
    exact = thermal_weights(dense, scan["beta"])
    scaled = scaled_weights(dense, exact)
    ref = ensemble_expectation(dense, None, scan["beta"])
    states = [random_state(c) for c in circuits]
    rows = []
    for eps in scan["epsilons"]:
        branch = np.sin(eps * scaled)
        energies, p0s, fids = zip(*(apply_dilated(dense, psi, branch, exact)
                                    for psi in states))
        # successful post-selections occur in proportion to P0, so the
        # measured-energy average weights each realization by it
        mean_energy = float(np.average(energies, weights=p0s))
        rows.append([eps, mean_energy, float(np.mean(p0s)),
                     float(np.mean(fids)), ref])
    write_csv(c.output, c.config,
              ["epsilon", "mean_energy", "P0", "F", "ensemble_ref"], rows)


@main.command("error-scan")
@_common_options
def error_scan(config_path, output, seed):
    """Single-TPQ squared-error scaling in N, plus the R-averaging comparison."""
    with _Config(config_path, ("model", "error_scan"), output, seed) as c:
        scan = c.read("error_scan")
        base_seed = c.read("random_circuit", "seed")["seed"]
        sizes, cmp_n = scan["sizes"], scan["compare_N"]
        *chains, cmp_chain = _chains(c, (*sizes, cmp_n))
        comparisons = [TpqRunSpec(cmp_chain, _BETA_GRID, realizations=r,
                                  base_seed=base_seed + s)
                       for r in scan["compare_R"]
                       for s in range(scan["compare_seeds"])]
    rows = []
    comments = []
    scans = squared_error_scan(chains, scan["depths"], scan["beta"], scan["R"],
                               base_seed)
    for d, dsq in zip(scan["depths"], scans):
        for n in sizes:
            if not dsq[n] > 0:
                raise TpqsimError(f"D^2 is {dsq[n]} at depth {d} and size "
                                  f"{n}: its log-slope is undefined")
            rows.append(["dsq", d, n, "", dsq[n]])
        slope = np.polyfit(sizes, np.log(np.array([dsq[n] for n in sizes])), 1)[0]
        comments.append(f"trend_d{d}_slope={slope:.6g} "
                        f"monotone_down={str(slope < 0).lower()}")
    errs = np.reshape([np.mean(np.abs(est.mean - est.ensemble_ref))
                       for est in run_ensembles(comparisons)],
                      (len(scan["compare_R"]), -1))
    for r_cmp, r_errs in zip(scan["compare_R"], errs):
        rows.append(["rcomp", "", cmp_n, r_cmp, float(np.mean(r_errs))])
    write_csv(c.output, c.config, ["scan", "d", "N", "R", "value"],
              rows, comments=comments)


def timed_builds(build, inputs):
    """build(x) for the first of `inputs`, and the median wall time of
    building each of them.  The first is built last and each other artifact
    is dropped before the next build, so no two artifacts are alive at once."""
    seconds = []
    for x in [*inputs[1:], inputs[0]]:
        artifact = None
        t0 = time.perf_counter()
        artifact = build(x)
        seconds.append(time.perf_counter() - t0)
    return artifact, float(np.median(seconds))


# kind -> (CNOTs, ancillas) of its artifact for n system qubits
_ARTIFACT_COUNTS = {
    **dict.fromkeys(("qite", "fable"), lambda circuit, n: (
        circuit.cnot_count, circuit.width - n)),
    "dilated": lambda omega, n: (dilated_cnot_count(n),
                                 len(omega).bit_length() - 1 - n),
}


@main.command("resources")
@_common_options
def resources(config_path, output, seed):
    """Per-backend CNOT counts, ancilla counts, and generation times."""
    with _Config(config_path, ("model", "resources"), output, seed) as c:
        scan = c.read("resources", "sizes", "backends", "beta")
        chains = _chains(c, scan["sizes"])
        if "qite" in scan["backends"]:  # the seed of its input states
            base_seed = c.read("random_circuit", "seed")["seed"]
            qspec = QiteSpec((scan["beta"],),
                             **c.read("resources", *_KIND_KEYS["qite"]))
            qspec.resolved_domain(min(scan["sizes"]))
    rows = []
    for kind in scan["backends"]:
        for lattice in chains:
            n = lattice.n_sites
            h_pauli = build_heisenberg(lattice)
            if kind == "qite":
                # each build evolves its own Haar state, sampled untimed once
                # one column's evolution is known to fit
                beta_groups(qspec, h_pauli, n, 1)
                inputs = [sample_haar_state(n, base_seed + i)
                          .amps[:, None] for i in range(3)]

                def build(psi):
                    labels, thetas = qite_evolve(qspec, h_pauli, psi,
                                                 lattice)[1]
                    return qite_circuit((labels, thetas[0]), n)
            else:
                # refused before any diagonalization when the artifact does
                # not fit; each build starts from the Pauli sum: no shared
                # eigenbasis
                if kind == "dilated":
                    check_omega_fits(n, dense_dtype(h_pauli))
                else:
                    check_fable_fits(n)
                inputs = [h_pauli] * 3

                def build(h):
                    dense = to_dense(h, n)
                    if kind == "dilated":
                        return dilated_omega(dense, scan["beta"], 1e-1)
                    return fable_encode(scaled_filter(dense, scan["beta"]))
            artifact, seconds = timed_builds(build, inputs)
            rows.append([kind, n, *_ARTIFACT_COUNTS[kind](artifact, n),
                         seconds])
    write_csv(c.output, c.config,
              ["backend", "N", "cnot_count", "ancillas", "generation_seconds"],
              rows, comments=["generation_seconds are machine-relative "
                              "(median of 3 runs)"])


if __name__ == "__main__":
    main()
