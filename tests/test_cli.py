import dataclasses
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import tpqsim
from tpqsim import (
    LatticeSpec,
    QiteSpec,
    RandomCircuitSpec,
    TpqRunSpec,
    build_heisenberg,
)
from tpqsim.cli import _TABLE, config_hash, load_config, main, timed_builds
from tpqsim.errors import ConfigError
from tpqsim.estimator import BackendSpec
from tpqsim.pauli import to_dense

from conftest import forbid_full_eigenvectors


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, body, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def sweep_config(tmp_path, out_name="out.csv", **estimate):
    est = {"betas": [0.2, 0.8], "R": 2}
    est.update(estimate)
    return write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [3]},
        "random_circuit": {"depth": 5, "seed": 1},
        "estimate": est,
        "output": {"path": str(tmp_path / out_name)},
    })


def test_sweep_beta_writes_csv(runner, tmp_path):
    cfg = sweep_config(tmp_path)
    result = runner.invoke(main, ["sweep-beta", cfg])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1] == ("beta,mean,uncertainty,ensemble_ref,squared_error,"
                       "backend,N,d,R,seed")
    assert len(lines) == 4
    assert lines[2].startswith("0.2,")
    assert lines[2].split(",")[5:] == ["exact", "3", "5", "2", "1"]


def test_sweep_beta_byte_determinism(runner, tmp_path):
    cfg = sweep_config(tmp_path)
    runner.invoke(main, ["sweep-beta", cfg, "-o", str(tmp_path / "a.csv")])
    runner.invoke(main, ["sweep-beta", cfg, "-o", str(tmp_path / "b.csv")])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_sweep_beta_overrides(runner, tmp_path):
    cfg = sweep_config(tmp_path)
    result = runner.invoke(main, ["sweep-beta", cfg, "-R", "3", "--seed", "9"])
    assert result.exit_code == 0
    row = (tmp_path / "out.csv").read_text().splitlines()[2].split(",")
    assert row[8:] == ["3", "9"]


def test_unknown_key_rejected(runner, tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [3], "bogus": 1},
        "estimate": {"betas": [0.5]},
        "output": {"path": str(tmp_path / "x.csv")},
    })
    result = runner.invoke(main, ["sweep-beta", cfg])
    assert result.exit_code == 1
    assert "bogus" in result.output


def test_unknown_section_rejected(runner, tmp_path):
    cfg = write_config(tmp_path, {"mystery": {}})
    result = runner.invoke(main, ["sweep-beta", cfg])
    assert result.exit_code == 1
    # with every other section valid, the message names the unread section
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [3]},
        "estimate": {"betas": [0.5]},
        "mystery": {},
        "output": {"path": str(tmp_path / "x.csv")},
    })
    result = runner.invoke(main, ["sweep-beta", cfg])
    assert result.exit_code == 1
    assert "mystery" in result.output
    assert not (tmp_path / "x.csv").exists()


def test_missing_file_is_config_error(runner, tmp_path):
    result = runner.invoke(main, ["sweep-beta", str(tmp_path / "nope.json")])
    assert result.exit_code == 1


def test_invalid_extents_is_config_error(runner, tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"dimension": 2, "extents": [3]},
        "estimate": {"betas": [0.5]},
        "output": {"path": str(tmp_path / "x.csv")},
    })
    result = runner.invoke(main, ["sweep-beta", cfg])
    assert result.exit_code == 1


def test_missing_output_path(runner, tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [2]},
        "estimate": {"betas": [0.5]},
    })
    result = runner.invoke(main, ["sweep-beta", cfg])
    assert result.exit_code == 1
    assert "output" in result.output


_ONE_BETA = {"betas": [0.5], "R": 1}
_SCAN = {"sizes": [2, 3], "depths": [2], "R": 1, "compare_R": [1],
         "compare_N": 2, "compare_seeds": 1}


@pytest.mark.parametrize("subcommand,body", [
    ("sweep-beta", {"backend": {"kind": "dilated", "epsilon": 0},
                    "estimate": _ONE_BETA}),
    ("sweep-beta", {"backend": {"kind": "dilated", "epsilon": -0.1},
                    "estimate": _ONE_BETA}),
    ("sweep-beta", {"backend": {"kind": "qite", "n_steps": 0},
                    "estimate": _ONE_BETA}),
    ("sweep-beta", {"backend": {"kind": "qite", "domain": "2"},
                    "estimate": _ONE_BETA}),
    ("sweep-beta", {"backend": {"kind": "qite", "domain": 0},
                    "estimate": _ONE_BETA}),
    ("sweep-beta", {"estimate": {"betas": [float("nan")], "R": 1}}),
    ("sweep-beta", {"estimate": {"betas": [0.5, float("inf")], "R": 1}}),
    ("dilation-scan", {"dilation": {"epsilons": [0.1, 0.0], "R": 1}}),
    ("resources", {"resources": {"sizes": [2], "domain": "2"}}),
    # integers that int() would truncate, and bools it would accept
    ("sweep-beta", {"model": {"dimension": 1, "extents": [3.7]},
                    "estimate": _ONE_BETA}),
    ("sweep-beta", {"model": {"dimension": 1.5, "extents": [2]},
                    "estimate": _ONE_BETA}),
    ("sweep-beta", {"estimate": {"betas": [0.5], "R": 2.9}}),
    ("sweep-beta", {"estimate": {"betas": [0.5], "R": True}}),
    ("sweep-beta", {"estimate": {"betas": [0.5], "R": 1, "shots": 1.5}}),
    ("sweep-beta", {"random_circuit": {"depth": 2.5}, "estimate": _ONE_BETA}),
    ("sweep-beta", {"random_circuit": {"seed": 0.5}, "estimate": _ONE_BETA}),
    ("sweep-beta", {"backend": {"kind": "qite", "n_steps": 2.5},
                    "estimate": _ONE_BETA}),
    ("entropy-scan", {"entropy": {"depths": [1.5], "seeds": 1}}),
    ("entropy-scan", {"entropy": {"depths": [1], "seeds": 2.5}}),
    ("error-scan", {"error_scan": {**_SCAN, "sizes": [2, 3.5]}}),
    ("error-scan", {"error_scan": {**_SCAN, "depths": [2.5]}}),
    ("error-scan", {"error_scan": {**_SCAN, "R": 1.5}}),
    ("error-scan", {"error_scan": {**_SCAN, "compare_R": [1.5]}}),
    ("error-scan", {"error_scan": {**_SCAN, "compare_N": 2.5}}),
    ("error-scan", {"error_scan": {**_SCAN, "compare_seeds": 1.5}}),
    ("dilation-scan", {"dilation": {"epsilons": [0.1], "R": 1.5}}),
    ("resources", {"resources": {"sizes": [2.5]}}),
    ("resources", {"resources": {"sizes": [2], "n_steps": 1.5}}),
    # values that ended in a ValueError or ZeroDivisionError traceback
    ("dilation-scan", {"dilation": {"beta": -0.5, "epsilons": [0.1], "R": 1}}),
    ("dilation-scan", {"dilation": {"epsilons": [0.1], "R": 0}}),
    ("resources", {"resources": {"sizes": [2], "beta": -1.0}}),
    # values the spec constructors rejected with a traceback, or that ran
    ("sweep-beta", {"random_circuit": {"depth": 0}, "estimate": _ONE_BETA}),
    ("sweep-beta", {"random_circuit": {"entangler": "cx"},
                    "estimate": _ONE_BETA}),
    ("sweep-beta", {"random_circuit": {"entangler": 5}, "estimate": _ONE_BETA}),
    ("sweep-beta", {"random_circuit": {"seed": -1}, "estimate": _ONE_BETA}),
    ("sweep-beta", {"estimate": {"betas": "0.5", "R": 1}}),
    ("sweep-beta", {"estimate": {"betas": 0.5, "R": 1}}),
    ("sweep-beta", {"estimate": {"betas": [[0.5]], "R": 1}}),
    ("sweep-beta", {"estimate": {**_ONE_BETA, "observable": "bogus"}}),
    ("sweep-beta", {"estimate": {**_ONE_BETA, "observable": 5}}),
    ("sweep-beta", {"estimate": {**_ONE_BETA, "shots": -1}}),
    ("entropy-scan", {"entropy": {"depths": [0], "seeds": 1}}),
    ("entropy-scan", {"entropy": {"depths": [1], "seeds": 0}}),
    ("error-scan", {"error_scan": {**_SCAN, "compare_seeds": 0}}),
    ("error-scan", {"error_scan": {**_SCAN, "sizes": [1, 2]}}),
    ("error-scan", {"error_scan": {**_SCAN, "sizes": [2]}}),
    ("resources", {"resources": {"sizes": [1]}}),
    ("error-scan", {"error_scan": {**_SCAN, "beta": "x"}}),
    ("error-scan", {"model": {"dimension": 1, "extents": [2], "Jx": "a"},
                    "error_scan": _SCAN}),
    ("resources", {"model": {"dimension": 1, "extents": [2], "Jx": "a"},
                   "resources": {"sizes": [2]}}),
    ("dilation-scan", {"dilation": {"epsilons": "0.1", "R": 1}}),
    ("resources", {"resources": {"sizes": [2], "backends": {"fable": 1}}}),
    # the size scans run 1D chains and used to ignore a 2D model
    ("error-scan", {"model": {"dimension": 2, "extents": [2, 2]},
                    "error_scan": _SCAN}),
    ("resources", {"model": {"dimension": 2, "extents": [2, 2]},
                   "resources": {"sizes": [2]}}),
    # a numeric string used to be read as a float
    ("sweep-beta", {"model": {"dimension": 1, "extents": [2], "Jx": "0.5"},
                    "estimate": _ONE_BETA}),
    # the output path is checked before the run, not when writing
    ("sweep-beta", {"output": {"path": 5}, "estimate": _ONE_BETA}),
    ("sweep-beta", {"output": {"path": "no-such-dir/x.csv"},
                    "estimate": _ONE_BETA}),
    # a QITE domain larger than the system
    ("sweep-beta", {"backend": {"kind": "qite", "domain": 3},
                    "estimate": _ONE_BETA}),
    ("resources", {"resources": {"sizes": [2], "domain": 3}}),
    # sections and keys the subcommand does not read
    ("sweep-beta", {"entropy": {"depths": [1], "seeds": 1},
                    "estimate": _ONE_BETA}),
    ("sweep-beta", {"dilation": {}, "estimate": _ONE_BETA}),
    ("sweep-beta", {"error_scan": _SCAN, "estimate": _ONE_BETA}),
    ("entropy-scan", {"entropy": {"depths": [1], "seeds": 1},
                      "backend": {"kind": "exact"}}),
    ("entropy-scan", {"entropy": {"depths": [1], "seeds": 1},
                      "estimate": _ONE_BETA}),
    ("dilation-scan", {"dilation": {"epsilons": [0.1], "R": 1},
                       "backend": {"kind": "dilated", "epsilon": 0.1}}),
    ("dilation-scan", {"dilation": {"epsilons": [0.1], "R": 1},
                       "resources": {"sizes": [2]}}),
    ("error-scan", {"error_scan": _SCAN,
                    "random_circuit": {"depth": 3, "entangler": "cnot"}}),
    ("error-scan", {"error_scan": _SCAN,
                    "random_circuit": {"seed": 1, "depth": 3}}),
    ("error-scan", {"error_scan": _SCAN, "estimate": _ONE_BETA}),
    ("resources", {"resources": {"sizes": [2]},
                   "random_circuit": {"entangler": "cnot"}}),
    ("resources", {"resources": {"sizes": [2]},
                   "backend": {"kind": "qite"}}),
    # backend keys that the run's kinds do not read
    ("sweep-beta", {"backend": {"kind": "exact", "epsilon": 0.5, "n_steps": 3,
                                "domain": 2}, "estimate": _ONE_BETA}),
    ("sweep-beta", {"backend": {"epsilon": 0.5}, "estimate": _ONE_BETA}),
    ("sweep-beta", {"backend": {"kind": "dilated", "n_steps": 3},
                    "estimate": _ONE_BETA}),
    ("sweep-beta", {"backend": {"kind": "fable", "domain": 2},
                    "estimate": _ONE_BETA}),
    ("sweep-beta", {"backend": {"kind": "qite", "epsilon": 0.5},
                    "estimate": _ONE_BETA}),
    ("resources", {"resources": {"sizes": [2], "backends": ["dilated", "fable"],
                                 "n_steps": 3, "domain": 2}}),
    ("resources", {"resources": {"sizes": [2], "backends": ["fable"],
                                 "n_steps": 3}}),
    # numpy draws a binomial count as a C long
    ("sweep-beta", {"estimate": {**_ONE_BETA, "shots": 10**19}}),
    # random_circuit keys that the run does not use: entropy-scan takes its
    # depths from `entropy`, and only QITE's input states read the seed
    ("entropy-scan", {"entropy": {"depths": [1], "seeds": 1},
                      "random_circuit": {"depth": 7}}),
    ("resources", {"resources": {"sizes": [2], "backends": ["fable"]},
                   "random_circuit": {"seed": 3}}),
])
def test_bad_values_are_config_errors(runner, tmp_path, subcommand, body):
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [2]},
        "output": {"path": str(tmp_path / "x.csv")}, **body,
    })
    result = runner.invoke(main, [subcommand, cfg])
    assert result.exit_code == 1
    assert "config error:" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "x.csv").exists()


def test_magnetization_observable(runner, tmp_path):
    cfg = sweep_config(tmp_path, observable="magnetization_x")
    result = runner.invoke(main, ["sweep-beta", cfg])
    assert result.exit_code == 0, result.output


def test_entropy_scan(runner, tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [3]},
        "entropy": {"depths": [1, 3], "seeds": 4},
        "output": {"path": str(tmp_path / "ent.csv")},
    })
    result = runner.invoke(main, ["entropy-scan", cfg])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "ent.csv").read_text().splitlines()
    assert lines[1] == "depth,mean_entropy,stderr,haar_reference"
    assert len(lines) == 4


def test_dilation_scan(runner, tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [2]},
        "random_circuit": {"depth": 5},
        "dilation": {"beta": 0.5, "epsilons": [0.001, 0.5], "R": 3},
        "output": {"path": str(tmp_path / "dil.csv")},
    })
    result = runner.invoke(main, ["dilation-scan", cfg])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "dil.csv").read_text().splitlines()
    assert lines[1] == "epsilon,mean_energy,P0,F,ensemble_ref"
    small, large = lines[2].split(","), lines[3].split(",")
    assert float(small[3]) >= float(large[3])  # F falls with epsilon
    assert float(small[2]) <= float(large[2])  # P0 rises with epsilon


def test_error_scan(runner, tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [2]},
        "error_scan": {"sizes": [2, 3], "depths": [5], "R": 5,
                       "compare_R": [1, 5], "compare_N": 3,
                       "compare_seeds": 2},
        "output": {"path": str(tmp_path / "err.csv")},
    })
    result = runner.invoke(main, ["error-scan", cfg])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "err.csv").read_text().splitlines()
    assert any(line.startswith("# trend_d5_slope=") for line in lines)
    data = [line.split(",") for line in lines if not line.startswith("#")][1:]
    assert sum(r[0] == "dsq" for r in data) == 2
    assert sum(r[0] == "rcomp" for r in data) == 2


def test_resources(runner, tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [2]},
        "resources": {"sizes": [2], "backends": ["fable", "dilated"],
                      "beta": 0.5},
        "output": {"path": str(tmp_path / "res.csv")},
    })
    result = runner.invoke(main, ["resources", cfg])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "res.csv").read_text().splitlines()
    data = [line.split(",") for line in lines if not line.startswith("#")][1:]
    by_kind = {r[0]: r for r in data}
    assert by_kind["fable"][2] == "16" and by_kind["fable"][3] == "3"
    assert by_kind["dilated"][2] == "36" and by_kind["dilated"][3] == "1"


def test_resources_times_independent_builds(runner, tmp_path, monkeypatch):
    # each of the 3 timed dilated and FABLE builds starts from the Pauli sum,
    # so it makes its own dense H and caches nothing another build reads
    calls = []

    def counted(h, n):
        calls.append(n)
        return to_dense(h, n)

    monkeypatch.setattr("tpqsim.cli.to_dense", counted)
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [2]},
        "resources": {"sizes": [2], "backends": ["dilated", "fable"]},
        "output": {"path": str(tmp_path / "res.csv")},
    })
    result = runner.invoke(main, ["resources", cfg])
    assert result.exit_code == 0, result.output
    assert calls == [2] * 6


def test_an_override_of_an_unread_key_is_a_config_error(runner, tmp_path):
    # without qite, resources prepares no random state: --seed would be
    # ignored, as random_circuit.seed written in the config would be
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [2]},
        "resources": {"sizes": [2], "backends": ["dilated"]},
        "output": {"path": str(tmp_path / "res.csv")},
    })
    result = runner.invoke(main, ["resources", cfg, "--seed", "5"])
    assert result.exit_code == 1
    assert ("config error: this subcommand does not read "
            "['random_circuit.seed']") in result.output
    assert not (tmp_path / "res.csv").exists()


def test_resources_unknown_backend(runner, tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [2]},
        "resources": {"sizes": [2], "backends": ["mystery"]},
        "output": {"path": str(tmp_path / "res.csv")},
    })
    result = runner.invoke(main, ["resources", cfg])
    assert result.exit_code == 1


def test_config_hash_is_key_order_independent(tmp_path):
    a = {"model": {"extents": [2], "dimension": 1}}
    b = {"model": {"dimension": 1, "extents": [2]}}
    assert config_hash(a) == config_hash(b)


# (config key, spec class, field): each key's default restates the field's
_SPEC_DEFAULTS = [
    *[(f"model.{k}", LatticeSpec, k) for k in ("Jx", "Jy", "Jz", "hx")],
    *[(f"backend.{k}", BackendSpec, k)
      for k in ("kind", "epsilon", "n_steps", "domain")],
    *[(f"random_circuit.{k}", RandomCircuitSpec, k)
      for k in ("depth", "entangler", "seed")],
    ("random_circuit.depth", TpqRunSpec, "depth"),
    ("random_circuit.entangler", TpqRunSpec, "entangler"),
    ("random_circuit.seed", TpqRunSpec, "base_seed"),
    ("estimate.R", TpqRunSpec, "realizations"),
    ("estimate.shots", TpqRunSpec, "shots"),
    ("resources.n_steps", QiteSpec, "n_steps"),
    ("resources.domain", QiteSpec, "domain"),
]


def test_table_defaults_equal_the_spec_defaults():
    # a default written both in `_TABLE` and on a spec must agree, so that
    # the CLI and the library run the same defaults
    mismatched = []
    for name, spec, field in _SPEC_DEFAULTS:
        default = {f.name: f.default for f in dataclasses.fields(spec)}[field]
        if _TABLE[name][1] != default:
            mismatched.append((name, _TABLE[name][1], spec.__name__, default))
    assert mismatched == []


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(str(path))


def fresh_interpreter(*args, **kwargs):
    """Run `python args` in a new process that imports this tpqsim."""
    src = str(Path(tpqsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, **kwargs)


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency, and statistics would load fractions
    # and decimal for one median; a fresh interpreter checks the CLI's whole
    # import graph
    code = ("import sys, tpqsim.cli; print(sorted(m for m in sys.modules "
            "if m in ('scipy', 'statistics') or m.startswith('scipy.')))")
    result = fresh_interpreter("-c", code, check=True)
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("subcommand,body,columns", [
    *[("sweep-beta", {"random_circuit": {"seed": 1},
                      "backend": {"kind": kind},
                      "estimate": {"betas": [1e308], "R": 2}},
       ("mean", "ensemble_ref")) for kind in ("exact", "dilated", "fable")],
    ("dilation-scan", {"random_circuit": {"seed": 1},
                       "dilation": {"beta": 1e308, "epsilons": [0.1],
                                    "R": 2}}, ("mean_energy", "ensemble_ref")),
    ("resources", {"resources": {"sizes": [2], "backends": ["dilated"],
                                 "beta": 1e308}}, ()),
])
def test_a_huge_beta_runs_to_the_ground_energy(tmp_path, subcommand, body,
                                               columns):
    # the thermal weights' exponent overflows to -inf off the ground space,
    # silently: stderr stays empty
    out = tmp_path / "out.csv"
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [3]},
        "output": {"path": str(out)}, **body})
    result = fresh_interpreter("-m", "tpqsim.cli", subcommand, cfg)
    assert result.returncode == 0 and result.stderr == ""
    header, row = out.read_text().splitlines()[-2:]
    values = dict(zip(header.split(","), row.split(",")))
    ground = to_dense(build_heisenberg(LatticeSpec(1, (3,))),
                      3).eigenvalues.min()
    for column in columns:
        assert float(values[column]) == pytest.approx(ground, abs=1e-10)


@pytest.mark.parametrize("args", [
    ["-R", "0"],
    ["--seed", "-1"],
    ["-o", "no-such-dir/x.csv"],
])
def test_bad_overrides_are_config_errors(runner, tmp_path, args):
    cfg = sweep_config(tmp_path)
    result = runner.invoke(main, ["sweep-beta", cfg, *args])
    assert result.exit_code == 1
    assert "config error:" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not (tmp_path / "out.csv").exists()


def test_unwritable_output_is_config_error(runner, tmp_path):
    # a file name longer than any file system allows passes the checks on
    # the path and fails only when the CSV is written
    cfg = sweep_config(tmp_path)
    result = runner.invoke(main, ["sweep-beta", cfg,
                                  "-o", str(tmp_path / ("x" * 300))])
    assert result.exit_code == 1
    assert "config error: cannot write output:" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("via_option", [False, True])
def test_output_directory_is_refused_before_compute(runner, tmp_path,
                                                    monkeypatch, via_option):
    # an existing directory has an existing parent; writing to it used to
    # fail only after the whole run
    calls, run = [], tpqsim.cli.run_ensemble
    monkeypatch.setattr("tpqsim.cli.run_ensemble",
                        lambda *args: calls.append(args) or run(*args))
    (tmp_path / "outdir").mkdir()
    cfg = sweep_config(tmp_path, out_name="outdir")
    args = ["-o", str(tmp_path / "outdir") + "/"] if via_option else []
    result = runner.invoke(main, ["sweep-beta", cfg, *args])
    assert result.exit_code == 1, result.output
    assert "config error: output.path: " in result.output
    assert "is a directory" in result.output
    assert calls == [] and list((tmp_path / "outdir").iterdir()) == []


@pytest.mark.parametrize("subcommand,body", [
    ("sweep-beta", {"estimate": _ONE_BETA}),
    ("entropy-scan", {"entropy": {"depths": [1], "seeds": 1}}),
    ("dilation-scan", {"dilation": {"epsilons": [0.1], "R": 1}}),
    ("error-scan", {"error_scan": _SCAN}),
    ("resources", {"resources": {"sizes": [2]}}),
])
def test_config_errors_come_before_compute(runner, tmp_path, monkeypatch,
                                           subcommand, body):
    def compute(*args, **kwargs):
        raise AssertionError("computed before the config was checked")

    for name in ("build_heisenberg", "random_state", "random_states",
                 "run_ensemble", "squared_error_scan", "to_dense"):
        monkeypatch.setattr(f"tpqsim.cli.{name}", compute)
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [2]},
        "output": {"path": str(tmp_path / "missing" / "x.csv")}, **body,
    })
    result = runner.invoke(main, [subcommand, cfg])
    assert result.exit_code == 1
    assert "config error:" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


_MODEL = {"dimension": 1, "extents": [2], "Jx": 0.5, "Jy": 1.25, "Jz": 2.0,
          "hx": 1.0}
_CIRCUIT = {"depth": 2, "entangler": "cz", "seed": 0}
_ESTIMATE = {"betas": [0.5], "R": 2, "shots": 0, "observable": "energy"}
# tiny valid configs that, together, set every key each subcommand reads; a
# backend key is read by one kind only, so sweep-beta has two
_TINY = [
    ("sweep-beta", {"model": _MODEL, "random_circuit": _CIRCUIT,
                    "backend": {"kind": "qite", "n_steps": 1, "domain": 2},
                    "estimate": _ESTIMATE}),
    ("sweep-beta", {"model": _MODEL, "random_circuit": _CIRCUIT,
                    "backend": {"kind": "dilated", "epsilon": 0.1},
                    "estimate": _ESTIMATE}),
    ("entropy-scan", {"model": _MODEL,
                      "random_circuit": {"entangler": "cz", "seed": 0},
                      "entropy": {"depths": [1, 2], "seeds": 2}}),
    ("dilation-scan", {"model": _MODEL, "random_circuit": _CIRCUIT,
                       "dilation": {"beta": 0.5, "epsilons": [0.1], "R": 2}}),
    ("error-scan", {"model": _MODEL, "random_circuit": {"seed": 0},
                    "error_scan": {"sizes": [2, 3], "depths": [2],
                                   "beta": 0.5, "R": 2, "compare_R": [1],
                                   "compare_N": 2, "compare_seeds": 1}}),
    ("resources", {"model": _MODEL, "random_circuit": {"seed": 0},
                   "resources": {"sizes": [2],
                                 "backends": ["qite", "dilated", "fable"],
                                 "beta": 0.5, "n_steps": 1, "domain": 2}}),
]
_FUZZ_KEYS = [(i, section, key)
              for i, (_, config) in enumerate(_TINY)
              for section, body in config.items() for key in body]
_FUZZ_KEYS += [(i, "output", "path") for i in range(len(_TINY))]
_HOSTILE = [None, True, "x", -1, 0, 1.5, [[1]], [], {}]


# max_examples exceeds the number of cases, so every case runs once
@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(st.sampled_from([(*target, value) for target in _FUZZ_KEYS
                        for value in _HOSTILE]))
def test_hostile_config_value_runs_or_exits_cleanly(case):
    index, section, key, value = case
    command, tiny = _TINY[index]
    config = json.loads(json.dumps(tiny))
    config["output"] = {"path": "out.csv"}
    config[section][key] = value
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("config.json").write_text(json.dumps(config))
        result = runner.invoke(main, [command, "config.json"])
        written = set(os.listdir(".")) - {"config.json"}
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert bool(written) == (result.exit_code == 0), (written, result.output)



@pytest.mark.parametrize("subcommand,extents,body,patched,sites", [
    ("entropy-scan", [40], {"entropy": {"depths": [1], "seeds": 1}},
     "random_states", lambda lattice, depth, entangler, seeds:
     lattice.n_sites),
    ("resources", [2], {"resources": {"sizes": [2, 40],
                                      "backends": ["qite"]}},
     "sample_haar_state", lambda n, seed: n),
])
def test_refused_allocation_is_backend_failure(runner, tmp_path, monkeypatch,
                                               subcommand, extents, body,
                                               patched, sites):
    original = getattr(tpqsim.cli, patched)
    calls = []

    def refuse_40_sites(*args, **kwargs):
        calls.append(sites(*args, **kwargs))
        if calls[-1] == 40:  # what numpy raises for a 2^40 state, unallocated
            raise MemoryError("Unable to allocate 16.0 TiB for an array")
        return original(*args, **kwargs)

    monkeypatch.setattr(f"tpqsim.cli.{patched}", refuse_40_sites)
    # 4 PiB of physical memory admit a 40-site state to the byte budgets,
    # so the refusal comes from the allocator
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**40}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": extents},
        "output": {"path": str(tmp_path / "x.csv")}, **body,
    })
    result = runner.invoke(main, [subcommand, cfg])
    assert result.exit_code == 2, result.output
    assert "backend failure: out of memory: Unable to allocate" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert calls[-1] == 40 and not (tmp_path / "x.csv").exists()


def test_dense_model_beyond_memory_is_backend_failure(runner, tmp_path):
    # a 20-site H is 8 TiB dense: refused by the byte budget, unallocated
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [20]},
        "estimate": {"betas": [0.5], "R": 1},
        "output": {"path": str(tmp_path / "x.csv")},
    })
    result = runner.invoke(main, ["sweep-beta", cfg])
    assert result.exit_code == 2, result.output
    assert "backend failure:" in result.output
    assert "Traceback" not in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("subcommand,body", [
    ("sweep-beta", {"estimate": {"R": 10_000_000}}),
    ("error-scan", {"error_scan": {"sizes": [10, 11], "R": 10_000_000}}),
    ("entropy-scan", {"entropy": {"seeds": 10_000_000}}),
    ("dilation-scan", {"dilation": {"R": 10_000_000}}),
])
def test_random_state_batch_beyond_memory_is_backend_failure(
        runner, tmp_path, monkeypatch, subcommand, body):
    # 10^7 states on 10 sites take 164 GB, and 1.6 TB at a run's peak of 10
    # copies: refused before any seed is drawn
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 << 20}  # 8 GiB
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    seeds = []
    monkeypatch.setattr(tpqsim.estimator, "realization_seed",
                        lambda *key: seeds.append(key))
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [10]},
        "output": {"path": str(tmp_path / "x.csv")}, **body,
    })
    result = runner.invoke(main, [subcommand, cfg])
    assert result.exit_code == 2, result.output
    assert ("backend failure: a batch of 10000000 random states needs "
            "1638400000000 bytes") in result.output
    assert seeds == [] and not (tmp_path / "x.csv").exists()


def test_random_state_batch_peak_beyond_memory_is_backend_failure(
        runner, tmp_path, monkeypatch):
    # 1000 states on 10 sites take 16.4 MB, which fits in 64 MiB, but a run
    # peaks at 10 copies of them: refused before any seed is drawn
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16 << 10}  # 64 MiB
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    seeds = []
    monkeypatch.setattr(tpqsim.estimator, "realization_seed",
                        lambda *key: seeds.append(key))
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [10]},
        "estimate": {"betas": [0.5], "R": 1000},
        "output": {"path": str(tmp_path / "x.csv")},
    })
    result = runner.invoke(main, ["sweep-beta", cfg])
    assert result.exit_code == 2, result.output
    assert ("backend failure: a batch of 1000 random states needs "
            "163840000 bytes") in result.output
    assert seeds == [] and not (tmp_path / "x.csv").exists()


def test_gate_choices_beyond_memory_are_backend_failure(runner, tmp_path,
                                                        monkeypatch):
    # 1000 states on 2 sites take 640 KB at a run's peak and fit in 1 MiB,
    # but their gate choices at depth 1000, one byte per seed, block and
    # qubit, take 2 MB: refused before any is drawn
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    draws = []
    monkeypatch.setattr(tpqsim.random_state, "_gate_choices",
                        lambda *args: draws.append(args))
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [2]},
        "entropy": {"depths": [1000], "seeds": 1000},
        "output": {"path": str(tmp_path / "x.csv")},
    })
    result = runner.invoke(main, ["entropy-scan", cfg])
    assert result.exit_code == 2, result.output
    assert ("backend failure: the gate choices of 1000 random circuits needs "
            "2000000 bytes") in result.output
    assert draws == [] and not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("subcommand,body", [
    ("entropy-scan", {"entropy": {"depths": [1], "seeds": 3}}),
    ("dilation-scan", {"dilation": {"R": 3}}),
])
def test_random_states_past_numpy_dimensions_are_backend_failure(
        runner, tmp_path, subcommand, body):
    # 3 states on 100 sites: refused by the byte budget before numpy is
    # asked for 2^100 amplitudes
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [100]},
        "output": {"path": str(tmp_path / "x.csv")}, **body,
    })
    result = runner.invoke(main, [subcommand, cfg])
    assert result.exit_code == 2, result.output
    assert "backend failure: a batch of 3 random states needs" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not (tmp_path / "x.csv").exists()


def test_error_scan_zero_squared_error_is_backend_failure(runner, tmp_path):
    # with every coupling 0, H = 0: each TPQ energy is the ensemble value,
    # so D^2 is 0 and its log-slope in N is undefined
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [2], "Jx": 0, "Jy": 0, "Jz": 0,
                  "hx": 0},
        "error_scan": {"sizes": [2, 3], "depths": [5], "R": 2,
                       "compare_R": [1], "compare_N": 3, "compare_seeds": 1},
        "output": {"path": str(tmp_path / "x.csv")},
    })
    result = runner.invoke(main, ["error-scan", cfg])
    assert result.exit_code == 2, result.output
    assert "backend failure: D^2 is 0.0 at depth 5 and size 2" in result.output
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("coupling,column", [(1e300, "uncertainty")])
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_csv_cell_is_backend_failure(runner, tmp_path, coupling,
                                                column):
    # 1e300 leaves H's spectrum finite and overflows only the spread of the
    # energies (inf); couplings that overflow the spectrum itself are refused
    # by `to_dense` (test_overflowing_hamiltonian_is_backend_failure)
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [4], "Jx": coupling,
                  "Jy": coupling},
        "estimate": {"betas": [0.5], "R": 2},
        "output": {"path": str(tmp_path / "x.csv")},
    })
    result = runner.invoke(main, ["sweep-beta", cfg])
    assert result.exit_code == 2, result.output
    assert f"backend failure: column {column!r} has the non-finite value" \
        in result.output
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("subcommand,body", [
    ("sweep-beta", {"estimate": {"betas": [0.5], "R": 2}}),
    ("dilation-scan", {"dilation": {"epsilons": [0.1], "R": 2}}),
    ("error-scan", {"error_scan": {"sizes": [2, 3], "depths": [2], "R": 2,
                                   "compare_R": [1], "compare_N": 2,
                                   "compare_seeds": 1}}),
    ("resources", {"resources": {"sizes": [2], "backends": ["fable"]}}),
])
@pytest.mark.filterwarnings("error")
def test_overflowing_hamiltonian_is_backend_failure(runner, tmp_path,
                                                    subcommand, body):
    # couplings of 1e308 make 2 sum |c|, the bound on the spread of H's
    # spectrum, overflow: `to_dense` refuses H before building it, so no nan
    # reaches a diagonalization, a circuit angle or a CSV cell, and nothing
    # warns on the way
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [3], "Jx": 1e308, "Jy": 1e308,
                  "Jz": 1e308},
        "output": {"path": str(tmp_path / "x.csv")}, **body,
    })
    result = runner.invoke(main, [subcommand, cfg])
    assert result.exit_code == 2, result.output
    assert result.output.count("backend failure:") == 1
    assert "2 sum |c| = inf, which overflows float64" in result.output
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("subcommand,body,refused", [
    ("resources", {"resources": {"sizes": [6], "backends": ["dilated"]}},
     "the dilated unitary"),
])
def test_dense_artifact_beyond_its_budget_is_backend_failure(
        runner, tmp_path, monkeypatch, subcommand, body, refused):
    # on a 6-site chain with 128 KiB of memory, the blocks' eigenvectors
    # (21 KiB with one block and its eigh workspace) and V (32 KiB) fit;
    # Omega does not
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 32}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [6]},
        "output": {"path": str(tmp_path / "x.csv")}, **body,
    })
    result = runner.invoke(main, [subcommand, cfg])
    assert result.exit_code == 2, result.output
    assert f"backend failure: {refused}" in result.output
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("backend,pages,refused", [
    ("dilated", 2048, "the dilated unitary on n=9 + 1 qubits needs 14680064"),
    ("fable", 768, "the FABLE circuit on n=9 qubits needs 88084920"),
])
def test_resources_refuses_an_unfit_artifact_before_diagonalizing(
        runner, tmp_path, monkeypatch, backend, pages, refused):
    # 8 MiB (dilated) or 3 MiB (FABLE) fit a 9-site chain's blocks, not its
    # artifact: refused before the first eigh
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda *args: calls.append(args) or eigh(*args))
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}
    monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [9]},
        "resources": {"sizes": [9], "backends": [backend]},
        "output": {"path": str(tmp_path / "x.csv")},
    })
    result = runner.invoke(main, ["resources", cfg])
    assert result.exit_code == 2, result.output
    assert f"backend failure: {refused} bytes" in result.output
    assert calls == [] and not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("subcommand,body", [
    ("sweep-beta", {"backend": {"kind": "dilated", "epsilon": 0.1},
                    "estimate": {"betas": [0.5, 1.0], "R": 3}}),
    ("sweep-beta", {"backend": {"kind": "fable"},
                    "estimate": {"betas": [0.5, 1.0], "R": 3}}),
    ("dilation-scan", {"model": {"dimension": 2, "extents": [2, 3]},
                       "dilation": {"epsilons": [0.1, 0.5], "R": 3}}),
])
def test_no_run_path_assembles_the_eigenvectors(runner, tmp_path,
                                                monkeypatch, subcommand, body):
    # the dilated and FABLE scale is read from slabs of V's columns
    outputs = []
    for guarded in (False, True):
        if guarded:
            forbid_full_eigenvectors(monkeypatch)
        out = tmp_path / f"{guarded}.csv"
        cfg = write_config(tmp_path, {
            "model": {"dimension": 1, "extents": [5]},
            "output": {"path": str(out)}, **body,
        })
        result = runner.invoke(main, [subcommand, cfg])
        assert result.exit_code == 0, result.output
        outputs.append(out.read_text().split("\n", 1)[1])
    assert outputs[0] == outputs[1]


def test_dilation_scan_forms_no_filtered_state(runner, tmp_path, monkeypatch):
    # E, P0 and F are read off each state's eigenbasis coefficients: nothing
    # leaves the eigenbasis, and no Pauli sum is applied to a state
    def forbidden(*args, **kwargs):
        raise AssertionError("a filtered state was formed")

    cfg = write_config(tmp_path, {
        "model": {"dimension": 2, "extents": [2, 3]},
        "dilation": {"epsilons": [0.1, 0.5], "R": 3},
    })
    outputs = []
    for guarded in (False, True):
        if guarded:
            for target in ("tpqsim.pauli.DenseHermitian.from_eigenbasis",
                           "tpqsim.nonunitary.filter_states",
                           "tpqsim.pauli.apply_pauli_sum",
                           "tpqsim.statevector.apply_pauli_sum"):
                monkeypatch.setattr(target, forbidden)
        out = tmp_path / f"{guarded}.csv"
        result = runner.invoke(main, ["dilation-scan", cfg, "-o", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_magnetization_reference_needs_no_eigenvectors(runner, tmp_path,
                                                       monkeypatch):
    # with the same 128 KiB, applying the magnetization to all 64 columns of
    # V would not fit; its reference is read off the blocks' eigenvectors
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 32}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [6]},
        "estimate": {"betas": [0.5], "R": 2, "observable": "magnetization_x"},
        "output": {"path": str(tmp_path / "x.csv")},
    })
    result = runner.invoke(main, ["sweep-beta", cfg])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "x.csv").exists()


def test_qite_fit_beyond_its_budget_is_backend_failure(runner, tmp_path,
                                                      monkeypatch):
    # a 10-qubit window's 4^10 - 1 strings, as 2^10 x 2^10 matrices, alone
    # take 17.6 TB: the fit is refused before it builds them
    def forbidden(d):
        raise AssertionError("the window strings were built")

    monkeypatch.setattr(tpqsim.qite, "_window_strings", forbidden)
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [10]},
        "random_circuit": {"depth": 2, "seed": 0},
        "backend": {"kind": "qite", "n_steps": 1, "domain": 10},
        "estimate": {"betas": [0.5], "R": 1},
        "output": {"path": str(tmp_path / "x.csv")},
    })
    result = runner.invoke(main, ["sweep-beta", cfg])
    assert result.exit_code == 2, result.output
    assert ("backend failure: the QITE fit on a 10-qubit window"
            in result.output)
    assert not (tmp_path / "x.csv").exists()


def test_resources_qite_beyond_its_budget_samples_no_input(runner, tmp_path,
                                                           monkeypatch):
    # one byte short of one column's evolution: refused before any of the
    # three input states is drawn
    h = tpqsim.build_heisenberg(tpqsim.LatticeSpec(1, (4,)))
    pages = {"SC_PAGE_SIZE": 1,
             "SC_PHYS_PAGES": tpqsim.qite._evolve_bytes(4, 2, 1, len(h)) - 1}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    calls, sample = [], tpqsim.cli.sample_haar_state
    monkeypatch.setattr("tpqsim.cli.sample_haar_state",
                        lambda *args: calls.append(args) or sample(*args))
    cfg = write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [4]},
        "resources": {"sizes": [4], "backends": ["qite"], "n_steps": 1,
                      "domain": 2},
        "output": {"path": str(tmp_path / "x.csv")},
    })
    result = runner.invoke(main, ["resources", cfg])
    assert result.exit_code == 2, result.output
    assert ("backend failure: the QITE fit on a 2-qubit window"
            in result.output)
    assert calls == [] and not (tmp_path / "x.csv").exists()


def qite_sweep_bytes(columns):
    """The evolution bytes of the sweep below for `columns` columns."""
    h = tpqsim.build_heisenberg(tpqsim.LatticeSpec(1, (6,)))
    return tpqsim.qite._evolve_bytes(6, 3, columns, 2 * len(h))


def qite_sweep_config(tmp_path, betas):
    return write_config(tmp_path, {
        "model": {"dimension": 1, "extents": [6]},
        "random_circuit": {"depth": 3, "seed": 4},
        "backend": {"kind": "qite", "n_steps": 2},
        "estimate": {"betas": betas, "R": 2},
        "output": {"path": str(tmp_path / "out.csv")},
    })


def count_qite_evolve_calls(monkeypatch):
    calls = []
    evolve = tpqsim.estimator.qite_evolve
    monkeypatch.setattr(tpqsim.estimator, "qite_evolve",
                        lambda spec, *a: calls.append(spec.beta) or
                        evolve(spec, *a))
    return calls


@pytest.mark.parametrize("betas_per_call,groups", [(3, 1), (2, 2), (1, 3)])
def test_qite_sweep_evolves_its_betas_in_the_fewest_groups_that_fit(
        runner, tmp_path, monkeypatch, betas_per_call, groups):
    # a sweep is one evolution of its R = 2 states tiled once per beta; with
    # memory for only `betas_per_call` betas at once, the betas are split
    # into the fewest groups that fit, with the same CSV
    cfg = qite_sweep_config(tmp_path, [0.3, 0.0, 1.1])
    runner.invoke(main, ["sweep-beta", cfg, "-o", str(tmp_path / "one.csv")])
    if betas_per_call < 3:
        pages = {"SC_PAGE_SIZE": 1,
                 "SC_PHYS_PAGES": qite_sweep_bytes(2 * betas_per_call)}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    calls = count_qite_evolve_calls(monkeypatch)
    result = runner.invoke(main, ["sweep-beta", cfg])
    assert result.exit_code == 0, result.output
    assert len(calls) == groups
    assert sum(calls, ()) == (0.3, 0.3, 0.0, 0.0, 1.1, 1.1)
    assert ((tmp_path / "out.csv").read_bytes()
            == (tmp_path / "one.csv").read_bytes())


def test_qite_sweep_beyond_one_beta_is_backend_failure(runner, tmp_path,
                                                       monkeypatch):
    cfg = qite_sweep_config(tmp_path, [0.3, 0.0, 1.1])
    # one byte short of one beta's evolution
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": qite_sweep_bytes(2) - 1}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    calls = count_qite_evolve_calls(monkeypatch)
    result = runner.invoke(main, ["sweep-beta", cfg])
    assert result.exit_code == 2, result.output
    assert ("backend failure: the QITE fit on a 3-qubit window"
            in result.output)
    assert calls == [] and not (tmp_path / "out.csv").exists()


def test_timed_builds_keeps_one_artifact_alive():
    class Artifact:
        def __init__(self, x):
            self.x = x

    alive = []

    def build(x):
        assert not any(ref() for ref in alive)
        artifact = Artifact(x)
        alive.append(weakref.ref(artifact))
        return artifact

    artifact, seconds = timed_builds(build, ["kept", "b", "c"])
    assert artifact.x == "kept" and len(alive) == 3 and seconds >= 0.0
