"""Tests of the benchmark itself:  python3 -m pytest bench"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import spans  # noqa: E402
from check import check_output, parse_csv  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, config_text, make_config  # noqa: E402


def golden(name: str) -> str:
    return (BENCH / "golden" / f"{name}.csv").read_text()


def perturb(text: str, column: str, row: int, factor: float) -> str:
    lines = text.splitlines()
    header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    header = lines[header_at].split(",")
    cells = lines[header_at + 1 + row].split(",")
    col = header.index(column)
    cells[col] = repr(float(cells[col]) * factor)
    lines[header_at + 1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_csv_passes_its_own_check(name):
    assert check_output(WORKLOADS[name], DEFAULT_SEED, golden(name),
                        golden(name)) == []


@pytest.mark.parametrize("name,column", [
    ("exact-chain10", "mean"), ("exact-chain10", "uncertainty"),
    ("qite-chain6", "mean"), ("fable-chain6", "squared_error"),
    ("dilation-grid3x3", "mean_energy"), ("dilation-grid3x3", "P0"),
])
def test_check_rejects_a_perturbed_csv_at_the_default_seed(name, column):
    bad = perturb(golden(name), column, row=1, factor=1 + 1e-6)
    assert check_output(WORKLOADS[name], DEFAULT_SEED, bad, golden(name))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_rejects_a_wrong_reference_at_any_seed(name):
    workload = WORKLOADS[name]
    text = golden(name)
    if workload.subcommand == "sweep-beta":
        text = text.replace(",0\n", ",7\n")  # the seed column of seed 7
    assert check_output(workload, 7, text, golden(name)) == []
    bad = perturb(text, "ensemble_ref", row=0, factor=1 + 1e-6)
    assert check_output(workload, 7, bad, golden(name))


def test_check_rejects_exact_mean_far_from_reference():
    workload = WORKLOADS["exact-chain10"]
    text = golden("exact-chain10").replace(",0\n", ",7\n")
    header, rows = parse_csv(text)
    ref = float(rows[3]["ensemble_ref"])
    bad = perturb(text, "mean", row=3, factor=1.2)
    # keep squared_error consistent so only the tolerance gate can fire
    mean = float(parse_csv(bad)[1][3]["mean"])
    bad = bad.replace(rows[3]["squared_error"], repr((mean - ref) ** 2))
    problems = check_output(workload, 7, bad, golden("exact-chain10"))
    assert problems and all("|mean - ref|" in p for p in problems)


def test_check_rejects_probability_out_of_range():
    workload = WORKLOADS["dilation-grid3x3"]
    bad = perturb(golden("dilation-grid3x3"), "F", row=3, factor=1.1)
    assert any("not in [0, 1]" in p
               for p in check_output(workload, 7, bad, bad))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_config_generation_is_deterministic_per_seed(name):
    workload = WORKLOADS[name]
    assert config_text(workload, 11) == config_text(workload, 11)
    assert config_text(workload, 11) != config_text(workload, 12)
    a, b = make_config(workload, 11), make_config(workload, 12)
    a["random_circuit"].pop("seed")
    b["random_circuit"].pop("seed")
    assert a == b


def _layer_bindings():
    """Every (owner, key) -> object the tracer may rebind."""
    import tpqsim.cli  # noqa: F401  (loads every layer module)
    from tpqsim.pauli import DenseHermitian

    found = {(DenseHermitian, "eig"): vars(DenseHermitian)["eig"]}
    for name, mod in list(sys.modules.items()):
        if name == "tpqsim" or name.startswith("tpqsim."):
            for key, value in vars(mod).items():
                if callable(value):
                    found[(mod, key)] = value
    return found


def test_tracer_restores_the_original_functions():
    before = _layer_bindings()
    tracer = spans.Tracer()
    with tracer:
        during = _layer_bindings()
        changed = [k for k in before if during[k] is not before[k]]
        assert len(changed) >= len(spans.LAYERS)
    after = _layer_bindings()
    assert all(after[k] is before[k] for k in before)
    assert isinstance(after[next(iter(before))], functools.cached_property)


def test_missing_layer_is_skipped():
    tracer = spans.Tracer(layers=(("tpqsim.pauli", "no_such_function", "x", None),
                                  ("tpqsim.no_such_module", "f", "y", None)))
    with tracer:
        pass
    assert tracer.spans == []


def test_self_time_excludes_children():
    fake = [
        {"name": "a", "parent": None, "start": 0.0, "end": 10.0, "counts": {}},
        {"name": "b", "parent": 0, "start": 1.0, "end": 4.0,
         "counts": {"gates": 5}},
        {"name": "b", "parent": 0, "start": 5.0, "end": 6.0,
         "counts": {"gates": 2}},
    ]
    out = spans.summarize(fake)
    assert out["a"]["self_s"] == pytest.approx(6.0)
    assert out["a"]["total_s"] == pytest.approx(10.0)
    assert out["b"] == {"calls": 2, "total_s": pytest.approx(4.0),
                        "self_s": pytest.approx(4.0), "counts": {"gates": 7}}


def test_traced_run_writes_the_same_csv(tmp_path, monkeypatch):
    import tpqsim.cli

    config = make_config(WORKLOADS["dilation-grid3x3"], 3)
    config["model"] = {"dimension": 1, "extents": [3]}
    config["dilation"]["R"] = 2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        tpqsim.cli.main(["dilation-scan", str(path)])
    assert exit_info.value.code == 0
    plain = (tmp_path / "out.csv").read_bytes()
    (tmp_path / "out.csv").unlink()
    code, summary = spans.run_traced("dilation-scan", str(path))
    assert code == 0
    assert (tmp_path / "out.csv").read_bytes() == plain
    assert summary["nonunitary.apply_dilated"]["calls"] == 8
    assert summary["nonunitary.apply_dilated"]["counts"]["dense_bytes"] == \
        8 * 16 * 4 ** 4
    assert summary["random_state.random_state"]["counts"]["gates"] > 0
    root = summary[spans.ROOT]
    assert all(e["self_s"] <= root["total_s"] for e in summary.values())


def test_benchmark_json_matches_the_harness():
    import run

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.layer_units()
