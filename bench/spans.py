"""Span tracing of tpqsim's layers from outside the package.

`Tracer` replaces each layer's public function, in every loaded tpqsim module
that holds it, by a wrapper that records a span (name, start, end, parent)
and the counts read from the call's arguments and result.  `remove()` puts
every original back.  A layer function that no longer exists is skipped and
its span is simply absent.

Run as a script, it executes one CLI subcommand in-process under the tracer
and writes the per-layer summary as JSON:

    PYTHONPATH=src python3 bench/spans.py SUBCOMMAND CONFIG SUMMARY_JSON
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

C128 = 16  # bytes per complex128 amplitude


def _to_dense(args, kwargs, result):
    return {"bytes": C128 * 4 ** args[1]}  # computed: complex 2^n x 2^n matrix


def _apply_dilated(args, kwargs, result):
    n = args[1].n
    return {"p0": result[1], "dense_bytes": C128 * 4 ** (n + 1)}


def _qite_evolve(args, kwargs, result):
    circuit = result[1]
    return {"gates": len(circuit.gates), "cnots": circuit.cnot_count}


def _fable_encode(args, kwargs, result):
    return {"gates": len(result.circuit.gates), "cnots": result.cnot_count}


def _apply_fable(args, kwargs, result):
    return {"p0": result[1]}


def _apply_circuit(args, kwargs, result):
    psi, circuit = args[0], args[1]
    gates = len(circuit.gates)
    # each gate reads and writes every amplitude once (computed, not measured)
    return {"gates": gates, "bytes": gates * 2 * C128 * (1 << psi.n)}


# (module, function or Class.cached_property, span name, counts from the call)
LAYERS = (
    ("tpqsim.cli", "load_config", "cli.load_config", None),
    ("tpqsim.cli", "write_csv", "cli.write_csv", None),
    ("tpqsim.pauli", "to_dense", "pauli.to_dense", _to_dense),
    ("tpqsim.pauli", "DenseHermitian.eig", "pauli.eig", None),
    ("tpqsim.estimator", "ensemble_expectation",
     "estimator.ensemble_expectation", None),
    ("tpqsim.random_state", "random_state", "random_state.random_state", None),
    ("tpqsim.nonunitary", "apply_exact", "nonunitary.apply_exact", None),
    ("tpqsim.nonunitary", "apply_dilated", "nonunitary.apply_dilated",
     _apply_dilated),
    ("tpqsim.qite", "qite_evolve", "qite.qite_evolve", _qite_evolve),
    ("tpqsim.fable", "fable_encode", "fable.fable_encode", _fable_encode),
    ("tpqsim.fable", "apply_fable", "fable.apply_fable", _apply_fable),
    ("tpqsim.statevector", "apply_circuit", "statevector.apply_circuit",
     _apply_circuit),
    ("tpqsim.statevector", "postselect", "statevector.postselect", None),
    ("tpqsim.statevector", "expectation", "statevector.expectation", None),
)
ROOT = "cli.main"


class Tracer:
    """Records spans in memory; use as a context manager to install wrappers."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> dict:
        span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None, "counts": {}}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counts is not None:
                try:
                    span["counts"] = counts(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # the layer's signature changed: keep the span only
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, counts in self.layers:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            if "." in attr:
                self._install_member(module, attr, name, counts)
            else:
                self._install_function(module, attr, name, counts)

    def _install_function(self, module, attr, name, counts) -> None:
        original = getattr(module, attr, None)
        if not callable(original):
            return
        wrapper = self._wrap(name, original, counts)
        # rebind every module-level reference, since callers import by name
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tpqsim"
                                   or mod_name.startswith("tpqsim.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _install_member(self, module, attr, name, counts) -> None:
        cls_name, member = attr.split(".")
        cls = getattr(module, cls_name, None)
        original = vars(cls).get(member) if cls is not None else None
        if not isinstance(original, functools.cached_property):
            return
        wrapped = functools.cached_property(
            self._wrap(name, original.func, counts))
        wrapped.__set_name__(cls, member)
        self._patches.append((cls, member, original))
        setattr(cls, member, wrapped)

    def remove(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and summed counts.

    Self time is a span's duration minus the durations of its child spans;
    spans are properly nested because the traced code runs on one thread.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: dict[str, dict] = {}
    for i, span in enumerate(spans):
        entry = out.setdefault(span["name"], {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0, "counts": {}})
        duration = span["end"] - span["start"]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time[i]
        for key, value in span["counts"].items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    # a random state's gates are those of the circuit it replays
    gates = 0
    for span in spans:
        parent = span["parent"]
        if (span["name"] == "statevector.apply_circuit" and parent is not None
                and spans[parent]["name"] == "random_state.random_state"):
            gates += span["counts"]["gates"]
    if "random_state.random_state" in out:
        out["random_state.random_state"]["counts"]["gates"] = gates
    return out


def run_traced(subcommand: str, config_path: str) -> tuple[int, dict]:
    """Run the CLI in this process under a Tracer; (exit code, summary)."""
    import tpqsim.cli

    tracer = Tracer()
    with tracer:
        root = tracer.open(ROOT)
        try:
            tpqsim.cli.main([subcommand, config_path], standalone_mode=True)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        finally:
            tracer.close(root)
    return code, summarize(tracer.spans)


def main(argv: list[str]) -> int:
    subcommand, config_path, summary_path = argv
    code, summary = run_traced(subcommand, config_path)
    with open(summary_path, "w") as fh:
        json.dump({"exit_code": code, "layers": summary}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
