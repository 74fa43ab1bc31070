"""Tracing from outside the package: rebind the public functions the package
modules call across module boundaries, record one span per call, and fold
spans into per-layer self times and counts.

Layers are the package modules; ``reference`` is plain dict lookups and is
folded into ``harness``.  The trivial bit helper ``statevector.qubit_bit`` is
deliberately not wrapped: it runs per index computation, so its wrapper would
cost more than it measures.

Standard library only, so a traced ``merminsim`` process pays nothing for it
before its own imports.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator

LAYERS = ("circuits", "statevector", "pauli", "polynomials", "lhv", "sampling", "noise", "harness", "cli")

# (layer, module under merminsim, function or Class.method)
WRAPPED = (
    ("circuits", "circuits", "setup_config"),
    ("circuits", "circuits", "all_setup_configs"),
    ("circuits", "circuits", "ghz_circuit"),
    ("circuits", "circuits", "measurement_transform"),
    ("circuits", "circuits", "permute_qubits"),
    ("circuits", "circuits", "run"),
    ("circuits", "circuits", "Circuit.then"),
    ("statevector", "statevector", "apply_gate_inplace"),
    ("statevector", "statevector", "apply_gate"),
    ("statevector", "statevector", "init_zero"),
    ("statevector", "statevector", "ghz_state"),
    ("statevector", "statevector", "probabilities"),
    ("pauli", "pauli", "mask_parity"),
    ("pauli", "pauli", "apply_pauli"),
    ("pauli", "pauli", "exact_expectation"),
    ("pauli", "pauli", "PauliString.from_str"),
    ("polynomials", "polynomials", "mermin_direct"),
    ("polynomials", "polynomials", "alsina_recursive"),
    ("polynomials", "polynomials", "primed"),
    ("polynomials", "polynomials", "collapse"),
    ("polynomials", "polynomials", "eigencheck"),
    ("lhv", "lhv", "lr_bound_bruteforce"),
    ("lhv", "lhv", "lr_bound_formula"),
    ("sampling", "sampling", "sample_shots"),
    ("sampling", "sampling", "expectation_from_counts"),
    ("sampling", "sampling", "polynomial_estimate"),
    ("sampling", "sampling", "polynomial_estimate_expanded"),
    ("sampling", "sampling", "exchange_spread"),
    ("sampling", "sampling", "round_error"),
    ("sampling", "sampling", "derive_seed"),
    ("noise", "noise", "sample_noisy_shots"),
    ("noise", "noise", "run_noisy_trajectory"),
    ("noise", "noise", "NoiseModel.to_dict"),
    ("harness", "harness", "run_experiment"),
    ("harness", "harness", "run_exchange_test"),
    ("harness", "harness", "render_report"),
    ("harness", "harness", "render_exchange_report"),
    ("harness", "harness", "verify_invariants"),
    ("harness", "harness", "ExperimentReport.to_dict"),
    ("harness", "harness", "ExperimentReport.from_dict"),
    ("harness", "reference", "device_results"),
    ("harness", "reference", "exchange_results"),
    ("cli", "cli", "main"),
    ("cli", "cli", "build_parser"),
)

# Prefix of the stderr line on which a traced process hands back its totals.
TRACE_MARK = "PERFBENCH-TRACE "

RENDER_NAMES = ("render_report", "render_exchange_report")
POLYNOMIAL_BUILDERS = ("mermin_direct", "alsina_recursive", "primed")

# A span: (id, parent id or None, layer, name, start, end).
Span = tuple[int, "int | None", str, str, float, float]


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.  Children of
    one span run one after another, so their durations add up."""
    spans = list(spans)
    covered: dict[int, float] = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    return {sid: (end - start) - covered.get(sid, 0.0) for sid, _, _, _, start, end in spans}


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans of the current operation plus totals folded from earlier ones."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.sample: list[Span] = []  # spans of the first folded operation
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.bruteforced: set = set()
        self._stack: list[int] = []
        self._open_layers: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self.active = True  # off while the benchmark checks outputs

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            self._open_layers[layer] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._open_layers[layer] -= 1
                self.spans.append((sid, parent, layer, name, start, end))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def recording(self) -> Iterator[None]:
        """Record spans for the duration, then fold them into the totals."""
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.fold()

    def inside(self, layer: str) -> bool:
        return self._open_layers[layer] > 0

    def fold(self) -> None:
        """Add the current spans to the totals and start afresh."""
        if not self.sample:
            self.sample = list(self.spans)
        selfs = self_times(self.spans)
        for sid, _, layer, name, _, _ in self.spans:
            self.self_s[(layer, name)] += selfs[sid]
            self.calls[(layer, name)] += 1
        self.spans = []

    def totals(self) -> dict:
        """JSON-ready totals, so a traced child process can hand them back."""
        return _totals(self.self_s, self.calls, self.counts, len(self.bruteforced))


def _totals(self_s: dict, calls: dict, counts: dict, bruteforced: int) -> dict:
    return {
        "self_s": [[layer, name, v] for (layer, name), v in self_s.items()],
        "calls": [[layer, name, v] for (layer, name), v in calls.items()],
        "counts": dict(counts),
        "bruteforced": bruteforced,
    }


def merge_totals(parts: Iterable[dict]) -> dict:
    """Sum ``Tracer.totals()`` from several processes.  Distinct brute-forced
    polynomials are counted per process, as each process starts cold."""
    self_s: dict[tuple[str, str], float] = defaultdict(float)
    calls: dict[tuple[str, str], int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    bruteforced = 0
    for part in parts:
        for layer, name, v in part["self_s"]:
            self_s[(layer, name)] += v
        for layer, name, v in part["calls"]:
            calls[(layer, name)] += v
        for key, v in part["counts"].items():
            counts[key] += v
        bruteforced += part["bruteforced"]
    return _totals(self_s, calls, counts, bruteforced)


def _gate_hook(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    # Computed bytes: the whole buffer is read and written once per gate.
    nbytes = 2 * _arg(args, kwargs, 0, "amp").nbytes
    tracer.counts["statevector.gates"] += 1
    tracer.counts["statevector.bytes_computed"] += nbytes
    if tracer.inside("noise"):
        tracer.counts["noise.bytes_computed"] += nbytes


def _shots_hook(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["sampling.shots"] += _arg(args, kwargs, 1, "shots")


def _trajectory_hook(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["noise.trajectory_rows"] += _arg(args, kwargs, 2, "shots")


def _bruteforce_hook(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    p = _arg(args, kwargs, 0, "p")
    tracer.counts["lhv.bruteforce_calls"] += 1
    tracer.bruteforced.add((p.n, p.terms))


def _build_hook(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["polynomials.builds"] += 1


def _render_hook(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["harness.report_bytes"] += len(result.encode())


_HOOKS: dict[str, Callable] = {
    "apply_gate_inplace": _gate_hook,
    "sample_shots": _shots_hook,
    "sample_noisy_shots": _trajectory_hook,
    "lr_bound_bruteforce": _bruteforce_hook,
    **{name: _build_hook for name in POLYNOMIAL_BUILDERS},
    **{name: _render_hook for name in RENDER_NAMES},
}


def install(tracer: Tracer, package: str = "merminsim") -> list[str]:
    """Wrap every name of ``WRAPPED`` and rebind it wherever a loaded package
    module holds it.  Returns the names that could not be found."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == package or key.startswith(package + "."))]
    missing = []
    for layer, modname, qualname in WRAPPED:
        module = sys.modules.get(f"{package}.{modname}")
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = vars(owner).get(attr) if owner is not None else None
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(tracer.wrap(layer, qualname, raw.__func__)))
        elif callable(raw) and owner_name:
            setattr(owner, attr, tracer.wrap(layer, qualname, raw))
        elif callable(raw):
            traced = tracer.wrap(layer, qualname, raw)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        setattr(m, key, traced)
        else:
            missing.append(f"{modname}.{qualname}")
    return missing


def layer_metrics(totals: dict, wall_s: float) -> dict[str, float]:
    """Per-layer calls, self time and share of ``wall_s``, the time the traced
    operations took; ``other`` is the remainder no wrapped call covers."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    by_name_self: dict[str, float] = defaultdict(float)
    by_name_calls: dict[str, int] = defaultdict(int)
    for layer, name, v in totals["self_s"]:
        self_s[layer] += v
        by_name_self[name] += v
    for layer, name, v in totals["calls"]:
        calls[layer] += v
        by_name_calls[name] += v
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / wall_s
    other = wall_s - sum(self_s.values())
    out["other.self_s"] = other
    out["other.share"] = other / wall_s
    counts = totals["counts"]
    bruteforce_calls = counts.get("lhv.bruteforce_calls", 0)
    out["circuits.setup_config.calls"] = by_name_calls["setup_config"]
    out["polynomials.builds"] = counts.get("polynomials.builds", 0)
    out["lhv.unique_ratio"] = totals["bruteforced"] / bruteforce_calls if bruteforce_calls else 0.0
    for key in ("statevector.gates", "statevector.bytes_computed", "sampling.shots",
                "noise.trajectory_rows", "noise.bytes_computed", "harness.report_bytes"):
        out[key] = counts.get(key, 0)
    out["harness.render.self_s"] = sum(by_name_self[name] for name in RENDER_NAMES)
    out["cli.main.self_s"] = by_name_self["main"]
    out["trace.wall_s"] = wall_s
    return out
