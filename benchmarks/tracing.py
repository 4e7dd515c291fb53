"""Span tracer for the benchmark's traced run.

`Tracer.install` wraps every public function of every xxteleport module, and
the `__init__` of the input classes, in every xxteleport namespace that
binds them: `phase.sweep` is also bound as `cli.sweep` and
`xxteleport.sweep`, and patching only the defining module would miss calls
made through the other names.  Each call records a span (name, start, end,
parent) in flat arrays kept in memory; `write_spans` writes them out at the
end.  Nothing here runs unless the benchmark is started with `--trace 1`.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
import types
from array import array

# Public functions reported per layer, in BENCHMARK.json order.  Every other
# public function is traced too and appears in the span file.
LAYER_FUNCTIONS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "verify": ("random_params", "random_density", "random_pure_qubit", "run_verification"),
    "phase": ("better_than_classical", "critical_temperature", "reproduce_table1", "sweep"),
    "teleport": ("PureQubit", "bell_weights", "apply_channel", "channel_fidelity",
                 "fidelity_from_weights", "output_fidelity", "average_fidelity",
                 "mc_average_fidelity", "quadrature_average_fidelity", "protocol_oracle"),
    "entanglement": ("concurrence", "thermal_concurrence"),
    "model": ("ModelParams", "build_hamiltonian", "partition_function", "hyperbolic_weights",
              "gibbs_state", "gibbs_state_oracle"),
    "linalg": ("as_square_matrix", "validate_hermitian", "validate_density", "kron", "eigh",
               "hermitian_function", "trace"),
}
# Classes whose construction is an entry point (validated inputs).
TRACED_CLASSES = ("ModelParams", "PureQubit")
PACKAGE = "xxteleport"
ROOT = -1


def per_layer_metric_names() -> list[str]:
    names = []
    for layer, fns in LAYER_FUNCTIONS.items():
        for fn in fns:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.self_ms", f"{layer}.{fn}.us_per_call"]
        names += [f"{layer}.self_ms", f"{layer}.self_share", f"{layer}.errors"]
    return names + ["model.gibbs_state.calls_per_point", "teleport.bell_weights.calls_per_state",
                    "cli.output_bytes", "verify.mc_alarms", "trace.overhead_frac"]


def self_times(parents, starts, ends) -> list[int]:
    """Each span's duration minus the part of it covered by its direct children."""
    own = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p != ROOT:
            own[p] -= ends[i] - starts[i]
    return own


class Tracer:
    """Flat in-memory span store plus the wrappers that fill it."""

    def __init__(self, distinct_args=None):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.error = array("b")
        self._stack = [ROOT]
        # name -> key function of the call arguments; distinct keys are counted.
        self._keyers = dict(distinct_args or {})
        self.distinct: dict[str, set] = {name: set() for name in self._keyers}
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, fn, name: str):
        """Return fn wrapped so that each call records a span called `name`."""
        nid = self._name_id(name)
        name_of, parent, start, end, error = self.name_of, self.parent, self.start, self.end, self.error
        stack, clock = self._stack, time.perf_counter_ns
        keyer = self._keyers.get(name)
        seen = self.distinct.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keyer is not None:
                seen.add(keyer(*args, **kwargs))
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0)
            error.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the package's public functions in every namespace that binds them."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        wrappers = {}
        for modname, mod in modules.items():
            layer = modname.rpartition(".")[2]
            for attr, val in vars(mod).items():
                if attr.startswith("_") or getattr(val, "__module__", None) != modname:
                    continue
                if isinstance(val, types.FunctionType):
                    wrappers[id(val)] = self.wrap(val, f"{layer}.{attr}")
                elif isinstance(val, type) and attr in TRACED_CLASSES:
                    self._patch(val, "__init__", self.wrap(val.__init__, f"{layer}.{attr}"))
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._patch(mod, attr, wrappers[id(val)])

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, errors, self and inclusive nanoseconds."""
        own = self_times(self.parent, self.start, self.end)
        out = {name: {"calls": 0, "errors": 0, "self_ns": 0, "total_ns": 0} for name in self.names}
        for i, nid in enumerate(self.name_of):
            s = out[self.names[nid]]
            s["calls"] += 1
            s["errors"] += self.error[i]
            s["self_ns"] += own[i]
            s["total_ns"] += self.end[i] - self.start[i]
        return out

    def write_spans(self, path) -> None:
        """Spans as gzipped TSV: id, parent, name, start_ns, end_ns, error."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\terror\n")
            for i, nid in enumerate(self.name_of):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[nid]}\t{self.start[i]}"
                         f"\t{self.end[i]}\t{self.error[i]}\n")


def layer_metrics(summary: dict, root_name: str) -> dict[str, float]:
    """The per-function and per-layer metrics of BENCHMARK.json from a span summary.

    A layer's self_share is its self time over the summed duration of the
    root spans (one per request).
    """
    total_ns = summary.get(root_name, {}).get("total_ns", 0)
    out = {}
    for layer, fns in LAYER_FUNCTIONS.items():
        layer_self = layer_errors = 0
        for name, s in summary.items():
            if name.partition(".")[0] == layer:
                layer_self += s["self_ns"]
                layer_errors += s["errors"]
        for fn in fns:
            s = summary.get(f"{layer}.{fn}", {"calls": 0, "self_ns": 0, "total_ns": 0})
            out[f"{layer}.{fn}.calls"] = s["calls"]
            out[f"{layer}.{fn}.self_ms"] = s["self_ns"] / 1e6
            out[f"{layer}.{fn}.us_per_call"] = s["total_ns"] / 1e3 / s["calls"] if s["calls"] else 0.0
        out[f"{layer}.self_ms"] = layer_self / 1e6
        out[f"{layer}.self_share"] = layer_self / total_ns if total_ns else 0.0
        out[f"{layer}.errors"] = layer_errors
    return out
