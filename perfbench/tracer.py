"""In-memory span tracer that wraps trotterlab's public callables from outside.

The tracer changes nothing in the package source.  ``install`` replaces each
callable named in ``SPECS`` by a wrapper that records one span per call
(layer, start, end, parent span, optional work note).  A function is rebound
in every loaded module that imported it by name, for example
``trotterlab.cli.frobenius_sampled`` as well as
``trotterlab.norms.frobenius_sampled``; a method is rebound on its class.
``uninstall`` puts the originals back, so one process can alternate traced and
untraced passes.  Spans stay in memory until ``dump`` writes them out.
"""

import functools
import json
import sys
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path
from statistics import median
from time import perf_counter


def _states_result(args, kwargs, result):
    return {"states": int(result.dim)}


def _states_arg(position):
    def note(args, kwargs, result):
        return {"states": len(args[position])}
    return note


def _series(args, kwargs, result):
    steps = args[3] if len(args) > 3 else kwargs["n_steps"]
    return {"steps": int(steps), "scheme": args[0].kind}


# (layer, module, attribute, note).  An attribute "Class.method" is patched on
# the class; a plain name is rebound wherever it was imported.
SPECS = (
    ("lattice.build", "trotterlab.lattice", "build_lattice", None),
    ("hamiltonian.build", "trotterlab.hamiltonian", "build_ppp", None),
    ("hamiltonian.build", "trotterlab.hamiltonian", "shifted_potential", None),
    ("pauli.jordan_wigner", "trotterlab.pauli", "jordan_wigner", None),
    ("pauli.commutator", "trotterlab.pauli", "commutator", None),
    ("pauli.commutator", "trotterlab.norms", "nested_commutators", None),
    ("sector.enumerate", "trotterlab.sector", "enumerate_sector", _states_result),
    ("sector.assemble", "trotterlab.sector", "SectorOperator.__init__", None),
    ("sector.assemble", "trotterlab.sector", "SectorOperator.to_sparse", None),
    ("sector.matvec", "trotterlab.sector", "SectorOperator.matvec", None),
    ("sector.eigensolve", "trotterlab.sector", "lowest_eigenpairs", None),
    ("sector.propagate", "trotterlab.sector", "Propagator.apply", None),
    ("spectral.series", "trotterlab.spectral", "compute_time_series", _series),
    ("spectral.extract", "trotterlab.spectral", "extract_energy", None),
    ("spectral.dense_heff", "trotterlab.spectral", "effective_hamiltonian_dense", None),
    ("norms.frobenius", "trotterlab.norms", "frobenius_sampled", None),
    ("norms.frobenius", "trotterlab.norms", "frobenius_exact", None),
    ("norms.frobenius", "trotterlab.norms", "column_norms_squared", _states_arg(2)),
    ("norms.frobenius", "trotterlab.norms",
     "HoppingCommutatorAction.vtv_column_norm_sq", _states_arg(1)),
    ("norms.frobenius", "trotterlab.norms",
     "HoppingCommutatorAction.vtt_column_norm_sq", _states_arg(1)),
    ("norms.bound", "trotterlab.norms", "spectral_norm_bound", None),
    ("norms.dense", "trotterlab.norms", "dense_spectral_norm", None),
    ("norms.abs_matvec", "trotterlab.norms", "HoppingCommutatorAction.vtv_abs_matvec", None),
    ("norms.abs_matvec", "trotterlab.norms", "HoppingCommutatorAction.vtt_abs_matvec", None),
    ("freefermion.worst", "trotterlab.freefermion", "worst_case_kinetic", None),
    ("freefermion.average", "trotterlab.freefermion", "average_case_kinetic", None),
    ("resources.cost", "trotterlab.resources", "total_cost", None),
    ("resources.cost", "trotterlab.resources", "hwp_estimate", None),
    ("cli.reproduce", "trotterlab.cli", "cmd_reproduce", None),
    ("cli.spectral", "trotterlab.cli", "cmd_spectral", None),
    ("cli.norms", "trotterlab.cli", "cmd_norms", None),
    ("cli.freefermion", "trotterlab.cli", "cmd_freefermion", None),
    ("cli.resources", "trotterlab.cli", "cmd_resources", None),
)

# Per-layer metric names and units come from BENCHMARK.json.  "_s" metrics are
# self times (span time not covered by a child span); see ``layer_metrics``.
PER_LAYER = [(m["name"], m["unit"]) for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]]


class Tracer:
    """Records spans (layer, start, end, parent, note) for wrapped calls."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index, note=None):
        self._stack.pop()
        span = self.spans[index]
        span[2] = perf_counter()
        span[4] = note

    @contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def _wrap(self, layer, fn, note):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                info = note(args, kwargs, result) if note and result is not None else None
                tracer._close(index, info)

        return functools.wraps(fn)(traced)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer, module_name, attribute, note in SPECS:
            module = import_module(module_name)
            owner_name, _, name = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[name]
                setattr(owner, name, self._wrap(layer, original, note))
                self._undo.append((owner, name, original))
                continue
            original = getattr(module, name)
            wrapped = self._wrap(layer, original, note)
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if isinstance(namespace, dict) and namespace.get(name) is original:
                    setattr(loaded, name, wrapped)
                    self._undo.append((loaded, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo = []

    def dump(self, path):
        with open(path, "w") as fh:
            for index, (name, start, end, parent, note) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start, "end": end,
                          "parent": parent}
                if note:
                    record["note"] = note
                fh.write(json.dumps(record) + "\n")

    def roots(self, name):
        return [i for i, s in enumerate(self.spans) if s[3] == -1 and s[0] == name]


def _root_of(spans):
    roots = []
    for index, span in enumerate(spans):
        roots.append(roots[span[3]] if span[3] >= 0 else index)
    return roots


def layer_totals(spans, root_ids):
    """Self time, calls and notes per layer over the trees under ``root_ids``."""
    root_of = _root_of(spans)
    wanted = set(root_ids)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    totals = {}
    for i, (name, start, end, parent, note) in enumerate(spans):
        if root_of[i] not in wanted:
            continue
        entry = totals.setdefault(name, {"self": 0.0, "calls": 0, "notes": []})
        entry["self"] += (end - start) - child_time[i]
        entry["calls"] += 1
        if note:
            entry["notes"].append((end - start, note))
    return totals


def layer_metrics(tracer, traced_walls, untraced_walls):
    """Per-layer metrics for one set-up plus one average traced pass.

    Set-up spans count once; span totals of the traced passes are divided by
    the number of traced passes.  Rates and per-step times are ratios of sums
    over all spans.  ``trace.uncovered_share`` is the share of traced pass
    time spent outside every wrapped call, and ``trace.overhead`` is the
    median traced pass time over the median untraced one.
    """
    setup = layer_totals(tracer.spans, tracer.roots("setup"))
    solve_roots = tracer.roots("solve")
    solve = layer_totals(tracer.spans, solve_roots)
    passes = max(len(solve_roots), 1)

    def per_pass(value):
        return value(setup) + value(solve) / passes

    def field(layer, key):
        return lambda totals: totals.get(layer, {}).get(key, 0)

    def notes(layer):
        return (setup.get(layer, {}).get("notes", [])
                + solve.get(layer, {}).get("notes", []))

    out = {}
    for name, _ in PER_LAYER:
        layer, _, kind = name.rpartition("_")
        if kind == "s" and not layer.startswith("trace."):
            out[name] = float(per_pass(field(layer, "self")))
        elif kind == "calls":
            out[name] = per_pass(field(layer, "calls"))
    out["sector.enumerate_states"] = per_pass(lambda totals: sum(
        n["states"] for _, n in totals.get("sector.enumerate", {}).get("notes", [])))
    column = [(d, n["states"]) for d, n in notes("norms.frobenius") if "states" in n]
    busy = sum(d for d, _ in column)
    out["norms.column_states_per_s"] = sum(s for _, s in column) / busy if busy else 0.0
    for scheme in ("tile", "SO"):
        series = [(d, n["steps"]) for d, n in notes("spectral.series") if n["scheme"] == scheme]
        steps = sum(s for _, s in series)
        out["spectral.step_s." + scheme] = sum(d for d, _ in series) / steps if steps else 0.0
    wall = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in solve_roots)
    out["trace.solve_s"] = median(traced_walls) if traced_walls else 0.0
    out["trace.overhead"] = (median(traced_walls) / median(untraced_walls)
                             if traced_walls and untraced_walls else 0.0)
    out["trace.uncovered_share"] = solve.get("solve", {}).get("self", 0.0) / wall if wall else 0.0
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER}
