"""Span tracing around the public calls of the ``thermovisc`` pipeline.

``Tracer.install`` wraps, in the running process, the functions the
``run`` pipeline calls at each layer boundary.  A wrapped function is
replaced under every name a ``thermovisc`` module binds it to, so the call
sites see the wrapper whichever module they import it from.  Spans
``[name, start, end, parent]`` stay in memory and are written once, when
the run has finished.  ``layer_metrics`` turns one run's spans and counters
into the per-layer metrics.

Only the benchmark's own code is instrumented; nothing inside the package
is changed, and the untraced run installs none of this.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import statistics
import sys
import time

#: (module, attribute, span name) of the functions wrapped in a traced run
FUNCTIONS = (
    ("thermovisc.config", "load_config", "config.load_config"),
    ("thermovisc.mesh_fem", "build_mesh", "mesh_fem.build_mesh"),
    ("thermovisc.mesh_fem", "assemble", "mesh_fem.assemble"),
    ("thermovisc.basis", "displacement_eigenbasis", "basis.displacement_eigenbasis"),
    ("thermovisc.basis", "temperature_eigenbasis", "basis.temperature_eigenbasis"),
    ("thermovisc.basis", "complement_strain_basis", "basis.complement_strain_basis"),
    ("thermovisc.basis", "basis_fields", "basis.basis_fields"),
    ("thermovisc.lifting", "build_lift", "lifting.build_lift"),
    ("thermovisc.lifting", "solve_elastic_lift", "lifting.solve_elastic_lift"),
    ("thermovisc.lifting", "solve_heat_lift", "lifting.solve_heat_lift"),
    ("thermovisc.evolution", "run", "evolution.run"),
    ("thermovisc.evolution", "reconstruct_fields", "evolution.reconstruct_fields"),
    ("thermovisc.diagnostics", "collect_row", "diagnostics.collect_row"),
    ("thermovisc.runio", "write_vtk", "runio.write_vtk"),
    ("thermovisc.runio", "write_nodes_csv", "runio.write_nodes_csv"),
    ("thermovisc.runio", "write_cells_csv", "runio.write_cells_csv"),
)

#: (module, class, method, span name) of the methods wrapped on their class
METHODS = (
    ("thermovisc.diagnostics", "AprioriMonitor", "update", "diagnostics.monitor_update"),
    ("thermovisc.runio", "DiagnosticsWriter", "write", "runio.diag_write"),
)

#: counters that must repeat exactly across repetitions of one config
EXACT_COUNTS = (
    "evolution.fp_iters",
    "constitutive.evals",
    "lifting.elastic_solves",
    "lifting.bytes",
    "basis.strain_dofs",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = {}
        self._stack = []

    def wrap(self, name, fn, on_result=None):
        """``fn`` recording one span per call; ``on_result`` sees (args, result)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def install(self):
        """Wrap the pipeline's public functions; returns the traced ``cli.main``."""
        import thermovisc

        for info in pkgutil.iter_modules(thermovisc.__path__):
            importlib.import_module(f"thermovisc.{info.name}")
        hooks = {
            "basis.complement_strain_basis": self._on_complement,
            "lifting.build_lift": self._on_lift,
            "lifting.solve_heat_lift": self._on_heat_lift,
        }
        for module, attr, name in FUNCTIONS:
            fn = getattr(sys.modules[module], attr, None)
            if fn is not None:
                self._rebind(fn, self.wrap(name, fn, hooks.get(name)))
        for module, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module], cls_name, None)
            if cls is not None and hasattr(cls, attr):
                setattr(cls, attr, self.wrap(name, getattr(cls, attr)))

        cli = sys.modules["thermovisc.cli"]
        cli.make_law = self._law_factory(cli.make_law)
        cli.run = self._run_with_traced_callback(cli.run)
        return self.wrap("cli.main", cli.main)

    @staticmethod
    def _rebind(fn, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("thermovisc") and module is not None:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    def _law_factory(self, make_law):
        # the law instance keeps its class (``initialize`` tests isinstance);
        # only its bound ``evaluate_many`` is shadowed on the instance
        @functools.wraps(make_law)
        def traced_make_law(cfg):
            law = make_law(cfg)
            law.evaluate_many = self.wrap("constitutive.evaluate_many", law.evaluate_many)
            return law

        return traced_make_law

    def _run_with_traced_callback(self, run):
        @functools.wraps(run)
        def traced_run(*args, **kwargs):
            on_step = kwargs.get("on_step")
            if on_step is not None:
                kwargs["on_step"] = self.wrap("cli.on_step", on_step, self._on_step)
            return run(*args, **kwargs)

        return traced_run

    def _on_step(self, args, _result):
        report = args[2] if len(args) > 2 else None
        iters = getattr(report, "iters", None)
        if iters is not None:
            self.count("evolution.fp_iters", int(iters))
            self.counters["evolution.max_iters"] = max(
                self.counters.get("evolution.max_iters", 0), int(iters)
            )

    def _on_complement(self, _args, result):
        # Z has shape (l, strain dofs)
        self.count("basis.strain_dofs", int(result[0].shape[1]))

    def _on_lift(self, _args, lifted):
        # computed, not measured: summed nbytes of the lift's arrays
        nbytes = sum(getattr(v, "nbytes", 0) for v in vars(lifted).values())
        self.count("lifting.bytes", int(nbytes))

    def _on_heat_lift(self, _args, theta):
        self.count("lifting.heat_steps", int(len(theta) - 1))


def _span_totals(spans):
    """Per span name: (calls, total duration, total self time)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        calls, dur, self_ = totals.get(name, (0, 0.0, 0.0))
        totals[name] = (calls + 1, dur + (end - start), self_ + (end - start - child_time[i]))
    return totals


def step_intervals_ms(spans):
    """Time between the end of one step callback and the start of the next."""
    steps = [(s, e) for name, s, e, _p in spans if name == "cli.on_step"]
    return [1e3 * (b[0] - a[1]) for a, b in zip(steps, steps[1:])]


def layer_metrics(spans, counters, bytes_written):
    """Per-layer metrics of one traced run (times in s, counts as numbers)."""
    totals = _span_totals(spans)

    def dur(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    evals = calls("constitutive.evaluate_many")
    fp_iters = counters.get("evolution.fp_iters", 0)
    steps = step_intervals_ms(spans)
    return {
        "config.load_s": dur("config.load_config"),
        "mesh_fem.assemble_s": dur("mesh_fem.build_mesh", "mesh_fem.assemble"),
        "basis.displacement_s": dur("basis.displacement_eigenbasis"),
        "basis.temperature_s": dur("basis.temperature_eigenbasis"),
        "basis.complement_s": dur("basis.complement_strain_basis"),
        "basis.fields_s": dur("basis.basis_fields"),
        "basis.strain_dofs": counters.get("basis.strain_dofs", 0),
        "lifting.build_s": dur("lifting.build_lift"),
        "lifting.elastic_solves": calls("lifting.solve_elastic_lift"),
        "lifting.heat_steps": counters.get("lifting.heat_steps", 0),
        "lifting.bytes": counters.get("lifting.bytes", 0),
        "evolution.self_s": self_time("evolution.run"),
        "evolution.fp_iters": fp_iters,
        "evolution.fp_useful_ratio": fp_iters / evals if evals else 0.0,
        "evolution.max_iters": counters.get("evolution.max_iters", 0),
        "evolution.step_ms_p50": percentile(steps, 50),
        "evolution.step_ms_p99": percentile(steps, 99),
        "constitutive.eval_s": dur("constitutive.evaluate_many"),
        "constitutive.evals": evals,
        "diagnostics.reconstruct_s": dur("evolution.reconstruct_fields"),
        "diagnostics.row_s": dur("diagnostics.collect_row"),
        "diagnostics.monitor_s": dur("diagnostics.monitor_update"),
        "runio.diag_write_s": dur("runio.diag_write"),
        "runio.snapshot_s": dur("runio.write_vtk", "runio.write_nodes_csv", "runio.write_cells_csv"),
        "runio.bytes_written": bytes_written,
        "cli.self_s": self_time("cli.main", "cli.on_step"),
    }


def percentile(values, p):
    """The p-th percentile (0 < p < 100, steps of 0.1) of ``values``."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
