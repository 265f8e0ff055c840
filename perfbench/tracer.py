"""Outside-in layer timings for one traced pass.

The tracer wraps tactsim's public functions at the module attributes their
callers look them up through (``tactsim.scan.make_sss``,
``tactsim.observables.build_operator``, ...), so the package is measured
unchanged.  Spans stay in memory as flat records and are reduced to the
per-layer metrics once the pass has ended.  A span's self time is its
duration minus the durations of its direct child spans.

The span stack is per process: the workloads call the package from one
thread only.
"""

import functools
import importlib
from time import perf_counter

# Parity blocks up to this size take the dense route under method "auto".
DENSE_BLOCK_LIMIT = 64

# (module, attribute, span name).  A function reached through several
# modules is wrapped at each of them under one span name.
SITES = (
    ("dynamics", "make_sss", "dynamics.make_sss"),
    ("dynamics", "evolve", "dynamics.evolve"),
    ("dynamics", "rotate", "dynamics.rotate"),
    ("dynamics", "tact_generator", "dynamics.tact_generator"),
    ("dynamics", "build_operator", "operators.build_operator"),
    ("observables", "build_operator", "operators.build_operator"),
    ("observables", "css_magnitudes", "states.css_magnitudes"),
    ("observables", "fidelity", "observables.fidelity"),
    ("observables", "spin_moments", "observables.spin_moments"),
    ("observables", "qpd", "observables.qpd"),
    ("scan", "make_sss", "dynamics.make_sss"),
    ("scan", "squeezed_state", "scan.squeezed_state"),
    ("scan", "scan_tau", "scan.scan_tau"),
    ("scan", "fidelity", "observables.fidelity"),
    ("scan", "spin_moments", "observables.spin_moments"),
    ("scan", "scaling_sweep", "scan.scaling_sweep"),
    ("reproduce", "scaling_sweep", "scan.scaling_sweep"),
    ("reproduce", "squeezed_state", "scan.squeezed_state"),
    ("reproduce", "spin_moments", "observables.spin_moments"),
    ("reproduce", "fit", "fitting.fit"),
    ("cli", "run_reproduction", "reproduce.run_reproduction"),
)

# Layers whose self times do not overlap; their sum over the traced wall
# time is the share of the pass the per-layer metrics explain.
COVERED_SELF = (
    "dynamics.evolve", "dynamics.rotate", "dynamics.tact_generator",
    "operators.build_operator", "observables.qpd", "states.css_magnitudes",
    "observables.spin_moments", "observables.fidelity", "fitting.fit",
)

# Index of the fields of a span record.
NAME, PARENT, START, END, NOTE = range(5)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._rotations_seen = set()

    def _evolve_route(self, args, kwargs):
        state, generator = args[0], args[1]
        cfg = _arg(args, kwargs, 3, "cfg")
        method = cfg.method if cfg is not None else "auto"
        if method != "auto":
            return "dense" if method == "dense_expm" else "krylov"
        block = state.dim
        if generator.even_offsets_only and state.dim > 2:
            block = (state.dim + 1) // 2
        return "dense" if block <= DENSE_BLOCK_LIMIT else "krylov"

    def _rotation_temperature(self, args, kwargs):
        state, axis, angle = args[0], args[1], _arg(args, kwargs, 2, "angle")
        key = (state.j, axis if isinstance(axis, str) else tuple(axis), float(angle))
        if key in self._rotations_seen:
            return "warm"
        self._rotations_seen.add(key)
        return "cold"

    def _wrap(self, fn, name):
        before = {
            "dynamics.evolve": self._evolve_route,
            "dynamics.rotate": self._rotation_temperature,
            "scan.scan_tau": lambda args, kwargs: args[0].n_grid,
        }.get(name)
        after = {
            "fitting.fit": lambda fit: (fit.iterations, fit.converged),
            "scan.scaling_sweep": lambda rows: sum(row.status != "ok" for row in rows),
        }.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0.0, 0.0,
                      before(args, kwargs) if before else None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if after:
                record[NOTE] = after(result)
            return result

        return traced

    def install(self):
        """Replace every site in SITES by its traced wrapper."""
        for module_name, attr, name in SITES:
            module = importlib.import_module(f"tactsim.{module_name}")
            setattr(module, attr, self._wrap(getattr(module, attr), name))


def layer_metrics(spans, wall_s, command_s=0.0):
    """Reduce one pass's spans to the per-layer metrics.

    ``wall_s`` is the traced pass time; ``command_s`` is the time of the
    CLI command when the pass runs one (else 0).
    """
    n = len(spans)
    child_time = [0.0] * n
    children = [[] for _ in range(n)]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
            children[span[PARENT]].append(i)

    calls, self_s = {}, {}
    for i, span in enumerate(spans):
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (span[END] - span[START]) - child_time[i]

    def spans_named(name):
        return [i for i in range(n) if spans[i][NAME] == name]

    def total(indices):
        return sum(spans[i][END] - spans[i][START] for i in indices)

    m = {}
    evolves = spans_named("dynamics.evolve")
    m["dynamics.evolve.calls"] = len(evolves)
    m["dynamics.evolve.self_s"] = self_s.get("dynamics.evolve", 0.0)
    m["dynamics.evolve.dense_calls"] = sum(spans[i][NOTE] == "dense" for i in evolves)
    m["dynamics.evolve.krylov_calls"] = sum(spans[i][NOTE] == "krylov" for i in evolves)
    for temp in ("warm", "cold"):
        group = [i for i in spans_named("dynamics.rotate") if spans[i][NOTE] == temp]
        m[f"dynamics.rotate.{temp}_calls"] = len(group)
        m[f"dynamics.rotate.{temp}_s"] = sum(
            spans[i][END] - spans[i][START] - child_time[i] for i in group)
    m["dynamics.tact_generator.calls"] = calls.get("dynamics.tact_generator", 0)
    m["dynamics.tact_generator.self_s"] = self_s.get("dynamics.tact_generator", 0.0)
    m["dynamics.make_sss.calls"] = calls.get("dynamics.make_sss", 0)
    m["operators.build_operator.calls"] = calls.get("operators.build_operator", 0)
    m["operators.build_operator.self_s"] = self_s.get("operators.build_operator", 0.0)

    # A scan's first n_grid state requests are its grid; the rest refine.
    scans = spans_named("scan.scan_tau")
    grid_evals = refine_evals = 0
    grid_s = refine_s = 0.0
    for i in scans:
        n_grid = spans[i][NOTE]
        states = [c for c in children[i] if spans[c][NAME] == "scan.squeezed_state"]
        grid_evals += min(len(states), n_grid)
        refine_evals += max(len(states) - n_grid, 0)
        split = spans[states[n_grid]][START] if len(states) > n_grid else spans[i][END]
        grid_s += split - spans[i][START]
        refine_s += spans[i][END] - split
    requests = spans_named("scan.squeezed_state")
    hits = sum(not any(spans[c][NAME] == "dynamics.make_sss" for c in children[i])
               for i in requests)
    m["scan.scan_tau.calls"] = len(scans)
    m["scan.grid_evals"] = grid_evals
    m["scan.refine_evals"] = refine_evals
    m["scan.grid_s"] = grid_s
    m["scan.refine_s"] = refine_s
    m["scan.state_requests"] = len(requests)
    m["scan.state_cache_hit_ratio"] = hits / len(requests) if requests else 0.0
    m["scan.failed_rows"] = sum(spans[i][NOTE] or 0 for i in spans_named("scan.scaling_sweep"))

    m["observables.qpd.self_s"] = self_s.get("observables.qpd", 0.0)
    m["states.css_magnitudes.self_s"] = self_s.get("states.css_magnitudes", 0.0)
    m["observables.spin_moments.self_s"] = self_s.get("observables.spin_moments", 0.0)
    m["observables.fidelity.self_s"] = self_s.get("observables.fidelity", 0.0)

    fits = spans_named("fitting.fit")
    notes = [spans[i][NOTE] for i in fits if spans[i][NOTE] is not None]
    m["fitting.fit.calls"] = len(fits)
    m["fitting.fit.self_s"] = self_s.get("fitting.fit", 0.0)
    m["fitting.fit.iterations"] = sum(it for it, _ in notes)
    m["fitting.fit.converged_ratio"] = (
        sum(bool(ok) for _, ok in notes) / len(fits) if fits else 0.0)

    runs = spans_named("reproduce.run_reproduction")
    sweeps_in_runs = [c for i in runs for c in children[i]
                      if spans[c][NAME] == "scan.scaling_sweep"]
    m["reproduce.post_sweep_s"] = total(runs) - total(sweeps_in_runs)
    report_write_s = command_s - total(runs) if command_s else 0.0
    m["cli.report_write_s"] = report_write_s

    covered = sum(self_s.get(name, 0.0) for name in COVERED_SELF) + report_write_s
    m["trace.coverage_ratio"] = covered / wall_s
    return m
