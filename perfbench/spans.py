"""Per-layer tracing of ``ghz_selftest`` from outside the package.

``install`` replaces each target function with a wrapper that records a span
(id, parent span id, name, start, end, info) in a :class:`Tracer`. A wrapper
is installed at the defining module and at every ``ghz_selftest.*`` module
that bound the same object with ``from ... import``, so calls through either
name are seen. ``uninstall`` puts the originals back. A target whose module or
function no longer exists is skipped; the metrics that need it are reported
as absent (``None``).

``parallel.ordered_map`` is counted, not spanned: a span there would take the
see-saw restart loop's own work out of ``optimize.seesaw``'s self time.

Self time of a span is its duration minus the durations of its direct child
spans.
"""

import importlib
import inspect
import os
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from workloads import SEESAW_TARGETS

PACKAGE = "ghz_selftest"

EIG_DIMS = (2, 4, 8, 16, 32, 64, 128)
EIG_SPANS = ("linalg.herm_eig", "linalg.herm_eigvals")


def _dim(args, result):
    return int(len(args[0]))


def _nbytes(args, result):
    return int(result.nbytes)


def _length(args, result):
    return len(result)


def _size_of(index):
    def info(args, result):
        return os.path.getsize(args[index])
    return info


def _grid_points(args, result):
    return int(result.points)


def _restarts(args, result):
    target = SEESAW_TARGETS.get(args[0].metric, float("inf"))
    iters = [len(h) - 1 for h in result.history]
    hits = sum(1 for h in result.history if h and h[-1] >= target)
    return iters, hits


# (module, attribute, info) -- info(args, result) adds a number to the span
TARGETS = (
    ("linalg", "herm_eig", _dim),
    ("linalg", "herm_eigvals", _dim),
    ("linalg", "tensor", None),
    ("linalg", "partial_transpose", None),
    ("backends", "kron_chain", _nbytes),
    ("backends", "eigh", _dim),
    ("backends", "eigvalsh", _dim),
    ("scenario", "witness_operator", None),
    ("scenario", "witness_operators", None),
    ("scenario", "partial_witnesses", None),
    ("scenario", "success_metric", None),
    ("scenario", "probability_table", None),
    ("scenario", "success_from_table", None),
    ("selftest", "certify_strategy", None),
    ("selftest", "sos_residual", None),
    ("selftest", "align_locals", None),
    ("selftest", "verify_ghz_measurement", None),
    ("optimize", "seesaw", _restarts),
    ("optimize", "optimal_povm_for_states", None),
    ("optimize", "optimal_states_for_povm", None),
    ("robustness", "margin_grid", _grid_points),
    ("robustness", "inequality_margin", None),
    ("robustness", "apply_channel", None),
    ("robustness", "avg_fidelity", None),
    ("cli", "run", None),
    ("cli", "canonical_json", _length),
    ("cli", "load_strategy", _size_of(0)),
    ("cli", "save_strategy", _size_of(1)),
    ("states", "Strategy.validate", None),
    ("states", "Povm.validate", None),
    ("states", "SenderStates.validate", None),
)
ORDERED_MAP = "parallel.ordered_map"


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # (id, parent id or 0, name, start, end, info)
        self.current = 0
        self.next_id = 1
        self.map_calls = 0
        self.tasks = 0
        self.workers_max = 0

    def wrap(self, name, fn, info):
        def wrapper(*args, **kwargs):
            parent = self.current
            sid = self.next_id
            self.next_id = sid + 1
            self.current = sid
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.current = parent
                self.spans.append((sid, parent, name, start, perf_counter(), None))
                raise
            end = perf_counter()
            self.current = parent
            self.spans.append((sid, parent, name, start, end,
                               info(args, result) if info else None))
            return result

        return wrapper

    def wrap_ordered_map(self, fn, parallel):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            items = list(bound.arguments["items"])
            bound.arguments["items"] = items
            self.map_calls += 1
            self.tasks += len(items)
            self.workers_max = max(self.workers_max,
                                   parallel.worker_count(bound.arguments.get("workers")))
            return fn(*bound.args, **bound.kwargs)

        return wrapper


@dataclass
class Installation:
    """Patched attributes, so that :func:`uninstall` can restore them."""

    patches: list = field(default_factory=list)  # (holder, attribute, original)
    missing: set = field(default_factory=set)


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _resolve(module_name: str, attr: str):
    """``(holder, leaf, original)`` of a target, or ``None`` if it is gone."""
    try:
        holder = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ModuleNotFoundError:
        return None
    owner, _, leaf = attr.rpartition(".")
    if owner:
        holder = getattr(holder, owner, None)
    original = getattr(holder, leaf, None) if holder is not None else None
    return None if original is None else (holder, leaf, original)


def _patch(inst: Installation, holder, leaf, original, wrapper, everywhere: bool) -> None:
    if not everywhere:
        inst.patches.append((holder, leaf, original))
        setattr(holder, leaf, wrapper)
        return
    for module in _package_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                inst.patches.append((module, key, original))
                setattr(module, key, wrapper)


def install(tracer: Tracer, targets=TARGETS) -> Installation:
    """Wrap every target that exists; record the ones that do not."""
    inst = Installation()
    for module_name, attr, info in targets:
        name = f"{module_name}.{attr}"
        found = _resolve(module_name, attr)
        if found is None:
            inst.missing.add(name)
            continue
        holder, leaf, original = found
        # methods live on their class only; functions may be re-bound elsewhere
        _patch(inst, holder, leaf, original, tracer.wrap(name, original, info),
               everywhere="." not in attr)
    found = _resolve(*ORDERED_MAP.split("."))
    if found is None:
        inst.missing.add(ORDERED_MAP)
    else:
        holder, leaf, original = found
        _patch(inst, holder, leaf, original,
               tracer.wrap_ordered_map(original, holder), everywhere=True)
    return inst


def uninstall(inst: Installation) -> None:
    for holder, key, original in reversed(inst.patches):
        setattr(holder, key, original)
    inst.patches.clear()


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    child = defaultdict(float)
    for _sid, parent, _name, start, end, _info in spans:
        if parent:
            child[parent] += end - start
    return {sid: end - start - child[sid] for sid, _p, _n, start, end, _i in spans}


class Summary:
    """Calls, self time and info of one traced pass, grouped by span name.

    Every accessor returns ``None`` when one of the named targets is missing.
    """

    def __init__(self, tracer: Tracer, missing):
        self.missing = set(missing)
        self.tracer = tracer
        self._calls = defaultdict(int)
        self._self = defaultdict(float)
        self._info = defaultdict(list)
        self._eig_calls = defaultdict(int)
        self._eig_self = defaultdict(float)
        names = {sid: name for sid, _p, name, _s, _e, _i in tracer.spans}
        own = self_times(tracer.spans)
        for sid, parent, name, _start, _end, info in tracer.spans:
            self._calls[name] += 1
            self._self[name] += own[sid]
            if info is not None:
                self._info[name].append((names.get(parent), info))
            if name in EIG_SPANS:
                self._eig_calls[info] += 1
                self._eig_self[info] += own[sid]

    def _absent(self, names) -> bool:
        return any(n in self.missing for n in names)

    def calls(self, *names):
        return None if self._absent(names) else sum(self._calls[n] for n in names)

    def self_s(self, *names):
        return None if self._absent(names) else sum(self._self[n] for n in names)

    def eig_calls(self, d):
        """``herm_eig`` + ``herm_eigvals`` calls on d x d matrices."""
        return None if self._absent(EIG_SPANS) else self._eig_calls[d]

    def eig_self_s(self, d):
        return None if self._absent(EIG_SPANS) else self._eig_self[d]

    def info(self, name, parent=None):
        """Info values of ``name`` spans, optionally only those under ``parent``."""
        if self._absent([name]):
            return None
        return [v for p, v in self._info[name] if parent is None or p == parent]


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def _sum(values):
    return None if values is None else sum(values)


def _d3_sum(s: Summary):
    dims = [s.info("backends.eigh"), s.info("backends.eigvalsh")]
    return None if None in dims else sum(d**3 for group in dims for d in group)


def _iterations(s: Summary):
    runs = s.info("optimize.seesaw")
    return None if runs is None else [i for iters, _hits in runs for i in iters]


def _hit_ratio(s: Summary):
    runs = s.info("optimize.seesaw")
    if runs is None:
        return None
    return _ratio(sum(h for _i, h in runs), sum(len(i) for i, _h in runs))


def _refine_ratio(s: Summary):
    points = _sum(s.info("robustness.margin_grid"))
    calls = s.calls("robustness.inequality_margin")
    return _ratio(None if calls is None or points is None else calls - points, points)


def _stat(fn, values):
    if values is None:
        return None
    return fn(values) if values else 0


def _parallel(s: Summary, attr):
    return None if ORDERED_MAP in s.missing else getattr(s.tracer, attr)


def _strategy_bytes(s: Summary):
    sizes = [s.info("cli.load_strategy"), s.info("cli.save_strategy")]
    return None if None in sizes else sum(sizes[0]) + sum(sizes[1])


def _calls(*names):
    return lambda s: s.calls(*names)


def _self_s(*names):
    return lambda s: s.self_s(*names)


def _info_sum(name, parent=None):
    return lambda s: _sum(s.info(name, parent))


WITNESSES = ("scenario.witness_operator", "scenario.witness_operators",
             "scenario.partial_witnesses")
VALIDATES = ("states.Strategy.validate", "states.Povm.validate", "states.SenderStates.validate")

# (name, unit, better, value(summary)); counts are exact and repeat for a seed
PER_LAYER = [
    (f"linalg.eig_calls.d{d}", "count", "lower", lambda s, d=d: s.eig_calls(d)) for d in EIG_DIMS
] + [
    (f"linalg.eig_s.d{d}", "s", "lower", lambda s, d=d: s.eig_self_s(d)) for d in EIG_DIMS
] + [
    ("linalg.tensor_calls", "count", "lower", _calls("linalg.tensor")),
    ("linalg.tensor_s", "s", "lower", _self_s("linalg.tensor")),
    ("linalg.partial_transpose_calls", "count", "lower", _calls("linalg.partial_transpose")),
    ("backends.kron_chain_calls", "count", "lower", _calls("backends.kron_chain")),
    ("backends.kron_chain_s", "s", "lower", _self_s("backends.kron_chain")),
    ("backends.kron_out_bytes", "bytes", "lower", _info_sum("backends.kron_chain")),
    ("backends.eigh_calls", "count", "lower", _calls("backends.eigh")),
    ("backends.eigvalsh_calls", "count", "lower", _calls("backends.eigvalsh")),
    ("backends.eig_s", "s", "lower", _self_s("backends.eigh", "backends.eigvalsh")),
    ("backends.eig_d3_sum", "count", "lower", _d3_sum),
    ("scenario.witness_calls", "count", "lower", _calls(*WITNESSES)),
    ("scenario.witness_s", "s", "lower", _self_s(*WITNESSES)),
    ("scenario.success_metric_calls", "count", "lower", _calls("scenario.success_metric")),
    ("scenario.success_metric_s", "s", "lower", _self_s("scenario.success_metric")),
    ("scenario.probability_table_s", "s", "lower", _self_s("scenario.probability_table")),
    ("scenario.success_from_table_s", "s", "lower", _self_s("scenario.success_from_table")),
    ("selftest.certify_calls", "count", "lower", _calls("selftest.certify_strategy")),
    ("selftest.certify_self_s", "s", "lower", _self_s("selftest.certify_strategy")),
    ("selftest.sos_residual_calls", "count", "lower", _calls("selftest.sos_residual")),
    ("selftest.sos_residual_s", "s", "lower", _self_s("selftest.sos_residual")),
    ("selftest.align_s", "s", "lower", _self_s("selftest.align_locals")),
    ("selftest.ghz_fidelity_s", "s", "lower", _self_s("selftest.verify_ghz_measurement")),
    ("optimize.restarts", "count", "lower", lambda s: _stat(len, _iterations(s))),
    ("optimize.iterations", "count", "lower", lambda s: _stat(sum, _iterations(s))),
    ("optimize.iterations_p50", "count", "lower",
     lambda s: _stat(statistics.median, _iterations(s))),
    ("optimize.iterations_max", "count", "lower", lambda s: _stat(max, _iterations(s))),
    ("optimize.restart_hit_ratio", "count/count", "higher", _hit_ratio),
    ("optimize.povm_step_calls", "count", "lower", _calls("optimize.optimal_povm_for_states")),
    ("optimize.povm_step_s", "s", "lower", _self_s("optimize.optimal_povm_for_states")),
    ("optimize.states_step_calls", "count", "lower", _calls("optimize.optimal_states_for_povm")),
    ("optimize.states_step_s", "s", "lower", _self_s("optimize.optimal_states_for_povm")),
    ("optimize.seesaw_self_s", "s", "lower", _self_s("optimize.seesaw")),
    ("robustness.grid_points", "count", "lower", _info_sum("robustness.margin_grid")),
    ("robustness.margin_calls", "count", "lower", _calls("robustness.inequality_margin")),
    ("robustness.refine_ratio", "count/count", "lower", _refine_ratio),
    ("robustness.margin_s", "s", "lower", _self_s("robustness.inequality_margin")),
    ("robustness.channel_calls", "count", "lower", _calls("robustness.apply_channel")),
    ("robustness.channel_s", "s", "lower", _self_s("robustness.apply_channel")),
    ("robustness.avg_fidelity_s", "s", "lower", _self_s("robustness.avg_fidelity")),
    ("cli.run_self_s", "s", "lower", _self_s("cli.run")),
    ("cli.canonical_json_s", "s", "lower", _self_s("cli.canonical_json")),
    ("cli.report_bytes", "bytes", "lower", _info_sum("cli.canonical_json", "cli.run")),
    ("cli.load_strategy_s", "s", "lower", _self_s("cli.load_strategy")),
    ("cli.save_strategy_s", "s", "lower", _self_s("cli.save_strategy")),
    ("cli.strategy_bytes", "bytes", "lower", _strategy_bytes),
    ("states.validate_s", "s", "lower", _self_s(*VALIDATES)),
    ("parallel.map_calls", "count", "lower", lambda s: _parallel(s, "map_calls")),
    ("parallel.tasks", "count", "lower", lambda s: _parallel(s, "tasks")),
    ("parallel.workers_max", "count", "lower", lambda s: _parallel(s, "workers_max")),
]

OVERHEAD = ("trace.overhead_ratio", "ratio", "lower")


def layer_values(tracer: Tracer, missing) -> dict:
    """Every per-layer metric of one traced pass; ``None`` marks an absent one."""
    summary = Summary(tracer, missing)
    return {name: value(summary) for name, _unit, _better, value in PER_LAYER}
