"""Command-line interface, serialization formats and report emission.

Every command writes a JSON report (sorted keys, floats rendered with
``%.17g``, no timestamps) so identical invocations produce identical bytes,
and prints a one-line summary. Exit status: 0 = checks passed, 1 =
certification failure, 2 = usage or input error.

Strategy files are JSON::

    {"format": "ghz-selftest/strategy", "n": 2, "task": "ghz",
     "senders": [{"rho": [[M, M], [M, M]]}, ...],   # indexed [a][x]
     "povm": [M, ...], "observables": [M, M]}        # observables: partial_bell

where ``M`` is a row-major matrix of ``[re, im]`` pairs. POVM element ``m``
is the outcome whose bits are ``s_j = (m >> (j-1)) & 1``; outcome strings in
reports and CSV exports list the sign bit ``s_1`` first.

Randomness is counter-based (Philox keyed by ``--seed``, which only ``sos``
and ``seesaw`` take), so results are reproducible across runs and platforms.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from functools import cache
from itertools import chain

import numpy as np

from . import __version__, arraytext
from .errors import GhzSelfTestError, InequalityViolated, InvalidInput
from .fixtures import (
    computational_strategy,
    depolarized_partial_bell,
    depolarized_strategy,
    entangling_fixture,
    ideal_strategy,
    literal_ideal_strategy,
    partial_bell_strategy,
    separable_fixture,
)
from .optimize import GAMES, SeesawConfig, seesaw
from .rng import uint64
from .robustness import (
    RAC_OPTIMUM,
    FidelityBoundParams,
    analytic_params,
    fidelity_lower_bound,
    margin_grid,
    parametrized_a_operators,
    partial_fidelity_bound,
)
from .scenario import (
    a_operators,
    best_rac_observables,
    bloch_from_relabeled,
    comm_metric,
    comm_traces,
    counterexample_value,
    rac_bound,
    rac_metric,
)
from .selftest import (
    certify_strategy,
    classify_outcome_measurement,
    resolve_tolerances,
    sos_passes,
    sos_residual,
    spectrum_closed_form,
    witness_bounds,
)
from .states import (
    Povm,
    SenderStates,
    Strategy,
    aligned_sender_states,
    outcome_index,
    outcome_label,
    random_antipodal_strategy,
)

# the largest sender count any command or strategy file takes
MAX_N = 7
STRATEGY_FORMAT = "ghz-selftest/strategy"
# the commands whose checks read selftest's tolerance table
TOLERANCE_COMMANDS = ("certify", "spectrum", "sos")
# the arrays load_strategy reads as ndarrays, by key and shape (None: any
# length): strategy_from_dict iterates povm and observables and indexes rho
# by [a][x], so where these fit, an array reads as its nested lists would
FLAT_ARRAYS = {"povm": (None, None, None, 2), "observables": (None, None, None, 2),
               "rho": (2, 2, None, None, 2)}

GHZ_FIXTURES = {
    "ideal": lambda n, noise: ideal_strategy(n),
    "literal": lambda n, noise: literal_ideal_strategy(n),
    "computational": lambda n, noise: computational_strategy(n),
    "depolarized": lambda n, noise: depolarized_strategy(n, noise),
}


@dataclass
class RunConfig:
    command: str
    n: int | None = 2  # None: certify --input without --n
    seed: int = 0
    input_path: str | None = None
    output_path: str | None = None
    tolerances: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    """Serialize with sorted keys and ``%.17g`` floats (lossless, canonical)."""
    return "".join(_json_parts(obj))


def _json_parts(obj):
    """The text of :func:`canonical_json`, yielded in parts. The walk leaves
    a slot for each finite float array; one :func:`arraytext.float_array_texts`
    generator writes them all, a slice at a time, as the slots come up, and
    the text between two slots is yielded joined."""
    parts: list = []
    arrays: list = []  # (slot in parts, array)
    _emit(obj, parts, arrays)
    if not arrays:
        yield "".join(parts)
        return
    texts = arraytext.float_array_texts([a for _, a in arrays])
    pending = next(texts, None)
    start = 0
    for i, (slot, _) in enumerate(arrays):
        yield "".join(parts[start:slot])
        while pending is not None and pending[0] == i:
            yield pending[1]
            pending = next(texts, None)
        start = slot + 1
    yield "".join(parts[start:])


def _emit(obj, parts: list, arrays: list) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x == 0:
            x = 0.0  # normalize -0.0 so parse/serialize round-trips
        parts.append(format(x, ".17g") if math.isfinite(x) else "null")
    elif isinstance(obj, np.ndarray) and obj.ndim == 0:
        _emit(obj[()], parts, arrays)
    elif (isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.size
          and np.isfinite(obj).all()):
        arrays.append((len(parts), obj))
        parts.append("")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(key)))
            parts.append(":")
            _emit(obj[key], parts, arrays)
        parts.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        parts.append("[")
        for i, item in enumerate(list(obj)):
            if i:
                parts.append(",")
            _emit(item, parts, arrays)
        parts.append("]")
    else:
        raise InvalidInput(f"cannot serialize object of type {type(obj).__name__}")


def matrix_from_json(rows, field_name: str, d: int) -> np.ndarray:
    """The ``d x d`` complex matrix of a row-major list of ``[re, im]`` pairs,
    or of their array; anything else, a JSON ``true`` or ``false`` among the
    numbers too, is an InvalidInput naming ``field_name``."""
    try:
        pairs = np.asarray(rows)
    except ValueError as exc:  # ragged rows
        raise InvalidInput(f"malformed matrix in {field_name}: {exc}") from exc
    # NumPy types a list of booleans as bool, and booleans among numbers as numbers
    if (pairs.dtype.kind not in "iuf" or pairs.shape != (d, d, 2)
            or isinstance(rows, list) and bool in set(map(type, chain.from_iterable(
                chain.from_iterable(rows))))):
        raise InvalidInput(f"{field_name} is not a {d}x{d} matrix of [re, im] number pairs")
    if not np.isfinite(pairs).all():
        raise InvalidInput(f"non-finite matrix entry in {field_name}")
    return pairs.astype(float).view(complex)[..., 0]


def _matrix_stack(items, field_name: str, d: int, depth: int = 1) -> np.ndarray:
    """The stack of :func:`matrix_from_json` of each ``items[k]``, named
    ``field_name[k]``; at ``depth`` 2, of each ``items[k][l]``, named
    ``field_name[k][l]``. An integer or float array of finite ``[re, im]``
    pairs of ``d x d`` matrices, as :func:`load_strategy` reads a stack,
    passes every check at once and is converted whole."""
    if (isinstance(items, np.ndarray) and items.dtype.kind in "iuf"
            and items.shape[depth:] == (d, d, 2) and np.isfinite(items).all()):
        return items.astype(float).view(complex)[..., 0]
    if depth > 1:
        return np.stack([_matrix_stack(row, f"{field_name}[{k}]", d, depth - 1)
                         for k, row in enumerate(items)])
    return np.stack([matrix_from_json(m, f"{field_name}[{k}]", d) for k, m in enumerate(items)])


def _sender_states(rho, field_name: str) -> np.ndarray:
    """A sender's ``rho[a][x]`` as one ``(2, 2, 2, 2)`` stack; any layout but
    two rows of two matrices is an InvalidInput naming ``field_name``."""
    rows = (list, np.ndarray)
    if not (isinstance(rho, rows) and len(rho) == 2
            and all(isinstance(row, rows) and len(row) == 2 for row in rho)):
        raise InvalidInput(f"{field_name} is not two rows of two matrices, indexed [a][x]")
    return _matrix_stack(rho, field_name, 2, depth=2)


def strategy_to_dict(strategy: Strategy, arrays: bool = False) -> dict:
    """The strategy-file form: every matrix a row-major list of ``[re, im]``
    pairs. With ``arrays`` each stack of matrices stays a float ndarray of
    those pairs, which :func:`canonical_json` writes in bulk."""

    def pairs(m):
        # a C-ordered complex array read as floats is its [re, im] pairs
        out = np.ascontiguousarray(m, dtype=complex).view(float).reshape(m.shape + (2,))
        return out if arrays else out.tolist()

    out = {
        "format": STRATEGY_FORMAT,
        "n": strategy.n,
        "task": strategy.task,
        "senders": [{"rho": pairs(st.rho)} for st in strategy.senders],
        "povm": pairs(strategy.povm.elements),
    }
    if strategy.observables is not None:
        out["observables"] = pairs(strategy.observables)
    return out


def strategy_from_dict(data: dict) -> Strategy:
    """The strategy of a strategy-file dict. Only the file's form is checked
    here (field shapes, finite entries); whether the states and the POVM are
    valid is left to the command that uses the strategy, which validates it
    once (:func:`certify_strategy` does so itself). A ``format`` tag, when
    present, must be the one :func:`strategy_to_dict` writes."""
    try:
        if "format" in data and data["format"] != STRATEGY_FORMAT:
            raise InvalidInput(
                f"strategy file format is not {STRATEGY_FORMAT!r}: {data['format']!r}")
        n = data["n"]
        # checked before 2**n sizes the POVM: a bool, a float or a huge n is refused
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 2 <= n <= MAX_N:
            raise InvalidInput(f"strategy file field n is not an integer from 2 to {MAX_N}: {n!r}")
        n = int(n)
        task = data.get("task", "ghz")
        senders = [SenderStates(_sender_states(entry["rho"], f"senders[{j}].rho"))
                   for j, entry in enumerate(data["senders"])]
        povm = Povm(_matrix_stack(data["povm"], "povm", 2**n))
        observables = None
        if "observables" in data:
            observables = _matrix_stack(data["observables"], "observables", 2)
    except InvalidInput:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed strategy file: {exc}") from exc
    return Strategy(n=n, senders=tuple(senders), povm=povm, task=task,
                    observables=observables)


def save_strategy(strategy: Strategy, path: str) -> None:
    """Write the strategy file: the bytes of :func:`canonical_json` of
    :func:`strategy_to_dict`, written part by part as they are made, so no
    more than a slice of the text is held at once."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_parts(strategy_to_dict(strategy, arrays=True)))


def load_strategy(path: str) -> Strategy:
    """The strategy of a strategy file. :func:`arraytext.loads` parses its
    bytes, reading each rectangular ``povm``, ``observables`` and ``rho``
    array as one ndarray, and any other value or a bad file as ``json``
    reads the text. A file that is not UTF-8 text or nests too deeply to
    parse is an InvalidInput."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        data = arraytext.loads(raw, FLAT_ARRAYS)
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"strategy file is not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise InvalidInput("strategy file nests too deeply to parse") from exc
    del raw
    return strategy_from_dict(data)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _extract_tolerances(argv) -> tuple:
    """Split ``--tol.NAME=VALUE`` overrides out of the raw argv."""
    tol = {}
    rest = []
    for token in argv:
        if token.startswith("--tol."):
            name, eq, value = token[len("--tol."):].partition("=")
            if not eq:
                raise InvalidInput(f"tolerance override {token!r} must be --tol.NAME=VALUE")
            try:
                tol[name] = float(value)
            except ValueError as exc:
                raise InvalidInput(f"bad tolerance value in {token!r}") from exc
        else:
            rest.append(token)
    return tol, rest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghz-selftest",
        description="Certify GHZ-basis measurements from communication statistics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, n=False, seed=False):
        # no abbreviations: `partial-bell --n 0.1` must not parse as --noise 0.1
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        if seed:
            p.add_argument("--seed", type=int, help="master random seed")
        if n:
            p.add_argument("--n", type=int, help="number of senders")
        p.add_argument("--output", "-o", help="report path (default report-<command>.json)")
        # every report's config echoes n and seed, whether the command reads them or not
        p.set_defaults(n=2, seed=0)
        return p

    p = command("certify", "run all certification checks on a strategy", n=True)
    p.set_defaults(n=None)  # a strategy file brings its own n; a fixture defaults to 2
    source = p.add_mutually_exclusive_group()
    source.add_argument("--input", help="strategy JSON file")
    source.add_argument("--fixture", choices=sorted(GHZ_FIXTURES),
                        help="built-in strategy (default ideal)")
    p.add_argument("--noise", type=float, help="noise level for the depolarized fixture")

    p = command("spectrum", "certify's witness-spectrum check on the reference frame", n=True)
    p.add_argument("--s", default="all", help="outcome word (sign bit first) or 'all'")

    p = command("sos", "certify's sum-of-squares check on random antipodal strategies",
                n=True, seed=True)
    p.add_argument("--samples", type=int, default=50)

    p = command("seesaw", "alternating optimization of a game score", n=True, seed=True)
    p.add_argument("--metric", choices=[g.replace("_", "-") for g in GAMES], default="ghz")
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--conv-tol", type=float, default=1e-10)
    p.add_argument("--history-csv", help="write per-restart score history CSV")
    p.add_argument("--save-strategy", help="write the best strategy as JSON")

    command("counterexample", "evaluate the three-input game reference parameters")

    p = command("robustness-grid", "sweep the operator-inequality margin over angles", n=True)
    p.add_argument("--step", type=float, default=float(np.pi / 80))
    p.add_argument("--r", type=float, help="inequality coefficient r")
    p.add_argument("--mu", type=float, help="inequality coefficient mu")
    p.add_argument("--csv", help="write per-point margins to CSV")

    p = command("fidelity-bound", "score deficit -> fidelity floor", n=True)
    p.add_argument("--eps", type=float, required=True, help="score deficit 1 - S")
    p.add_argument("--r", type=float)
    p.add_argument("--mu", type=float)

    p = command("partial-bell", "evaluate the three-outcome Bell game")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--input", help="strategy JSON file (partial_bell task)")
    source.add_argument("--noise", type=float, default=0.0,
                        help="depolarize the built-in optimal measurement")

    p = command("rac", "random-access-code score and its upper bound")
    p.add_argument("--alpha", type=float,
                   help="message angle in radians (default: reference states)")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser :func:`parse_args` reads in a process, built on first
    use. Parsing leaves a parser and its (immutable) defaults as they were, so
    no call sees another's arguments; :func:`build_parser` stays fresh for
    callers that change the parser they get."""
    return build_parser()


def parse_args(argv) -> RunConfig:
    """Parse and validate; raises SystemExit(2) on usage errors."""
    parser = _parser()
    try:
        tolerances, rest = _extract_tolerances(argv)
        resolve_tolerances(tolerances)
    except InvalidInput as exc:
        parser.error(str(exc))
    ns = parser.parse_args(rest)
    if tolerances and ns.command not in TOLERANCE_COMMANDS:
        parser.error(f"{ns.command} applies no tolerance; --tol.NAME=VALUE applies to "
                     f"{', '.join(TOLERANCE_COMMANDS)} only")
    if ns.command == "certify" and ns.noise is not None and ns.fixture != "depolarized":
        parser.error("--noise applies to --fixture depolarized only")
    if ns.command == "certify" and not ns.input:
        ns.n, ns.fixture = 2 if ns.n is None else ns.n, ns.fixture or "ideal"
        ns.noise = 0.0 if ns.noise is None else ns.noise
    if ns.n is not None and ns.n < 2:
        parser.error("--n must be at least 2")
    if ns.n is not None and ns.n > MAX_N:
        parser.error(f"--n {ns.n} unsupported for {ns.command} (n <= {MAX_N})")
    if ns.command == "seesaw" and ns.save_strategy:
        if unsavable := GAMES[ns.metric.replace("-", "_")].unsavable:
            parser.error(f"--save-strategy: {unsavable}")
    options = {k: v for k, v in vars(ns).items()
               if k not in ("command", "n", "seed", "output")}
    return RunConfig(
        command=ns.command,
        n=ns.n,
        seed=ns.seed,
        input_path=options.pop("input", None),
        output_path=ns.output,
        tolerances=tolerances,
        options=options,
    )


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _cmd_certify(config: RunConfig) -> tuple:
    if config.input_path:
        strategy = load_strategy(config.input_path)
        if config.n not in (None, strategy.n):
            raise InvalidInput(f"--n {config.n} differs from the file's n {strategy.n}")
        config.n = strategy.n
    else:
        strategy = GHZ_FIXTURES[config.options["fixture"]](config.n, config.options["noise"])
    report = certify_strategy(strategy, config.tolerances)
    summary = (
        f"metric={report.metric_value:.10f} "
        f"min_fidelity={min(report.ghz_fidelities) if report.ghz_fidelities else float('nan'):.10f}"
    )
    return report.to_dict(), report.passed, summary


def _cmd_spectrum(config: RunConfig) -> tuple:
    n = config.n
    ops = parametrized_a_operators([np.pi / 4] * n)
    want = config.options["s"]
    outcomes = None if want == "all" else [outcome_index(want, n)]
    spectrum_tol = resolve_tolerances(config.tolerances)["spectrum"]
    max_dev, _ = witness_bounds(ops, spectrum_tol, outcomes)
    # sorted, the closed form is one row for every outcome
    top = np.sort(spectrum_closed_form(n, 0))
    gap = float(top[-1] - top[-2])
    results = {
        "eigenvalues_by_outcome": {outcome_label(m, n): spectrum_closed_form(n, m)
                                   for m in (outcomes or range(2**n))},
        "max_numeric_deviation": max_dev,
        "min_top_gap": gap,
        "top_value": float(2 * np.sqrt(2) * (n - 1)),
    }
    return results, max_dev <= spectrum_tol, f"max_deviation={max_dev:.3e} top_gap={gap:.6f}"


def _cmd_sos(config: RunConfig) -> tuple:
    n = config.n
    samples = config.options["samples"]
    if samples < 1:
        raise InvalidInput(f"--samples must be at least 1, got {samples}")
    uint64("samples", samples)  # by the rule for seeds, as the see-saw's counts
    if config.seed + samples > 2**64:  # sample k draws from seed + k
        raise InvalidInput("--seed + --samples - 1 must lie below 2**64")
    tol = resolve_tolerances(config.tolerances)
    worst = 0.0
    worst_shift = float("inf")
    for k in range(samples):
        ops = a_operators(random_antipodal_strategy(n, config.seed + k))
        worst = max(worst, sos_residual(n, 0, ops))
        worst_shift = min(worst_shift, witness_bounds(ops, tol["spectrum"])[1])
    passed = sos_passes(worst, worst_shift, tol)
    results = {
        "samples": samples,
        "max_residual": worst,
        "min_shifted_eigenvalue": worst_shift,
    }
    return results, passed, f"max_residual={worst:.3e} min_shifted_eig={worst_shift:.3e}"


def _cmd_seesaw(config: RunConfig) -> tuple:
    metric = config.options["metric"].replace("-", "_")
    game = GAMES[metric]
    cfg = SeesawConfig(
        n=config.n,
        metric=metric,
        restarts=config.options["restarts"],
        max_iters=config.options["max_iters"],
        conv_tol=config.options["conv_tol"],
        seed=config.seed,
    )
    result = seesaw(cfg)
    passed = result.best_value >= game.target
    if config.options.get("history_csv"):
        with open(config.options["history_csv"], "w", encoding="utf-8") as fh:
            fh.write("restart,iteration,value\n")
            for ri, hist in enumerate(result.history):
                for it, val in enumerate(hist):
                    fh.write(f"{ri},{it},{val:.17g}\n")
    if config.options.get("save_strategy"):
        save_strategy(result.best_strategy, config.options["save_strategy"])
    results = {
        "metric": metric,
        "best_value": result.best_value,
        "iters_used": result.iters_used,
        "restarts": cfg.restarts,
        "target": game.target,
        **game.extra(result.best_strategy),
    }
    return results, passed, f"metric={metric} best={result.best_value:.10f}"


def _cmd_counterexample(config: RunConfig) -> tuple:
    results = {}
    expected_flags = {"entangling": True, "separable": False}
    passed = True
    for name, fixture in (("entangling", entangling_fixture()),
                          ("separable", separable_fixture())):
        flags = classify_outcome_measurement(fixture.povm)
        any_entangled = any(f["entangled"] for f in flags)
        passed = passed and (any_entangled == expected_flags[name])
        results[name] = {
            "metric": counterexample_value(fixture),
            "outcome_classification": flags,
        }
    summary = (
        f"entangling={results['entangling']['metric']:.6f} "
        f"separable={results['separable']['metric']:.6f}"
    )
    return results, passed, summary


def _make_params(config: RunConfig) -> FidelityBoundParams | None:
    r = config.options.get("r")
    mu = config.options.get("mu")
    if (r is None) != (mu is None):
        raise InvalidInput("--r and --mu must be given together")
    if r is None:
        return None
    return FidelityBoundParams(r=r, mu=mu, n=config.n)


def _cmd_robustness_grid(config: RunConfig) -> tuple:
    params = _make_params(config) or analytic_params(config.n)
    try:
        grid = margin_grid(
            config.n,
            params,
            step=config.options["step"],
            csv_path=config.options.get("csv"),
        )
    except InequalityViolated as exc:
        grid = exc.result
    results = {
        "r": params.r,
        "mu": params.mu,
        "min_margin": grid.min_margin,
        "argmin_outcome": outcome_label(grid.argmin_outcome, config.n),
        "argmin_angles": list(grid.argmin_angles),
        "points": grid.points,
    }
    return results, grid.passed, f"min_margin={grid.min_margin:.3e} points={grid.points}"


def _cmd_fidelity_bound(config: RunConfig) -> tuple:
    params = _make_params(config)
    value = fidelity_lower_bound(config.n, config.options["eps"], params)
    results = {"eps": config.options["eps"], "bound": value}
    return results, True, f"bound={value:.17g}"


def _cmd_partial_bell(config: RunConfig) -> tuple:
    if config.input_path:
        strategy = load_strategy(config.input_path)
        strategy.validate()  # comm_metric refuses another task's strategy
    elif config.options["noise"] != 0:
        # the fixture rejects noise outside [0, 1], NaN included
        strategy = depolarized_partial_bell(config.options["noise"])
    else:
        strategy = partial_bell_strategy()
    s_comm = comm_metric(strategy)
    mx, mz = strategy.observables
    s_rac = rac_metric(strategy.senders[0], mx, mz)
    term_values = comm_traces(a_operators(strategy), strategy.povm.elements).tolist()
    eps = max(0.0, 1 - s_comm)
    rac_capped = min(s_rac, RAC_OPTIMUM)
    bound = partial_fidelity_bound(eps, rac_capped)
    # the bound linearizes a trace term around the optimal message angle;
    # the RAC score caps the angle deviation, which in turn sizes the
    # truncation error the linearization tolerates (reported, not enforced)
    angle_dev = float(np.arccos(np.clip(2 * np.sqrt(2) * (rac_capped - 0.5), -1.0, 1.0)))
    results = {
        "comm_metric": s_comm,
        "rac_metric": s_rac,
        "witness_traces": term_values,
        "povm_traces": strategy.povm.traces().tolist(),
        "eps": eps,
        "fidelity_bound": bound,
        "angle_deviation_bound": angle_dev,
        "taylor_truncation_estimate": 3 * np.sqrt(2) / 4 * angle_dev**2,
    }
    return results, bound >= 0.5, f"comm={s_comm:.10f} rac={s_rac:.10f} bound={bound:.6f}"


def _cmd_rac(config: RunConfig) -> tuple:
    alpha = config.options.get("alpha")
    if alpha is None:
        sender = aligned_sender_states(1, 2)
    else:
        ops = parametrized_a_operators([alpha, np.pi / 4])
        # rho[a, x] = (I + (-1)^a ops[0, x]) / 2
        sender = SenderStates((np.eye(2) + np.array([1, -1])[:, None, None, None] * ops[0]) / 2)
    mx, mz = best_rac_observables(sender)
    value = rac_metric(sender, mx, mz)
    bound = rac_bound(bloch_from_relabeled(sender))
    results = {"rac_metric": value, "rac_bound": bound, "gap": bound - value}
    return results, bound - value <= 1e-9, f"rac={value:.10f} bound={bound:.10f}"


_HANDLERS = {
    "certify": _cmd_certify,
    "spectrum": _cmd_spectrum,
    "sos": _cmd_sos,
    "seesaw": _cmd_seesaw,
    "counterexample": _cmd_counterexample,
    "robustness-grid": _cmd_robustness_grid,
    "fidelity-bound": _cmd_fidelity_bound,
    "partial-bell": _cmd_partial_bell,
    "rac": _cmd_rac,
}


def run(config: RunConfig) -> int:
    """Execute a parsed command: write the report, print a summary line."""
    out_path = config.output_path or f"report-{config.command}.json"
    try:
        results, passed, summary = _HANDLERS[config.command](config)
        text = canonical_json({
            "command": config.command,
            "version": __version__,
            "config": {
                "n": config.n,
                "seed": config.seed,
                "input": config.input_path,
                "tolerances": config.tolerances,
                "options": {k: v for k, v in sorted(config.options.items())},
            },
            "results": results,
            "passed": passed,
        })
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except (OSError, json.JSONDecodeError, GhzSelfTestError) as exc:
        print(f"{config.command}: error: {exc}", file=sys.stderr)
        return 2
    print(f"{config.command}: {'PASS' if passed else 'FAIL'} {summary} -> {out_path}")
    return 0 if passed else 1


def main(argv=None) -> None:
    config = parse_args(sys.argv[1:] if argv is None else argv)
    sys.exit(run(config))


if __name__ == "__main__":
    main()
