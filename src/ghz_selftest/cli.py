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
``GHZ_SELFTEST_THREADS`` caps worker parallelism over the see-saw's blocks of
restarts (0 = one per CPU); results do not depend on it.
"""

import argparse
import gc
import json
import math
import sys
from dataclasses import dataclass, field
from functools import cache, lru_cache

import numpy as np

from . import __version__
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
from .optimize import SeesawConfig, seesaw
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
    counterexample_value,
    partial_witnesses,
    rac_bound,
    rac_metric,
)
from .selftest import (
    certify_strategy,
    classify_outcome_measurement,
    povm_traces,
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
# the commands whose checks read selftest's tolerance table
TOLERANCE_COMMANDS = ("certify", "spectrum", "sos")

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
    parts: list = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj, parts: list) -> None:
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
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and np.isfinite(obj).all():
        # + 0.0 normalizes -0.0 like the element path below
        parts.append(_float_template(obj.shape) % tuple((obj.ravel() + 0.0).tolist()))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(key)))
            parts.append(":")
            _emit(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        parts.append("[")
        for i, item in enumerate(list(obj)):
            if i:
                parts.append(",")
            _emit(item, parts)
        parts.append("]")
    else:
        raise InvalidInput(f"cannot serialize object of type {type(obj).__name__}")


@lru_cache(maxsize=32)
def _float_template(shape: tuple) -> str:
    """``%``-format template writing a float array of ``shape`` as nested lists."""
    if not shape:
        return "%.17g"
    return "[" + ",".join([_float_template(shape[1:])] * shape[0]) + "]"


def matrix_from_json(rows, field_name: str, d: int) -> np.ndarray:
    """The ``d x d`` complex matrix of a row-major list of ``[re, im]`` pairs;
    anything else is an InvalidInput naming ``field_name``."""
    try:
        pairs = np.asarray(rows)
    except ValueError as exc:  # ragged rows
        raise InvalidInput(f"malformed matrix in {field_name}: {exc}") from exc
    if pairs.dtype.kind not in "biuf" or pairs.shape != (d, d, 2):
        raise InvalidInput(f"{field_name} is not a {d}x{d} matrix of [re, im] number pairs")
    if not np.isfinite(pairs).all():
        raise InvalidInput(f"non-finite matrix entry in {field_name}")
    return pairs.astype(float).view(complex)[..., 0]


def strategy_to_dict(strategy: Strategy, arrays: bool = False) -> dict:
    """The strategy-file form: every matrix a row-major list of ``[re, im]``
    pairs. With ``arrays`` each stack of matrices stays a float ndarray of
    those pairs, which :func:`canonical_json` writes in bulk."""

    def pairs(m):
        out = np.stack([m.real, m.imag], axis=-1)
        return out if arrays else out.tolist()

    out = {
        "format": "ghz-selftest/strategy",
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
    once (:func:`certify_strategy` does so itself)."""
    try:
        n = data["n"]
        # checked before 2**n sizes the POVM: a bool, a float or a huge n is refused
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 2 <= n <= MAX_N:
            raise InvalidInput(f"strategy file field n is not an integer from 2 to {MAX_N}: {n!r}")
        n = int(n)
        task = data.get("task", "ghz")
        senders = []
        for j, entry in enumerate(data["senders"]):
            rho = np.zeros((2, 2, 2, 2), dtype=complex)
            for a in range(2):
                for x in range(2):
                    rho[a, x] = matrix_from_json(entry["rho"][a][x],
                                                 f"senders[{j}].rho[{a}][{x}]", 2)
            senders.append(SenderStates(rho))
        povm = Povm(np.stack([matrix_from_json(m, f"povm[{k}]", 2**n)
                              for k, m in enumerate(data["povm"])]))
        observables = None
        if "observables" in data:
            observables = np.stack([matrix_from_json(o, f"observables[{i}]", 2)
                                    for i, o in enumerate(data["observables"])])
    except InvalidInput:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed strategy file: {exc}") from exc
    return Strategy(n=n, senders=tuple(senders), povm=povm, task=task,
                    observables=observables)


def save_strategy(strategy: Strategy, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(strategy_to_dict(strategy, arrays=True)))


def load_strategy(path: str) -> Strategy:
    """The strategy of a strategy file. A file that is not UTF-8 text or
    nests too deeply to parse is an InvalidInput; the cyclic garbage
    collector is paused while the parse builds its lists, which hold no
    cycles, and left as the caller had it."""
    with open(path, "r", encoding="utf-8") as fh:
        collecting = gc.isenabled()
        gc.disable()
        try:
            data = json.load(fh)
        except UnicodeDecodeError as exc:
            raise InvalidInput(f"strategy file is not UTF-8 text: {exc}") from exc
        except RecursionError as exc:
            raise InvalidInput("strategy file nests too deeply to parse") from exc
        finally:
            if collecting:
                gc.enable()
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
    p.add_argument("--metric", choices=("ghz", "counterexample", "partial-bell"),
                   default="ghz")
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
    if ns.command == "seesaw" and ns.metric == "counterexample" and ns.save_strategy:
        parser.error("--save-strategy: three-input strategies have no strategy-file form")
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
    cfg = SeesawConfig(
        n=config.n,
        metric=metric,
        restarts=config.options["restarts"],
        max_iters=config.options["max_iters"],
        conv_tol=config.options["conv_tol"],
        seed=config.seed,
    )
    result = seesaw(cfg)
    targets = {"ghz": 1 - 1e-6, "counterexample": 2.8283, "partial_bell": 1 - 1e-6}
    passed = result.best_value >= targets[metric]
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
        "target": targets[metric],
    }
    if result.best_strategy.task == "counterexample":
        results["outcome_classification"] = classify_outcome_measurement(
            result.best_strategy.povm)
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
        strategy.validate()
        if strategy.task != "partial_bell":
            raise InvalidInput("strategy file does not carry a partial_bell task")
    elif config.options["noise"] != 0:
        # the fixture rejects noise outside [0, 1], NaN included
        strategy = depolarized_partial_bell(config.options["noise"])
    else:
        strategy = partial_bell_strategy()
    s_comm = comm_metric(strategy)
    mx, mz = strategy.observables
    s_rac = rac_metric(strategy.senders[0], mx, mz)
    ws = partial_witnesses(a_operators(strategy))
    term_values = [
        float(np.trace(strategy.povm.elements[i] @ ws[i]).real) for i in range(3)
    ]
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
        "povm_traces": povm_traces(strategy.povm.elements).tolist(),
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
