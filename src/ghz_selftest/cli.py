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

Randomness is counter-based (Philox keyed by ``--seed``), so results are
reproducible across runs and platforms. ``GHZ_SELFTEST_THREADS`` caps worker
parallelism over the see-saw's blocks of restarts (0 = one per CPU); results
do not depend on it.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

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
from .linalg import herm_eigvals
from .optimize import SeesawConfig, seesaw
from .robustness import (
    FidelityBoundParams,
    analytic_params,
    fidelity_lower_bound,
    margin_grid,
    parametrized_a_operators,
    partial_fidelity_bound,
)
from .scenario import (
    CounterexampleStrategy,
    a_operators,
    best_rac_observables,
    bloch_from_relabeled,
    comm_metric,
    counterexample_value,
    partial_witnesses,
    rac_bound,
    rac_metric,
    witness_operator,
)
from .selftest import (
    certify_strategy,
    classify_outcome_measurement,
    min_shifted_eigenvalue,
    resolve_tolerances,
    sos_passes,
    sos_residual,
    spectrum_closed_form,
    spectrum_deviation,
    witness_spectra,
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

COMMANDS = (
    "certify",
    "spectrum",
    "sos",
    "seesaw",
    "counterexample",
    "robustness-grid",
    "fidelity-bound",
    "partial-bell",
    "rac",
)

GHZ_FIXTURES = {
    "ideal": lambda n, noise: ideal_strategy(n),
    "literal": lambda n, noise: literal_ideal_strategy(n),
    "computational": lambda n, noise: computational_strategy(n),
    "depolarized": lambda n, noise: depolarized_strategy(n, noise),
}


@dataclass
class RunConfig:
    command: str
    n: int = 2
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
        try:
            n = int(data["n"])
        except (ValueError, OverflowError) as exc:
            raise InvalidInput(f"strategy file field n is not an integer: {exc}") from exc
        if n < 2:
            raise InvalidInput(f"need at least two senders, got n={n}")
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
    with open(path, "r", encoding="utf-8") as fh:
        return strategy_from_dict(json.load(fh))


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

    def common(p, default_n=2):
        p.add_argument("--seed", type=int, default=0, help="master random seed")
        p.add_argument("--n", type=int, default=default_n, help="number of senders")
        p.add_argument("--output", "-o", help="report path (default report-<command>.json)")

    p = sub.add_parser("certify", help="run all certification checks on a strategy")
    common(p)
    p.add_argument("--input", help="strategy JSON file")
    p.add_argument("--fixture", choices=sorted(GHZ_FIXTURES), default="ideal",
                   help="built-in strategy when no --input is given")
    p.add_argument("--noise", type=float, default=0.0,
                   help="noise level for the depolarized fixture")

    p = sub.add_parser("spectrum", help="certify's witness-spectrum check on the reference frame")
    common(p)
    p.add_argument("--s", default="all", help="outcome word (sign bit first) or 'all'")

    p = sub.add_parser("sos", help="certify's sum-of-squares check on random antipodal strategies")
    common(p)
    p.add_argument("--samples", type=int, default=50)

    p = sub.add_parser("seesaw", help="alternating optimization of a game score")
    common(p)
    p.add_argument("--metric", choices=("ghz", "counterexample", "partial-bell"),
                   default="ghz")
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--conv-tol", type=float, default=1e-10)
    p.add_argument("--history-csv", help="write per-restart score history CSV")
    p.add_argument("--save-strategy", help="write the best strategy as JSON")

    p = sub.add_parser("counterexample",
                       help="evaluate the three-input game reference parameters")
    common(p)

    p = sub.add_parser("robustness-grid",
                       help="sweep the operator-inequality margin over angles")
    common(p)
    p.add_argument("--step", type=float, default=float(np.pi / 80))
    p.add_argument("--r", type=float, help="inequality coefficient r")
    p.add_argument("--mu", type=float, help="inequality coefficient mu")
    p.add_argument("--csv", help="write per-point margins to CSV")
    p.add_argument("--no-refine", action="store_true")

    p = sub.add_parser("fidelity-bound", help="score deficit -> fidelity floor")
    common(p)
    p.add_argument("--eps", type=float, required=True, help="score deficit 1 - S")
    p.add_argument("--r", type=float)
    p.add_argument("--mu", type=float)

    p = sub.add_parser("partial-bell", help="evaluate the three-outcome Bell game")
    common(p)
    p.add_argument("--input", help="strategy JSON file (partial_bell task)")
    p.add_argument("--noise", type=float, default=0.0,
                   help="depolarize the built-in optimal measurement")

    p = sub.add_parser("rac", help="random-access-code score and its upper bound")
    common(p)
    p.add_argument("--alpha", type=float,
                   help="message angle in radians (default: reference states)")
    return parser


def parse_args(argv) -> RunConfig:
    """Parse and validate; raises SystemExit(2) on usage errors."""
    parser = build_parser()
    try:
        tolerances, rest = _extract_tolerances(argv)
        resolve_tolerances(tolerances)
    except InvalidInput as exc:
        parser.error(str(exc))
    ns = parser.parse_args(rest)
    if ns.n < 2:
        parser.error("--n must be at least 2")
    if ns.n > 7:
        parser.error(f"--n {ns.n} unsupported for {ns.command} (n <= 7)")
    if ns.command in ("counterexample", "partial-bell", "rac") and ns.n != 2:
        parser.error(f"{ns.command} is a two-sender scenario")
    if ns.command == "seesaw" and ns.metric in ("counterexample", "partial-bell") and ns.n != 2:
        parser.error(f"--metric {ns.metric} requires --n 2")
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
        # the report's config records the file's n, not the --n default
        config.n = strategy.n
    else:
        maker = GHZ_FIXTURES[config.options["fixture"]]
        strategy = maker(config.n, config.options["noise"])
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
    if want == "all":
        outcomes = range(2**n)
        spectra = witness_spectra(ops)
    else:
        outcomes = [outcome_index(want, n)]
        spectra = herm_eigvals(witness_operator(n, outcomes[0], ops)[None])
    max_dev = spectrum_deviation(n, spectra)
    # sorted, the closed form is one row for every outcome
    top = np.sort(spectrum_closed_form(n, 0))
    gap = float(top[-1] - top[-2])
    results = {
        "eigenvalues_by_outcome": {outcome_label(m, n): spectrum_closed_form(n, m)
                                   for m in outcomes},
        "max_numeric_deviation": max_dev,
        "min_top_gap": gap,
        "top_value": float(2 * np.sqrt(2) * (n - 1)),
    }
    passed = max_dev <= resolve_tolerances(config.tolerances)["spectrum"]
    return results, passed, f"max_deviation={max_dev:.3e} top_gap={gap:.6f}"


def _cmd_sos(config: RunConfig) -> tuple:
    n = config.n
    samples = config.options["samples"]
    if samples < 1:
        raise InvalidInput(f"--samples must be at least 1, got {samples}")
    worst = 0.0
    worst_shift = float("inf")
    for k in range(samples):
        ops = a_operators(random_antipodal_strategy(n, config.seed + k))
        worst = max(worst, sos_residual(n, 0, ops))
        worst_shift = min(worst_shift, min_shifted_eigenvalue(n, witness_spectra(ops)))
    passed = sos_passes(worst, worst_shift, resolve_tolerances(config.tolerances))
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
    if isinstance(result.best_strategy, CounterexampleStrategy):
        flags = classify_outcome_measurement(
            Povm(np.stack([result.best_strategy.m0,
                           np.eye(4) - result.best_strategy.m0]))
        )
        results["outcome_classification"] = flags
    return results, passed, f"metric={metric} best={result.best_value:.10f}"


def _cmd_counterexample(config: RunConfig) -> tuple:
    results = {}
    expected_flags = {"entangling": True, "separable": False}
    passed = True
    for name, fixture in (("entangling", entangling_fixture()),
                          ("separable", separable_fixture())):
        value = counterexample_value(fixture)
        povm = Povm(np.stack([fixture.m0, np.eye(4) - fixture.m0]))
        flags = classify_outcome_measurement(povm)
        any_entangled = any(f["entangled"] for f in flags)
        passed = passed and (any_entangled == expected_flags[name])
        results[name] = {
            "metric": value,
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
            refine=not config.options["no_refine"],
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
    rac_capped = min(s_rac, (1 + 1 / np.sqrt(2)) / 2)
    bound = partial_fidelity_bound(eps, rac_capped)
    # the bound linearizes a trace term around the optimal message angle;
    # the RAC score caps the angle deviation, which in turn sizes the
    # truncation error the linearization tolerates (reported, not enforced)
    angle_dev = float(np.arccos(np.clip(2 * np.sqrt(2) * (rac_capped - 0.5), -1.0, 1.0)))
    results = {
        "comm_metric": s_comm,
        "rac_metric": s_rac,
        "witness_traces": term_values,
        "povm_traces": [float(np.trace(m).real) for m in strategy.povm.elements],
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
