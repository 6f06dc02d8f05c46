"""The benchmark's workloads: the cases each one runs and the outcome each must give.

Every case calls one public entry point of ``ghz_selftest``. Most go through
``cli.parse_args`` + ``cli.run``, the way users run the tool, with reports
written to the run's work directory; the rest are library calls
(``probability_table``, ``success_from_table``, ``success_metric``,
``margin_grid``, ``avg_fidelity``). The package receives only inputs made from
the workload seed: strategy files, ``--seed`` values and angle points.

Expected outcomes were fixed against the package as it stood when the
benchmark was introduced: the CLI exit code (a deliberate FAIL verdict is an
expected outcome, not a failure) and key values at the tolerances of
``selftest.DEFAULT_TOLERANCES`` and the acceptance suite. Values are compared
with tolerances, never byte for byte, so an implementation whose results move
only in the last bits still passes. Values that depend on the seed are checked
against the small reference implementations below, which share no kernel code
with the package.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from functools import cache, reduce
from typing import Callable

import numpy as np

from ghz_selftest import cli, fixtures, robustness, scenario, states


SQRT2 = math.sqrt(2)

# tolerances of selftest.DEFAULT_TOLERANCES and the acceptance suite
METRIC_TOL = 1e-8
SOS_TOL = 1e-8
SPECTRUM_TOL = 1e-9
AGREE_TOL = 1e-10  # one quantity computed along two routes
GRID_FLOOR = 1e-8

# the CLI's pass threshold and the game's quantum optimum, per see-saw metric
SEESAW_TARGETS = {"ghz": 1 - 1e-6, "counterexample": 2.8283, "partial_bell": 1 - 1e-6}
SEESAW_OPTIMA = {"ghz": 1.0, "counterexample": 2 * SQRT2, "partial_bell": 1.0}

# Small cases (n <= 3) take milliseconds and large ones (n >= 5) seconds;
# repeats within a pass give both a steady share of the pass time.
CERTIFY_SMALL_REPEAT = 10
# The see-saw's iteration count varies from seed to seed: by 10% at n=5 and in
# a long tail for the counterexample game (455-475 iterations for most seeds,
# up to 730 for some), by 6% at n=3 and not at all at n=2 or for partial-Bell.
# The varying cases run more seeds, so one seed moves a pass less.
SEESAW_SEEDS_PER_CASE = {"ghz2": 2, "ghz3": 3, "ghz5": 6, "counterexample": 2, "partial_bell": 2}
ROBUSTNESS_LARGE_REPEAT = 2


@dataclass(frozen=True)
class Expect:
    """Expected outcome of one case; every field left empty is not checked."""

    exit_code: int | None = None
    close: dict = field(default_factory=dict)  # key -> (value, absolute tolerance)
    at_least: dict = field(default_factory=dict)
    at_most: dict = field(default_factory=dict)
    equal: dict = field(default_factory=dict)


def mismatches(expect: Expect, exit_code, values: dict) -> list:
    """Describe every way an outcome differs from its expectation."""
    out = []
    if expect.exit_code is not None and exit_code != expect.exit_code:
        out.append(f"exit code {exit_code}, expected {expect.exit_code}")
    for key, (want, tol) in expect.close.items():
        got = values.get(key)
        if not _is_number(got) or not abs(got - want) <= tol:
            out.append(f"{key}={got!r}, expected {want!r} within {tol:g}")
    for key, bound in expect.at_least.items():
        got = values.get(key)
        if not _is_number(got) or not got >= bound:
            out.append(f"{key}={got!r}, expected at least {bound!r}")
    for key, bound in expect.at_most.items():
        got = values.get(key)
        if not _is_number(got) or not got <= bound:
            out.append(f"{key}={got!r}, expected at most {bound!r}")
    for key, want in expect.equal.items():
        got = values.get(key)
        if got != want:
            out.append(f"{key}={got!r}, expected {want!r}")
    return out


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


@dataclass
class Case:
    """One call of a public entry point.

    ``call`` is the timed part. ``read`` turns its return value into
    ``(exit_code, values)`` for the oracle and is not timed. ``n`` sorts the
    case into ``small_n_s`` (n <= 3) or ``large_n_s`` (n >= 5).
    """

    label: str
    n: int
    call: Callable[[], object]
    read: Callable[[object], tuple]
    expect: Expect
    repeat: int = 1

    def check(self, raw) -> list:
        """Mismatches of one call's result; a result that cannot be read is one."""
        try:
            exit_code, values = self.read(raw)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"outcome unreadable: {exc!r}"]
        return mismatches(self.expect, exit_code, values)


# ---------------------------------------------------------------------------
# reference implementations (oracle only; never timed)
# ---------------------------------------------------------------------------


def reference_score(rho: np.ndarray, povm: np.ndarray) -> float:
    """GHZ-game score ``sum_s Tr(M_s W_s) / (2**n (n-1) 2 sqrt2)``, written out.

    ``rho[j, a, x]`` is sender j's message for bit a and input x, and
    ``povm[s]`` the element of outcome s (bit j of s belongs to sender j+1).
    """
    n = rho.shape[0]
    d = 2**n
    a = rho[:, 0] - rho[:, 1]
    terms = [reduce(np.kron, [a[0, 0] + a[0, 1]] + [a[j, 0] for j in range(1, n)])]
    for j in range(1, n):
        factors = [a[0, 0] - a[0, 1]] + [np.eye(2)] * (n - 1)
        factors[j] = a[j, 1]
        terms.append(reduce(np.kron, factors))
    total = 0.0
    for s in range(d):
        signs = [1 - 2 * ((s >> j) & 1) for j in range(n)]
        w = (n - 1) * signs[0] * terms[0]
        for j in range(1, n):
            w = w + signs[j] * terms[j]
        total += float(np.einsum("ij,ji->", povm[s], w).real)
    return total / (d * (n - 1) * 2 * SQRT2)


def _ghz_vector(s: int, n: int) -> np.ndarray:
    bits = [(s >> j) & 1 for j in range(n)]
    v = np.zeros(2**n, dtype=complex)
    v[sum(bits[j] << (n - 1 - j) for j in range(1, n))] = 1 / SQRT2
    v[(1 << (n - 1)) + sum((1 - bits[j]) << (n - 1 - j) for j in range(1, n))] = (
        (-1) ** bits[0] / SQRT2
    )
    return v


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _channel_axis(k: int, x: float) -> np.ndarray:
    if k == 0:
        return _X if x <= math.pi / 4 else _Z
    return (_X + _Z) / SQRT2 if x <= math.pi / 4 else (_X - _Z) / SQRT2


def reference_avg_fidelity(povm: np.ndarray, angles) -> float:
    """Mean GHZ fidelity of the locally channelled POVM, one qubit axis at a time."""
    d = povm.shape[0]
    n = d.bit_length() - 1
    total = 0.0
    for s in range(d):
        t = povm[s].reshape((2,) * (2 * n))
        for k, x in enumerate(angles):
            g = (1 + SQRT2) * (math.sin(x) + math.cos(x) - 1)
            gam = _channel_axis(k, x)
            conj = np.moveaxis(np.tensordot(gam, t, axes=(1, k)), 0, k)
            conj = np.moveaxis(np.tensordot(conj, gam, axes=(n + k, 0)), -1, n + k)
            t = (1 + g) / 2 * t + (1 - g) / 2 * conj
        xi = _ghz_vector(s, n)
        total += float((xi.conj() @ t.reshape(d, d) @ xi).real)
    return total / d


def _complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def strategy_file_arrays(path: str) -> tuple:
    """``(rho, povm)`` arrays read straight from a strategy file."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    rho = _complex([entry["rho"] for entry in data["senders"]])
    return rho, _complex(data["povm"])


def strategy_arrays(strategy) -> tuple:
    return np.stack([st.rho for st in strategy.senders]), strategy.povm.elements


# ---------------------------------------------------------------------------
# case constructors
# ---------------------------------------------------------------------------


def cli_case(label, n, args, report, expect, repeat=1, extra=None) -> Case:
    """A case that runs ``ghz-selftest ARGS --output REPORT`` in-process.

    ``values`` for the oracle are the report's ``results``; certify reports
    also give ``failed_checks``. ``extra(results)`` may add derived values.
    """
    argv = [*args, "--output", report]

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run(cli.parse_args(argv))

    def read(exit_code):
        with open(report, encoding="utf-8") as fh:
            values = dict(json.load(fh)["results"])
        if isinstance(values.get("checks"), dict):
            values["failed_checks"] = sorted(k for k, ok in values["checks"].items() if not ok)
        if extra is not None:
            values.update(extra(values))
        return exit_code, values

    return Case(label, n, call, read, expect, repeat)


def table_case(label, strategy, repeat=1) -> Case:
    """Score from the probability table against the operator score."""
    # references are computed on first use, outside every timed region
    ref = cache(lambda: reference_score(*strategy_arrays(strategy)))

    def call():
        return (scenario.success_from_table(scenario.probability_table(strategy)),
                scenario.success_metric(strategy))

    def read(raw):
        table, operator = raw
        return None, {"table_minus_operator": table - operator,
                      "operator_minus_reference": operator - ref()}

    expect = Expect(close={"table_minus_operator": (0.0, AGREE_TOL),
                           "operator_minus_reference": (0.0, AGREE_TOL)})
    return Case(label, strategy.n, call, read, expect, repeat)


def grid_case(label, n, slope, step, points, min_margin, repeat=1) -> Case:
    """``margin_grid`` for outcome 0 with ``r`` chosen for the given slope."""
    params = robustness.FidelityBoundParams(r=slope / ((n - 1) * 2 * SQRT2), mu=1 - slope, n=n)

    def call():
        return robustness.margin_grid(n, params, step=step, outcomes=[0])

    def read(res):
        return None, {"points": res.points, "passed": res.passed, "min_margin": res.min_margin}

    expect = Expect(equal={"points": points, "passed": True},
                    close={"min_margin": (min_margin, GRID_FLOOR)})
    return Case(label, n, call, read, expect, repeat)


def fidelity_case(label, n, noise, points, repeat=1) -> Case:
    """``avg_fidelity`` of a depolarized GHZ measurement at each angle point."""
    povm = fixtures.depolarized_strategy(n, noise).povm
    ref = cache(lambda: [reference_avg_fidelity(povm.elements, p) for p in points])

    def call():
        return [robustness.avg_fidelity(povm, p) for p in points]

    def read(got):
        return None, {"max_abs_diff": max(abs(g - r) for g, r in zip(got, ref()))}

    return Case(label, n, call, read, Expect(close={"max_abs_diff": (0.0, AGREE_TOL)}), repeat)


def _seeds(seed: int, count: int) -> list:
    """Independent case seeds derived from the workload seed."""
    return [int(v) for v in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def _certify_expect(exit_code, metric, failed_checks) -> Expect:
    return Expect(exit_code=exit_code, close={"metric_value": (metric, METRIC_TOL)},
                  equal={"failed_checks": failed_checks})


def build_certify(seed: int, workdir: str, write: bool) -> list:
    """Large dense operators, no search and no grid."""
    s3, s6, s_sos = _seeds(seed, 3)
    cases = []

    def report(tag):
        return os.path.join(workdir, f"report-{tag}.json")

    def repeat(n):
        return CERTIFY_SMALL_REPEAT if n <= 3 else 1

    for n in range(2, 8):
        cases.append(cli_case(f"certify ideal n={n}", n,
                              ["certify", "--fixture", "ideal", "--n", str(n)],
                              report(f"ideal{n}"), _certify_expect(0, 1.0, []), repeat(n)))
    fixed = {
        "literal": ([], 0, 1.0, []),
        "computational": ([], 1, 0.5, ["ghz_fidelity", "metric"]),
        "depolarized": (["--noise", "0.05"], 1, 0.95, ["ghz_fidelity", "metric"]),
    }
    for fixture, (extra_args, code, metric, failed) in fixed.items():
        for n in (3, 5):
            cases.append(cli_case(f"certify {fixture} n={n}", n,
                                  ["certify", "--fixture", fixture, *extra_args, "--n", str(n)],
                                  report(f"{fixture}{n}"), _certify_expect(code, metric, failed),
                                  repeat(n)))
    strategies = {3: states.random_antipodal_strategy(3, s3),
                  6: states.random_antipodal_strategy(6, s6)}
    for n, strategy in strategies.items():
        path = os.path.join(workdir, f"strategy-n{n}.json")
        if write:
            cli.save_strategy(strategy, path)
        ref = cache(lambda path=path: reference_score(*strategy_file_arrays(path)))
        # a random antipodal strategy is far from optimal: FAIL is expected
        expect = Expect(exit_code=1, close={"metric_minus_reference": (0.0, AGREE_TOL)})
        cases.append(cli_case(f"certify --input antipodal n={n}", n,
                              ["certify", "--input", path, "--n", str(n)], report(f"input{n}"),
                              expect, repeat(n),
                              extra=lambda v, ref=ref: {"metric_minus_reference":
                                                        v["metric_value"] - ref()}))
    cases.append(cli_case("sos n=5", 5,
                          ["sos", "--n", "5", "--samples", "4", "--seed", str(s_sos)],
                          report("sos"),
                          Expect(exit_code=0, equal={"samples": 4},
                                 at_most={"max_residual": SOS_TOL},
                                 at_least={"min_shifted_eigenvalue": -SPECTRUM_TOL})))
    cases.append(cli_case("spectrum n=7", 7, ["spectrum", "--n", "7"], report("spectrum"),
                          Expect(exit_code=0, at_most={"max_numeric_deviation": SPECTRUM_TOL},
                                 close={"min_top_gap": (2 * SQRT2, SPECTRUM_TOL),
                                        "top_value": (12 * SQRT2, SPECTRUM_TOL)})))
    for n, strategy in strategies.items():
        cases.append(table_case(f"probability table n={n}", strategy, repeat(n)))
    return cases


def build_seesaw(seed: int, workdir: str, write: bool) -> list:
    """See-saw searches: thousands of 2x2 and 4x4 solves in Python loops."""
    specs = [  # (key, metric, n, restarts, save)
        ("ghz2", "ghz", 2, 20, False),
        ("ghz3", "ghz", 3, 10, False),
        ("ghz5", "ghz", 5, 3, True),
        ("counterexample", "counterexample", 2, 50, False),
        ("partial_bell", "partial-bell", 2, 50, False),
    ]
    seeds = iter(_seeds(seed, sum(SEESAW_SEEDS_PER_CASE.values())))
    cases = []
    for key, metric, n, restarts, save in specs:
        game = metric.replace("-", "_")
        for i in range(SEESAW_SEEDS_PER_CASE[key]):
            case_seed = next(seeds)
            tag = f"{key}-{i}"
            args = ["seesaw", "--metric", metric, "--n", str(n), "--restarts", str(restarts),
                    "--seed", str(case_seed)]
            extra = None
            close = {}
            if save:
                path = os.path.join(workdir, f"best-{tag}.json")
                args += ["--save-strategy", path]

                def extra(v, path=path):
                    rho, povm = strategy_file_arrays(path)
                    return {"saved_minus_best": reference_score(rho, povm) - v["best_value"]}

                close = {"saved_minus_best": (0.0, AGREE_TOL)}
            expect = Expect(exit_code=0, close=close,
                            at_least={"best_value": SEESAW_TARGETS[game]},
                            at_most={"best_value": SEESAW_OPTIMA[game] + SPECTRUM_TOL})
            cases.append(cli_case(f"seesaw {metric} n={n} restarts={restarts} seed={case_seed}",
                                  n, args, os.path.join(workdir, f"report-{tag}.json"),
                                  expect, extra=extra))
    return cases


def build_robustness(seed: int, workdir: str, write: bool) -> list:
    """Many tiny eigensolves, one per angle point, plus channel application."""
    step = math.pi / 80
    points = np.random.default_rng(seed).uniform(0, math.pi / 2, size=(4, 6))
    return [
        cli_case("robustness-grid n=2", 2, ["robustness-grid", "--n", "2", "--step", repr(step)],
                 os.path.join(workdir, "report-grid2.json"),
                 Expect(exit_code=0, equal={"points": 41 * 41 * 4},
                        close={"min_margin": (0.0, GRID_FLOOR)})),
        grid_case("margin_grid n=3 slope 4", 3, 4.0, math.pi / 20, 11**3, 0.0),
        grid_case("margin_grid n=5 slope 8", 5, 8.0, math.pi / 4, 3**5, 0.0,
                  repeat=ROBUSTNESS_LARGE_REPEAT),
        fidelity_case("avg_fidelity n=6", 6, 0.05, [tuple(p) for p in points],
                      repeat=ROBUSTNESS_LARGE_REPEAT),
    ]


CASE_LISTS = {"certify": build_certify, "seesaw": build_seesaw, "robustness": build_robustness}


def schedule(cases: list) -> list:
    """The calls of one pass: every case ``repeat`` times, spread evenly.

    The machine's speed drifts within seconds, so repeats that ran back to
    back would time small cases in a few short windows; spread over the pass,
    small and large cases sample the same stretch of time. Cases that run
    once are spread over the rounds in list order.
    """
    rounds = max(c.repeat for c in cases)
    slots = [[] for _ in range(rounds)]
    for j, case in enumerate(cases):
        offset = j * rounds // len(cases)
        for k in range(case.repeat):
            slots[(k * rounds // case.repeat + offset) % rounds].append(case)
    return [case for slot in slots for case in slot]


def build(workload: str, seed: int, workdir: str, write: bool = True) -> list:
    """Generate one workload's inputs and return its cases in pass order.

    With ``write`` the input files are written to ``workdir``; without, the
    cases expect the files an earlier ``build`` with the same seed wrote there.
    """
    os.makedirs(workdir, exist_ok=True)
    return CASE_LISTS[workload](seed, workdir, write)
