"""Tests of the benchmark's own logic: span self times, the median and spread
helpers, the outcome oracle, and that tracing changes no result.

    python -m pytest perfbench -q
"""

import contextlib
import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gauge  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import spread  # noqa: E402
import workloads  # noqa: E402
from ghz_selftest import linalg, selftest  # noqa: E402


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    # outer [0, 10] holds middle [1, 7] and sibling [8, 9]; middle holds inner [2, 5]
    recorded = [
        (3, 2, "inner", 2.0, 5.0, None),
        (2, 1, "middle", 1.0, 7.0, None),
        (4, 1, "sibling", 8.0, 9.0, None),
        (1, 0, "outer", 0.0, 10.0, None),
    ]
    assert spans.self_times(recorded) == {1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0}


def test_wrappers_record_parents_and_info():
    tracer = spans.Tracer()
    inner = tracer.wrap("t.inner", lambda x: x + 1, None)
    outer = tracer.wrap("t.outer", lambda x: inner(x) * 2, lambda args, result: result)
    assert outer(1) == 4
    by_name = {s[2]: s for s in tracer.spans}
    assert by_name["t.outer"][1] == 0
    assert by_name["t.inner"][1] == by_name["t.outer"][0]
    assert by_name["t.outer"][5] == 4
    summary = spans.Summary(tracer, missing=())
    assert summary.calls("t.inner", "t.outer") == 2
    outer_span = by_name["t.outer"]
    inner_span = by_name["t.inner"]
    assert summary.self_s("t.outer") == pytest.approx(
        (outer_span[4] - outer_span[3]) - (inner_span[4] - inner_span[3]))


def test_install_reaches_every_module_that_imported_the_name():
    original = linalg.tensor
    tracer = spans.Tracer()
    inst = spans.install(tracer)
    try:
        assert not inst.missing
        assert linalg.tensor is not original
        assert selftest.tensor is linalg.tensor
        selftest.sos_residual(2, 0, selftest.a_operators(workloads.fixtures.ideal_strategy(2)))
    finally:
        spans.uninstall(inst)
    assert linalg.tensor is original and selftest.tensor is original
    names = {s[2] for s in tracer.spans}
    assert {"selftest.sos_residual", "linalg.tensor", "backends.kron_chain"} <= names


def test_missing_targets_are_reported_absent():
    targets = spans.TARGETS + (("no_such_module", "f", None), ("linalg", "no_such_function", None))
    inst = spans.install(spans.Tracer(), targets)
    spans.uninstall(inst)
    assert inst.missing == {"no_such_module.f", "linalg.no_such_function"}

    values = spans.layer_values(spans.Tracer(), {"parallel.ordered_map", "linalg.herm_eig"})
    assert values["parallel.tasks"] is None
    assert values["linalg.eig_calls.d2"] is None
    assert values["linalg.tensor_calls"] == 0
    assert values["robustness.grid_points"] == 0


# ---------------------------------------------------------------------------
# median and spread
# ---------------------------------------------------------------------------


def test_quartile_spread():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert (q1, q3) == (11.75, 17.25)
    assert spread.quartile_spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
    assert spread.quartile_spread([5.0]) == 0.0


def test_end_to_end_metrics_are_medians_over_passes():
    passes = [run.PassRecord(traced=False, total=t, small=t / 4, large=t / 2)
              for t in (4.0, 1.0, 2.0, 3.0)]
    metrics = run.end_to_end_metrics([0.3, 0.1, 0.2], passes)
    assert metrics["setup_s"] == (0.2, "s")
    assert metrics["pass_s"] == (2.5, "s")
    assert metrics["small_n_s"] == (0.625, "s")
    assert metrics["large_n_s"] == (1.25, "s")


def test_gauge_leaves_out_inner_samples_and_scales_by_those_around():
    ref = gauge.REF_S
    g = gauge.Gauge()
    g.starts = [0.0, 1.0, 2.0, 5.0, 6.0]
    g.samples = [ref, ref / 2, ref / 2, ref, ref / 4]
    # samples 1 and 2 ran inside [0.5, 2.5]; samples 0 and 3 are its neighbours
    scaled, wall = g.scaled(0.5, 2.5)
    assert wall == pytest.approx(2.0 - ref)
    assert scaled == pytest.approx(wall * (1 + 2 + 2 + 1) / 4)
    assert gauge.Gauge.speed([ref, ref]) == 1.0


class _DoublingGauge:
    """A gauge that reports every call at twice its wall time."""

    def sample(self):
        return gauge.REF_S

    @contextlib.contextmanager
    def ticking(self):
        yield

    def scaled(self, start, end):
        return 2 * (end - start), end - start


def test_run_pass_sorts_scaled_times_by_case_size(monkeypatch):
    ticks = iter([0.0, 1.0, 1.0, 3.0])  # call "a" takes 1 s, call "b" 2 s
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(ticks))
    cases = [workloads.Case(label, n, lambda: None, lambda raw: (None, {}), workloads.Expect())
             for label, n in (("a", 2), ("b", 5))]
    rec = run.run_pass(cases, _DoublingGauge())
    assert (rec.raw_total, rec.raw_small, rec.raw_large) == (3.0, 1.0, 2.0)
    assert (rec.total, rec.small, rec.large) == (6.0, 2.0, 4.0)
    assert rec.calls == 2 and rec.failures == []
    assert rec.case_times == {"a": [2.0], "b": [4.0]}


def test_gauge_ticks_inside_a_pass_and_stops_after_it():
    g = gauge.Gauge()
    with g.ticking():
        end = time.perf_counter() + 4 * gauge.INTERVAL_S
        while time.perf_counter() < end:
            pass
    ticked = len(g.samples)
    assert ticked >= 2
    time.sleep(2 * gauge.INTERVAL_S)
    assert len(g.samples) == ticked
    assert g.starts == sorted(g.starts)


def test_layer_metrics_keep_counts_whole_and_absent_values_null():
    def traced(calls, tasks):
        values = {name: calls for name, *_ in spans.PER_LAYER}
        values["parallel.tasks"] = tasks
        return run.PassRecord(traced=True, total=2.0, layers=values)

    plain = [run.PassRecord(traced=False, total=t) for t in (1.0, 2.0, 3.0)]
    metrics = run.layer_metrics([traced(7, None), traced(9, 5)], plain)
    assert metrics["linalg.tensor_calls"] == (7, "count")
    assert metrics["parallel.tasks"] == (None, "count")
    assert metrics["trace.overhead_ratio"] == (1.0, "ratio")


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_mismatches_flags_each_kind_of_expectation():
    expect = workloads.Expect(exit_code=0, close={"v": (1.0, 1e-8)}, at_least={"lo": 2.0},
                              at_most={"hi": 1.0}, equal={"k": ["a"]})
    good = {"v": 1.0 + 1e-9, "lo": 2.0, "hi": 1.0, "k": ["a"]}
    assert workloads.mismatches(expect, 0, good) == []
    assert len(workloads.mismatches(expect, 1, good)) == 1
    for key, bad in [("v", 1.0 + 1e-7), ("v", float("nan")), ("v", None), ("lo", 1.9),
                     ("hi", 1.1), ("k", ["b"])]:
        assert len(workloads.mismatches(expect, 0, {**good, key: bad})) == 1, key


@pytest.fixture(scope="module")
def small_certify_cases(tmp_path_factory):
    cases = workloads.build("certify", 7, str(tmp_path_factory.mktemp("certify")))
    return [c for c in cases if c.n <= 3]


def test_fixed_expectations_hold_and_a_perturbed_one_is_flagged(small_certify_cases):
    cases = small_certify_cases
    for case in cases:
        assert case.check(case.call()) == [], case.label
    case = next(c for c in cases if c.label == "certify computational n=3")
    raw = case.call()
    want, tol = case.expect.close["metric_value"]
    moved = dataclasses.replace(case.expect, close={"metric_value": (want + 10 * tol, tol)})
    assert len(dataclasses.replace(case, expect=moved).check(raw)) == 1
    passing = dataclasses.replace(case.expect, exit_code=0)
    assert len(dataclasses.replace(case, expect=passing).check(raw)) == 1


def test_schedule_spreads_repeats_and_keeps_every_call():
    def case(label, repeat):
        return workloads.Case(label, 2, None, None, workloads.Expect(), repeat)

    cases = [case("a", 4), case("b", 1), case("c", 2), case("d", 1)]
    calls = [c.label for c in workloads.schedule(cases)]
    assert sorted(calls) == ["a"] * 4 + ["b", "c", "c", "d"]
    assert calls == ["a", "c", "a", "b", "a", "c", "a", "d"]


def test_reference_score_matches_the_package():
    strategy = workloads.states.random_strategy(3, 11)
    assert workloads.reference_score(*workloads.strategy_arrays(strategy)) == pytest.approx(
        workloads.scenario.success_metric(strategy), abs=1e-12)


# ---------------------------------------------------------------------------
# tracing changes nothing
# ---------------------------------------------------------------------------


def _outcomes(cases, workdir: Path) -> tuple:
    results = []
    for case in cases:
        raw = case.call()
        results.append((case.label, case.check(raw), _comparable(raw)))
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if p.is_file()}
    return results, files


def _comparable(raw):
    return raw if isinstance(raw, (int, list, tuple)) else dataclasses.asdict(raw)


def test_traced_and_untraced_runs_give_identical_outcomes_and_bytes(tmp_path):
    certify = workloads.build("certify", 5, str(tmp_path))
    seesaw = workloads.build("seesaw", 5, str(tmp_path))
    robust = workloads.build("robustness", 5, str(tmp_path))
    first = {}
    for case in seesaw:
        first.setdefault(case.label.split(" restarts")[0], case)
    cases = ([c for c in certify if c.n <= 3]
             + [c for key, c in first.items() if "counterexample" not in key]
             + [c for c in robust if c.n >= 5])

    plain, plain_files = _outcomes(cases, tmp_path)
    tracer = spans.Tracer()
    inst = spans.install(tracer)
    try:
        traced, traced_files = _outcomes(cases, tmp_path)
    finally:
        spans.uninstall(inst)

    assert all(problems == [] for _label, problems, _raw in plain)
    assert traced == plain
    assert traced_files == plain_files
    values = spans.layer_values(tracer, inst.missing)
    assert values["selftest.certify_calls"] > 0
    assert values["optimize.restarts"] > 0
    assert values["robustness.grid_points"] == 3**5
    assert values["cli.strategy_bytes"] > 0


# ---------------------------------------------------------------------------
# the benchmark's contract
# ---------------------------------------------------------------------------


def test_benchmark_json_names_what_the_code_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.CASE_LISTS)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert per_layer == [(n, u, b) for n, u, b, _v in spans.PER_LAYER] + [spans.OVERHEAD]
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "pass_s", "small_n_s", "large_n_s", "peak_rss_mb"}


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
