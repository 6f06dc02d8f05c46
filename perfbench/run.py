"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload certify|seesaw|robustness --seed N \\
        --seconds S --trace 0|1

The package is imported from the ``src/`` directory next to this one, never
from an installed copy; without it the script exits with status 2 and prints
no result. Each workload is a closed loop with one caller, in one process and
one thread on one core: a pass runs the workload's fixed case list once, each
case after the previous one returned, and passes repeat until ``--seconds``
would be exceeded.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:
set-up time (median of fresh processes that import the package and write the
workload's inputs), pass time and its n <= 3 and n >= 5 parts (medians over
passes), and peak resident memory. Times are in reference seconds: wall time
scaled by the speed of the shared machine at that moment, as ``gauge``
measures it. ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics of ``spans.PER_LAYER`` (low medians over traced passes)
plus the tracing overhead.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``, where
``attempted`` counts case calls and ``failed`` those whose outcome differs from
the expected one. The line before it is the environment block. Details,
including per-case times and sample counts, go to
``.perfbench/result-<workload>-seed<seed>-trace<t>.json`` and, for a traced
run, the spans of the first traced pass to ``.perfbench/trace-...json``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from statistics import median, median_low

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("certify", "seesaw", "robustness")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 150


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one ghz-selftest benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # used by the set-up samples: write the inputs into DIR and exit
    parser.add_argument("--setup-into", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import ``ghz_selftest`` from this checkout's ``src/``, or return ``None``."""
    init = SRC / "ghz_selftest" / "__init__.py"
    if not init.is_file():
        return None
    sys.path.insert(0, str(SRC))
    import ghz_selftest

    if Path(ghz_selftest.__file__).resolve() != init.resolve():
        return None
    return ghz_selftest


# ---------------------------------------------------------------------------
# environment block
# ---------------------------------------------------------------------------


def _read(path: Path):
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_model():
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level")
        kind = _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"l{level}"] = _read(index / "size")
    return sizes


def _git_commit():
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit:
        return commit
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _blas() -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return {}
    return {kind: f"{deps[kind].get('name')} {deps[kind].get('version')}"
            for kind in ("blas", "lapack") if kind in deps}


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment(pkg) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        **_blas(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS") or k.startswith("GHZ_SELFTEST_")},
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "git_commit": _git_commit(),
        "backend": getattr(pkg, "BACKEND", None),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


@dataclass
class PassRecord:
    """Timings and oracle results of one pass over the case list.

    ``total``, ``small`` and ``large`` are in reference seconds (see
    ``gauge``); the ``raw_`` fields are the same sums in wall seconds.
    """

    traced: bool
    total: float = 0.0
    small: float = 0.0
    large: float = 0.0
    raw_total: float = 0.0
    raw_small: float = 0.0
    raw_large: float = 0.0
    calls: int = 0
    failures: list = field(default_factory=list)
    case_times: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)

    def add(self, case, ref: float, wall: float):
        """Count one call that took ``ref`` reference and ``wall`` wall seconds."""
        self.total += ref
        self.raw_total += wall
        if case.n <= 3:
            self.small += ref
            self.raw_small += wall
        elif case.n >= 5:
            self.large += ref
            self.raw_large += wall
        self.case_times.setdefault(case.label, []).append(ref)


def run_pass(calls, gauge, traced: bool = False) -> PassRecord:
    """Run one pass: each call after the previous one returned.

    The gauge samples the machine's speed all through the pass; each call's
    time is scaled by the samples inside and around it.
    """
    rec = PassRecord(traced=traced)
    timed = []
    gauge.sample()
    with gauge.ticking():
        for case in calls:
            start = time.perf_counter()
            try:
                raw = case.call()
                error = None
            except (Exception, SystemExit) as exc:  # an exception is a failed case
                raw, error = None, exc
            timed.append((case, start, time.perf_counter()))
            rec.calls += 1
            problems = [f"raised {error!r}"] if error else case.check(raw)
            if problems:
                rec.failures.append((case.label, problems))
    gauge.sample()
    for case, start, end in timed:
        rec.add(case, *gauge.scaled(start, end))
    return rec


def time_setup(args, inputs: Path, gauge) -> tuple:
    """Set-up time of fresh processes, in reference and in wall seconds.

    Each sample is the wall time from starting a fresh process to its inputs
    being written: the process imports the package, writes the inputs into
    ``inputs`` and prints the system-wide monotonic clock, so its exit is not
    timed. The process shares this one's core, so the gauge must not tick
    while it runs; a burst of gauge samples before and after each gives its
    scale.
    The last sample's files are the ones the timed passes read.
    """
    ref, wall = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-into", str(inputs)]
    before = gauge.burst()
    for _ in range(SETUP_SAMPLES):
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                              timeout=SETUP_TIMEOUT_S)
        elapsed = float(done.stdout.split()[-1]) - start
        after = gauge.burst()
        wall.append(elapsed)
        ref.append(elapsed * gauge.speed(before + after))
        before = after
    return ref, wall


def traced_pass(calls, gauge) -> tuple:
    import spans

    tracer = spans.Tracer()
    inst = spans.install(tracer)
    try:
        rec = run_pass(calls, gauge, traced=True)
    finally:
        spans.uninstall(inst)
    rec.layers = spans.layer_values(tracer, inst.missing)
    return rec, tracer


def end_to_end_metrics(setup, plain) -> dict:
    return {
        "setup_s": (median(setup), "s"),
        "pass_s": (median([r.total for r in plain]), "s"),
        "small_n_s": (median([r.small for r in plain]), "s"),
        "large_n_s": (median([r.large for r in plain]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(traced, plain) -> dict:
    import spans

    metrics = {}
    for name, unit, _better, _value in spans.PER_LAYER:
        values = [r.layers[name] for r in traced]
        # median_low keeps exact counts whole: it is always one of the values
        metrics[name] = (None if None in values else median_low(values), unit)
    ratio = median([r.total for r in traced]) / median([r.total for r in plain])
    metrics[spans.OVERHEAD[0]] = (ratio, spans.OVERHEAD[1])
    return metrics


def measure(args, pkg, workdir: Path) -> int:
    import workloads
    from gauge import Gauge

    gauge = Gauge()
    gauge.burst()  # warm-up: first-call costs of NumPy and LAPACK
    setup, setup_wall = time_setup(args, workdir / "inputs", gauge)
    calls = workloads.schedule(
        workloads.build(args.workload, args.seed, str(workdir / "inputs"), write=False))

    records = []
    first_tracer = None
    begin = time.perf_counter()
    while True:
        plain = sum(1 for r in records if not r.traced)
        start = time.perf_counter()
        if args.trace and len(records) - plain < plain:
            rec, tracer = traced_pass(calls, gauge)
            first_tracer = first_tracer or tracer
        else:
            rec = run_pass(calls, gauge)
        records.append(rec)
        wall = time.perf_counter() - start
        plain = sum(1 for r in records if not r.traced)
        enough = (plain >= 1 and len(records) > plain) if args.trace else plain >= MIN_PASSES
        if enough and time.perf_counter() - begin + wall > args.seconds:
            break

    plain = [r for r in records if not r.traced]
    traced = [r for r in records if r.traced]
    metrics = layer_metrics(traced, plain) if args.trace else end_to_end_metrics(setup, plain)

    attempted = sum(r.calls for r in records)
    failed = sum(len(r.failures) for r in records)
    for i, rec in enumerate(records):
        for label, problems in rec.failures:
            print(f"pass {i} ({'traced' if rec.traced else 'untraced'}): {label}: "
                  + "; ".join(problems), file=sys.stderr)

    env = environment(pkg)
    samples = {"setup_samples": len(setup), "untraced_passes": len(plain),
               "traced_passes": len(traced)}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "samples": samples,
        "setup_s": setup,
        "setup_wall_s": setup_wall,
        "gauge_samples": len(gauge.samples),
        "gauge_median_s": median(gauge.samples),
        "passes": [{"traced": r.traced, "pass_s": r.total, "small_n_s": r.small,
                    "large_n_s": r.large, "pass_wall_s": r.raw_total,
                    "small_n_wall_s": r.raw_small, "large_n_wall_s": r.raw_large,
                    "calls": r.calls, "failures": r.failures}
                   for r in records],
        "case_median_s": {label: median([t for r in plain for t in r.case_times[label]])
                          for label in plain[0].case_times},
        "metrics": {k: v for k, (v, _u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    if first_tracer is not None:
        with open(OUT / f"trace-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "spans": first_tracer.spans}, fh)

    print(json.dumps({"environment": env, **samples}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, set before numpy loads: on these matrices (d <= 128) a
    # second thread gives the same wall time for twice the CPU, and makes the
    # timings depend on the load of the other cores.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    # One core for the whole run, set-up processes included: the cores of a
    # shared host run at different speeds at the same moment, so the gauge
    # only follows the program's speed when both run on the same core.
    if not args.setup_into:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    pkg = import_package()
    if pkg is None:
        print(f"perfbench: no ghz_selftest sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_into:
        import workloads

        workloads.build(args.workload, args.seed, args.setup_into)
        print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
        return 0
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        return measure(args, pkg, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
