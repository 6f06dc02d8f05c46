"""Run a workload once per seed and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload seesaw --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload seesaw --seeds 3 3 --trace 1

For every end-to-end metric it prints the median over the seeds and the
distance between the first and third quartile as a share of that median, next
to the bound in BENCHMARK.json. With ``--trace 1`` it instead checks that the
exact counts of ``EXACT_COUNTS`` agree between runs with the same seed.
Runs go one after another, each in its own process.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# per-layer counts that must be identical between runs with one seed
EXACT_COUNTS = ("optimize.iterations", "optimize.restart_hit_ratio",
                "robustness.grid_points", "robustness.margin_calls")


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median.

    Quartiles are those of ``statistics.quantiles(values, n=4)``; fewer than
    two values have no spread.
    """
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    values = {}
    counts = {}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                         if v["value"] is not None and bounds.get(k) is not None),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        if args.trace:
            exact = {k: result["metrics"][k]["value"] for k in EXACT_COUNTS}
            overhead = result["metrics"]["trace.overhead_ratio"]["value"]
            print(f"seed {seed}: {exact} trace.overhead_ratio={overhead:.4f}")
            counts.setdefault(seed, []).append(exact)

    for seed, runs in counts.items():
        if len(runs) > 1:
            same = all(r == runs[0] for r in runs)
            verdict = "repeat" if same else "DIFFER"
            print(f"seed {seed}: exact counts {verdict} over {len(runs)} runs")

    for name, vals in values.items():
        if bounds.get(name) is None or None in vals:
            continue
        spread = quartile_spread(vals)
        print(f"{name:14s} median={statistics.median(vals):.6g} spread={spread:.4f} "
              f"bound={bounds[name]} {'ok' if spread <= bounds[name] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
