"""Run the benchmark on several seeds per workload and report, for each
end-to-end metric, the quartile spread as a share of the median against a
third of the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --seeds 1-10 [--workloads single_run,...] [--out FILE]
        [--against EARLIER_OUT]

Each run is `<command> --workload W --seed S --seconds <run_seconds>
--trace 0` from the checkout root, as BENCHMARK.json gives them. The runs
and their summary are written as JSON to --out (default
.perfbench_out/spread.json). With --against, each median is also compared
with that of an earlier set, and a metric whose median got worse by more
than its bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import program
from stats import quartile_spread


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    bench = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", default=str(program.ROOT / ".perfbench_out" / "spread.json"))
    parser.add_argument("--against", help="an earlier --out file to compare medians with")
    args = parser.parse_args(argv)
    earlier = json.loads(open(args.against).read())["summary"] if args.against else {}

    seeds = parse_seeds(args.seeds)
    runs, summary, worst = [], {}, 0.0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            start = time.perf_counter()
            done = subprocess.run(cmd, cwd=program.ROOT, capture_output=True, text=True, timeout=180)
            wall = time.perf_counter() - start
            if done.returncode != 0:
                print(done.stdout, done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, "wall_s": wall, "result": result})
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(
                f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']}",
                flush=True,
            )
        for metric in bench["end_to_end"]:
            name, limit = metric["name"], metric["bound"] / 3
            key = f"{workload}/{name}"
            spread = quartile_spread(values[name])
            median = statistics.median(values[name])
            summary[key] = {"median": median, "spread": spread, "third_of_bound": limit}
            worst = max(worst, spread / limit)
            line = (
                f"  {name:12s} median {median:.6g} {metric['unit']:5s} spread {spread:.4f} "
                f"(< {limit:.4f}? {'ok' if spread < limit else 'WIDE'})"
            )
            if key in earlier:
                change = median / earlier[key]["median"] - 1
                worse = change if metric["better"] == "lower" else -change
                summary[key]["change"] = change
                line += f" change {change:+.4f} ({'WORSE' if worse > metric['bound'] else 'ok'})"
            print(line)
    out = {"seeds": seeds, "summary": summary, "runs": runs}
    program.ROOT.joinpath(".perfbench_out").mkdir(exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
    print(f"worst spread / third of bound: {worst:.3f}; wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
