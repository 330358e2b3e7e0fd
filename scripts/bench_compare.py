#!/usr/bin/env python3
"""Alternating parent/change perfbench pairs, summarised into one BENCH file.

Run from anywhere, with two checkouts of the repository (for example a
`git clone` of the parent commit and the working tree of the change):

    python3 scripts/bench_compare.py --parent ../parent --change . \\
        --workload ddpm --workload perturb --seeds 2001 2002 2003 2004 2005 \\
        --slug ddpm_cold_start

For each workload and seed it runs `python3 perfbench/run.py --trace 0`
for BENCHMARK.json's `run_seconds` once in each checkout, alternating which
side goes first from pair to pair. Each run contributes the scaled
end-to-end metrics from run.py's last stdout line and, from the record
run.py leaves under .perfbench/results/, the unscaled `op_ms` and `setup_s`
and the `speed_factor` that scaled them.

It writes BENCH_<slug>.json in the change's checkout: every run, each side's
median and quartiles per metric, the change's win count, the machine and
both commits. It then prints each end-to-end metric's relative change
against the bound BENCHMARK.json gives it. It only computes: no gate, bound
or oracle of the benchmark is read from anywhere else or changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RAW_KEYS = ("op_ms", "setup_s", "speed_factor")
MACHINE_KEYS = ("nproc", "cpu_model", "platform", "python", "numpy", "scipy", "thread_env")
CODE_KEYS = ("git_sha", "source_sha256")


def quartiles(values: list) -> dict:
    """q1, median and q3 of `values`, by `statistics.quantiles`' inclusive
    method (one value is its own q1, median and q3)."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def wins(parent: list, change: list, better: str) -> int:
    """Pairs in which the change reads better than the parent; ties count
    for neither side."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change, strict=True))
    return sum(c > p for p, c in zip(parent, change, strict=True))


def worsening(parent_median: float, change_median: float, better: str) -> float:
    """Relative change of the median, signed so that a positive value means
    worse: (change - parent) / parent for a lower-is-better metric."""
    rel = (change_median - parent_median) / parent_median
    return rel if better == "lower" else -rel


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """'worse' beyond the bound; 'better' when the change wins at least nine
    tenths of the pairs and its median beats the parent's by more than the
    parent's interquartile range; otherwise 'unresolved' when that range,
    divided by the parent's median, exceeds the bound (the parent's own runs
    spread too widely to tell) unless every change run beats every parent
    run, and 'within bound' if not."""
    p, c = quartiles(parent), quartiles(change)
    if worsening(p["median"], c["median"], better) > bound:
        return "worse"
    gap = p["median"] - c["median"] if better == "lower" else c["median"] - p["median"]
    if 10 * wins(parent, change, better) >= 9 * len(parent) and gap > p["q3"] - p["q1"]:
        return "better"
    beats_every_run = (max(change) < min(parent) if better == "lower"
                       else min(change) > max(parent))
    if (p["q3"] - p["q1"]) / p["median"] > bound and not beats_every_run:
        return "unresolved"
    return "within bound"


def summarize(pairs: list, end_to_end: list) -> dict:
    """Per-metric summary of one workload's pairs. `pairs` holds
    {"parent": run, "change": run} with each run as written by `run_once`;
    `end_to_end` is BENCHMARK.json's list of metric entries."""
    out = {}
    for m in end_to_end:
        name, better = m["name"], m["better"]
        parent = [pair["parent"]["metrics"][name] for pair in pairs]
        change = [pair["change"]["metrics"][name] for pair in pairs]
        p, c = quartiles(parent), quartiles(change)
        out[name] = {
            "unit": m["unit"], "better": better, "bound": m["bound"],
            "parent": p, "change": c, "wins": wins(parent, change, better),
            "pairs": len(pairs),
            "relative_change": (c["median"] - p["median"]) / p["median"],
            "verdict": verdict(parent, change, better, m["bound"]),
        }
    for key in RAW_KEYS:
        parent = [pair["parent"]["raw"][key] for pair in pairs]
        change = [pair["change"]["raw"][key] for pair in pairs]
        out[f"raw.{key}"] = {"parent": quartiles(parent), "change": quartiles(change),
                             "median_ratio": statistics.median(
                                 c / p for p, c in zip(parent, change, strict=True))}
    return out


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in checkout `root`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (root / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
    prov = record["provenance"]
    return {
        "seed": seed, "correct": line["correct"], "attempted": line["attempted"],
        "failed": line["failed"],
        "metrics": {name: m["value"] for name, m in line["metrics"].items()},
        "raw": {key: record["raw"][key] for key in RAW_KEYS},
        "code": {key: prov[key] for key in CODE_KEYS},
        "machine": {key: prov[key] for key in MACHINE_KEYS},
    }


def one_value(runs: list, part: str, what: str) -> dict:
    """The `part` dict every run agrees on; a disagreement is an error."""
    values = {json.dumps(r[part], sort_keys=True) for r in runs}
    if len(values) != 1:
        raise RuntimeError(f"the runs disagree on {what}: {sorted(values)}")
    return runs[0][part]


def report(doc: dict) -> None:
    for workload, summary in doc["summary"].items():
        for name, s in summary.items():
            if name.startswith("raw."):
                print(f"{workload:10s} {name:18s} median {s['parent']['median']:10.4g} -> "
                      f"{s['change']['median']:10.4g}  ratio {s['median_ratio']:.3f}")
                continue
            print(f"{workload:10s} {name:18s} median {s['parent']['median']:10.4g} -> "
                  f"{s['change']['median']:10.4g} {s['unit']:4s} "
                  f"{100 * s['relative_change']:+7.1f} %  bound {100 * s['bound']:.0f} %  "
                  f"wins {s['wins']}/{s['pairs']}  {s['verdict']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="workload to run (repeat for several)")
    ap.add_argument("--seeds", type=int, nargs="+", required=True,
                    help="one pair of runs per seed")
    ap.add_argument("--slug", required=True, help="the file is named BENCH_<slug>.json")
    args = ap.parse_args()

    parent, change = args.parent.resolve(), args.change.resolve()
    benchmark = json.loads((change / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    pairs = {}
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    for workload in args.workload:
        pairs[workload] = []
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(parent if side == "parent" else change,
                                      workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: "
                      + ", ".join(f"{k} {v:.4g}" for k, v in pair[side]["metrics"].items()),
                      file=sys.stderr)
            pairs[workload].append(pair)
    runs = {side: [pair[side] for ps in pairs.values() for pair in ps]
            for side in ("parent", "change")}
    doc = {
        "benchmark": {"command": benchmark["command"], "seconds": seconds, "trace": 0,
                      "seeds": args.seeds, "order": "alternating, parent first on even pairs"},
        "started_utc": started,
        "machine": one_value(runs["parent"] + runs["change"], "machine", "the machine"),
        "code": {side: one_value(runs[side], "code", f"the {side}'s code")
                 for side in runs},
        "all_correct": all(r["correct"] and r["failed"] == 0 for rs in runs.values() for r in rs),
        "summary": {w: summarize(ps, benchmark["end_to_end"]) for w, ps in pairs.items()},
        "pairs": pairs,
    }
    path = change / f"BENCH_{args.slug}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    report(doc)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
