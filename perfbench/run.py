"""svcforge benchmark: one command, three closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {preprocess,perturb,ddpm} \\
        --seed N --seconds S --trace {0,1}

It generates the workload's inputs from the seed, then runs the workload
in fresh single-process children (BLAS threads pinned to 1, PYTHONPATH set
to the checkout's src/) and checks every output against an oracle.

--trace 0: end-to-end metrics. A set-up-only child and the measuring child
each give one set-up time; `setup_s` is their median. `op_ms` is the
median wall time of one timed operation, `peak_rss_mb` the measuring
child's peak resident set. Times are scaled to a reference machine speed
by a calibration loop timed in the same child (schema.CALIBRATION_REF_S).

--trace 1: per-layer metrics. The run time is split between an untraced
child and a traced child; the ratio of their scaled operation times is
the tracing overhead. End-to-end figures never come from a traced child.

The last line of stdout is one JSON object (correct, attempted, failed,
metrics). A record with the machine, the code, the inputs and every
figure is written under .perfbench/results/, and the spans of a traced
run next to it.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import schema  # noqa: E402

SETUP_ONLY_CHILDREN = 1
RUN_TIMEOUT_S = 170.0  # the whole run, children included
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SVCFORGE_") and k != "PYTHONPATH"}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(root: Path, env: dict, workload: str, inputs: Path, work: Path,
              result: Path, seconds: float, trace: int, setup_only: bool,
              deadline: float) -> dict:
    """Run one child to completion or kill it at `deadline` (monotonic)."""
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--inputs", str(inputs), "--work", str(work), "--result", str(result),
            "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _out, err = proc.communicate(timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} child still running after {RUN_TIMEOUT_S:.0f} s "
                         f"into the run; killed")
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{workload} child exited {proc.returncode}: {err.strip()[-2000:]}")
    doc = json.loads(result.read_text())
    doc["setup_s"] = doc["warm_end_monotonic"] - start
    return doc


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "svcforge").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(root: Path, seed: int, manifest: dict, env: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "thread_env": {k: env[k] for k in THREAD_ENV},
        "workload_seed": seed,
        "inputs": input_sizes(manifest),
    }


def input_sizes(manifest: dict) -> dict:
    w = manifest["workload"]
    if w == "preprocess":
        takes = [t for r in manifest["rounds"] for t in r["takes"]]
        return {"rounds": len(manifest["rounds"]), "takes": len(takes),
                "audio_seconds": manifest["audio_seconds"],
                "take_layout": [[t["id"], t["speaker"], round(t["seconds"], 3), t["rate"],
                                 t["bits"], t["channels"]] for t in manifest["rounds"][0]["takes"]]}
    if w == "perturb":
        return {"pairs": manifest["n_pairs"], "segment_seconds": manifest["segment_seconds"],
                "sample_rate": manifest["sample_rate"], "pair_seeds": manifest["pair_seeds"]}
    return {k: manifest[k] for k in ("dim", "ling_dim", "speaker_dim", "items", "frames",
                                     "contrastive_batch", "oracle_sigma0")}


def bench(root: Path, args) -> int:
    import gen

    deadline = time.monotonic() + RUN_TIMEOUT_S
    compileall.compile_dir(root / "src" / "svcforge", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    base = root / ".perfbench"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = base / "run" / f"{tag}-{os.getpid()}"
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    if scratch.exists():
        shutil.rmtree(scratch)
    inputs = scratch / "inputs"
    try:
        manifest = gen.generate(args.workload, args.seed, inputs)
        env = child_env(root)

        def child(name, seconds, trace, setup_only=False):
            return run_child(root, env, args.workload, inputs, scratch / f"work-{name}",
                             scratch / f"{name}.json", seconds, trace, setup_only, deadline)

        setups = [child(f"setup{i}", 0, 0, setup_only=True)
                  for i in range(SETUP_ONLY_CHILDREN)]
        if args.trace:
            plain = child("plain", args.seconds / 2, 0)
            traced = child("traced", args.seconds / 2, 1)
            shutil.copy(scratch / "traced.spans.jsonl.gz", results / f"{tag}.spans.jsonl.gz")
        else:
            plain = child("plain", args.seconds, 0)
            traced = None
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace,
                  "provenance": provenance(root, args.seed, manifest, env)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    out = summarize(setups, plain, traced)
    record.update(out)
    record.update({"operations": len(plain["unit_wall_s"]), "op_wall_s": plain["unit_wall_s"]})
    record["provenance"]["inputs"].update(plain["sizes"])
    if traced is not None:
        record.update({"traced_metrics": traced["metrics"], "spans": traced["spans"],
                       "traced_op_wall_s": traced["unit_wall_s"]})
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    report(record)
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def speed_factor(doc: dict) -> float:
    """Factor that converts a time measured in this child to the reference
    machine speed (see schema.CALIBRATION_REF_S)."""
    return schema.CALIBRATION_REF_S / statistics.median(doc["calibration_s"])


def summarize(setups: list, plain: dict, traced: dict | None) -> dict:
    """The result from the children's documents.

    With a traced child the metrics are the per-layer ones, otherwise the
    end-to-end ones; every time among them is scaled to the reference
    speed by its own child's calibration loop. Set-up time is the median
    over every untraced child. `raw` keeps the unscaled figures.
    """
    docs = setups + [plain] + ([traced] if traced is not None else [])
    checks = [c for d in docs for c in d["checks"]]
    failures = [f"{c['name']}: {c['detail']}" for c in checks if not c["ok"]]
    attempted, failed = len(checks), len(failures)
    raw = dict(plain["metrics"])
    raw["failed_frac"] = failed / attempted if attempted else 1.0
    raw["setup_s"] = statistics.median(d["setup_s"] for d in setups + [plain])
    raw["peak_rss_mb"] = plain["peak_rss_mb"]
    raw["speed_factor"] = speed_factor(plain)
    if traced is not None:
        f = speed_factor(traced)
        layers = {name: value * f if unit == "s" else value
                  for (name, unit) in schema.PER_LAYER
                  for value in [traced["layers"].get(name)] if value is not None}
        layers["cli.import_s"] = statistics.median(d["import_s"] * speed_factor(d) for d in docs)
        layers["trace.overhead_ratio"] = (traced["metrics"]["op_ms"] * f) \
            / (plain["metrics"]["op_ms"] * speed_factor(plain))
        layers["bench.failed_frac"] = raw["failed_frac"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in schema.PER_LAYER}
    else:
        scaled = {
            "setup_s": statistics.median(d["setup_s"] * speed_factor(d) for d in setups + [plain]),
            "peak_rss_mb": plain["peak_rss_mb"],
            "op_ms": plain["metrics"]["op_ms"] * speed_factor(plain),
        }
        metrics = {name: {"value": scaled[name], "unit": unit}
                   for name, unit, _better, _bound in schema.END_TO_END}
    correct = attempted > 0 and failed == 0 and all(
        isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        for m in metrics.values())
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "failures": failures[:10], "raw": raw, "metrics": metrics}


def report(record: dict) -> None:
    """Human-readable summary on stderr."""
    w = sys.stderr.write
    w(f"svcforge benchmark: {record['workload']} seed {record['seed']}, "
      f"{record['operations']} timed operations, {record['attempted']} checked, "
      f"{record['failed']} failed\n")
    raw = dict(record["raw"])
    if not record["trace"]:
        for name, m in record["metrics"].items():
            w(f"  {name:24s} {m['value']:.6g} {m['unit']}\n")
    w(f"  times are scaled to the reference speed by {raw.pop('speed_factor'):.4f}; "
      f"unscaled figures of the measuring child:\n")
    for name, value in sorted(raw.items()):
        w(f"    {name:22s} {value:.6g}\n")
    for line in record["failures"]:
        w(f"  FAILED {line}\n")
    if record["trace"]:
        m = record["metrics"]
        w(f"  tracing overhead: traced/untraced op time = "
          f"{m['trace.overhead_ratio']['value']:.3f} ({record['spans']} spans)\n")
        wall = statistics.median(record["traced_op_wall_s"])
        for name in ("audio.resample", "pitch.estimate_f0"):
            share = m[f"{name}.busy_share"]["value"]
            w(f"  {name} busy share: {share:.3f} of the traced operation's wall time "
              f"(median {wall:.3f} s unscaled, so about {share * wall:.3f} s of span time)\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(schema.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "svcforge" / "cli.py").is_file():
        print(f"no svcforge sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        return bench(root, args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
