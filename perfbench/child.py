"""One benchmark child: a fresh interpreter that runs a single workload.

Started by run.py with BLAS threads pinned to 1 and PYTHONPATH set to the
checkout's src/. It times `import svcforge.cli` (the user entry point),
sets the workload up, runs its first operation as a warm-up and records
the monotonic time at which that ended; with --setup-only it stops there.
Otherwise it runs timed operations for --seconds, runs the end-of-run
checks and writes one JSON result file. With --trace it records spans
around every public function of the package and adds per-layer figures.
"""

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from math import gcd
from pathlib import Path

_T0 = time.perf_counter()
import svcforge.cli  # noqa: E402  (timed: the user entry point)

IMPORT_S = time.perf_counter() - _T0

import numpy as np  # noqa: E402

import schema  # noqa: E402
import spans  # noqa: E402


CALIBRATION_AFTER_WARM_UP = 5
CALIBRATE_EVERY_S = 0.5


def _resample_counts(args, kwargs, result):
    clip = args[0] if args else kwargs["clip"]
    target = int(args[1] if len(args) > 1 else kwargs["target_rate"])
    g = gcd(clip.sample_rate, target)
    return {"audio.resample.updown_max_sum": max(target // g, clip.sample_rate // g)}


def _f0_counts(args, kwargs, result):
    return {"pitch.estimate_f0.frames": result.vuv.size,
            "pitch.estimate_f0.voiced": int(result.vuv.sum())}


def _write_counts(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"svcf.write_tensor.bytes": Path(path).stat().st_size}


HOOKS = {
    "audio.resample": _resample_counts,
    "pitch.estimate_f0": _f0_counts,
    "svcf.write_tensor": _write_counts,
}


def install_tracer():
    tracer = spans.Tracer()
    modules = {layer: importlib.import_module(f"svcforge.{layer}") for layer in schema.LAYERS}
    # cli's own functions are the entry point; the benchmark's span around
    # each invocation stands for them.
    tracer.instrument(modules, HOOKS, skip=("cli.main", "cli.build_parser"))
    return tracer


def layer_metrics(tracer, unit_wall) -> dict:
    """Per-layer medians over the timed units; `unit_wall` maps each
    unit's op id to its wall seconds."""
    per_op = spans.aggregate(tracer.spans, tracer.counts)
    for op, row in per_op.items():
        calls = row.get("audio.resample.calls", 0)
        if calls:
            row["audio.resample.updown_max_mean"] = row["audio.resample.updown_max_sum"] / calls
        frames = row.get("pitch.estimate_f0.frames", 0)
        if frames:
            row["pitch.estimate_f0.voiced_frac"] = row["pitch.estimate_f0.voiced"] / frames
        wall = unit_wall.get(op)
        if wall:
            row["audio.resample.busy_share"] = row.get("audio.resample.busy_s", 0.0) / wall
            row["pitch.estimate_f0.busy_share"] = row.get("pitch.estimate_f0.busy_s", 0.0) / wall
    names = [n for n, _ in schema.PER_LAYER if n not in schema.RUN_LEVEL_LAYER_METRICS]
    return spans.median_over_ops(per_op, list(unit_wall), names)


_CALIBRATION_FRAMES = np.random.default_rng(0).standard_normal((64, 4096))


def calibration_loop() -> float:
    """Geometric mean of the seconds taken by a fixed pure-Python loop and
    by a fixed batch of numpy FFTs, neither of which touches the package;
    see schema.CALIBRATION_REF_S for how it is used. The interpreter-bound
    and the numeric part track the host's slow phases in different
    proportions, and the workloads mix both."""
    start = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    mid = time.perf_counter()
    np.fft.rfft(_CALIBRATION_FRAMES, axis=1)
    end = time.perf_counter()
    return math.sqrt((mid - start) * (end - mid))


def timed_loop(wl, seconds: float, calibration: list) -> None:
    """Closed loop: run the workload's timed units for about `seconds`.

    After each unit the calibration loop runs once per CALIBRATE_EVERY_S
    of that unit's wall time (at least once), so every workload samples
    the host's speed about equally often. A unit starts only while more
    than half a typical (median) unit's time is left, so a run ends within
    half a unit of its length on average; at least `wl.MIN_UNITS` run.
    """
    end = time.perf_counter() + seconds
    i = 0
    while i < wl.MIN_UNITS or \
            end - time.perf_counter() > 0.5 * statistics.median(wl.unit_walls()):
        wl.run_unit(i)
        n = max(1, round(wl.unit_walls()[-1] / CALIBRATE_EVERY_S))
        calibration.extend(calibration_loop() for _ in range(n))
        i += 1


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(schema.WORKLOADS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = Path(svcforge.cli.__file__).resolve().parent
    expected = (Path.cwd() / "src" / "svcforge").resolve()
    if src != expected:
        print(f"svcforge imported from {src}, expected {expected}", file=sys.stderr)
        return 2

    tracer = install_tracer() if args.trace else None
    import workloads  # after tracing is installed, so its imports bind wrappers

    inputs = Path(args.inputs)
    manifest = json.loads((inputs / "manifest.json").read_text())
    work = Path(args.work)
    if args.workload == "preprocess":
        wl = workloads.Preprocess(manifest, work, tracer)
    elif args.workload == "perturb":
        wl = workloads.Perturb(manifest, tracer)
    else:
        wl = workloads.Ddpm(manifest, inputs, tracer)
    wl.warm_up()
    warm_end = time.monotonic()
    calibration = [calibration_loop() for _ in range(CALIBRATION_AFTER_WARM_UP)]
    result = {"import_s": IMPORT_S, "warm_end_monotonic": warm_end,
              "calibration_s": calibration}

    if not args.setup_only:
        timed_loop(wl, args.seconds, calibration)
        wl.finish()
        result["metrics"] = wl.metrics()
        result["unit_wall_s"] = wl.unit_walls()
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, dict(enumerate(wl.unit_walls(), 1)))
            result["spans"] = len(tracer.spans)
            tracer.write_jsonl(Path(args.result).with_suffix(".spans.jsonl.gz"))
    else:
        wl.cleanup()

    result["sizes"] = wl.sizes()
    result["checks"] = [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in wl.checks]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
