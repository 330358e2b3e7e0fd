"""The three workloads, run inside one benchmark child process.

Each workload is a closed loop with one client: an operation starts only
when the previous one has finished. `warm_up()` runs the first operation,
`run_op()` the timed ones. Every outcome the benchmark can check is
recorded as a `Check`; a failed check or an exception counts as a failed
operation.

- preprocess: the conversion front end through `svcforge.cli.main`. One
  operation is one round (80 s of audio through segment, f0-stats, extract,
  convert-pitch and eval); the timed loop runs whole passes over the three
  rounds so that every round weighs the same.
- perturb: `perturb.random_perturb_pair` over a fixed list of 4 s segments.
  One operation is one pass over the whole list.
- ddpm: `diffusion.train_toy`, `finetune_cln`, a guided `sample` and an
  oracle `sample`. One operation is that sequence.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from svcforge import cli
from svcforge.audio import AudioClip
from svcforge.contrastive import FeaturePairBatch
from svcforge.diffusion import (
    CLN_PARAM_NAMES,
    ConditionSet,
    ToyDenoiser,
    TrainConfig,
    analytic_gaussian_denoiser,
    finetune_cln,
    linear_schedule,
    sample,
    train_toy,
)
from svcforge.perturb import PerturbConfig, random_perturb_pair

# Oracle thresholds against the generator's ground truth, calibrated at
# the commit that introduced the benchmark on 25 seeds (300 takes). The
# tracker locks onto the first formant on some low notes, so per-take F0
# RMSE has a heavy tail (median 3.5 cents, worst 730): the per-take bound
# only catches a tracker broken on most of a take, and the median over all
# takes of a run (worst 4.4 cents) is held tight instead. Worst VUV error
# rate was 0.037; worst f0-stats mean log-F0 error 18 cents.
F0_RMSE_MAX_CENTS = 2500.0
F0_RMSE_MEDIAN_MAX_CENTS = 15.0
VUV_ERROR_MAX = 0.08
STATS_MEAN_TOL_CENTS = 40.0
CROSS_DOMAIN_CENTS = 600.0

DDPM_HIDDEN = 32
DDPM_TRAIN_STEPS = 300
DDPM_TRAIN_LR = 3e-3
DDPM_FINETUNE_ITERS = 1000
DDPM_SAMPLE_BATCH = (256, 8)
DDPM_ORACLE_BATCH = (4096, 8)
DDPM_GUIDANCE = 2.0
MOMENT_SIGMAS = 5.0


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


class Workload:
    """Common loop bookkeeping; subclasses implement `_op(k)`.

    The timed unit is one operation, except for preprocess (one pass).
    """

    MIN_UNITS = 3  # timed units per run, at least

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.checks = []
        self.op_times = []  # timed operations: dicts with at least "wall_s"

    def _check(self, name, ok, detail=""):
        self.checks.append(Check(name, bool(ok), detail))

    def _guarded(self, name, fn, *args):
        """Run one checked step; an exception is a failed check."""
        try:
            return fn(*args)
        except Exception as exc:  # a failing program is a measured outcome
            self._check(name, False, f"{type(exc).__name__}: {exc}")
            return None

    def _set_op(self, k):
        if self.tracer is not None:
            self.tracer.op_id = k

    def warm_up(self):
        self._set_op(0)
        self._guarded("operation", self._op, 0)

    def run_op(self, k, trace_op=None):
        """Timed operation k; spans are tagged `trace_op` (default k)."""
        self._set_op(k if trace_op is None else trace_op)
        start = time.perf_counter()
        info = self._guarded("operation", self._op, k) or {}
        info["wall_s"] = time.perf_counter() - start
        self.op_times.append(info)

    def run_unit(self, i):
        """Timed unit i (0-based)."""
        self.run_op(i + 1)

    def unit_walls(self) -> list:
        """Wall seconds of each completed timed unit."""
        return [o["wall_s"] for o in self.op_times]

    def finish(self):
        """Checks that need the whole run; called after the timed loop."""
        self.cleanup()

    def cleanup(self):
        """Remove what the workload wrote."""

    def metrics(self) -> dict:
        """Workload-specific figures over the timed operations."""
        return {}

    def sizes(self) -> dict:
        """Problem sizes the operations used, for the run's record."""
        return {}


# -- preprocess -------------------------------------------------------------

def quantize_100(cents: float) -> float:
    """Nearest multiple of 100 cents, ties away from zero."""
    return math.copysign(math.floor(abs(cents) / 100.0 + 0.5) * 100.0, cents)


class Preprocess(Workload):
    MIN_UNITS = 2

    def __init__(self, manifest, work_dir: Path, tracer=None):
        super().__init__(tracer)
        self.rounds = manifest["rounds"]
        self.out = work_dir
        self.out.mkdir(parents=True, exist_ok=True)
        self.round_seconds = [sum(t["seconds"] for t in r["takes"]) for r in self.rounds]
        self.frames = {}  # take -> frame count of its ground-truth track
        for rnd in self.rounds:
            for take in rnd["takes"]:
                with open(take["truth"], "rb") as fh:
                    head = fh.read(16)  # magic, version, ndim, first dim
                self.frames[take["wav"]] = int.from_bytes(head[12:16], "little")
        self.rmse = []

    def _cli(self, sub, argv):
        """One in-process CLI call; returns its JSON summary or None."""
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{sub}") if self.tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        lines = out.getvalue().splitlines()
        if rc != 0 or len(lines) != 1:
            self._check(sub, False, f"exit {rc}, {len(lines)} stdout lines: "
                                    f"{err.getvalue().strip()[:200]}")
            return None
        try:
            doc = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            self._check(sub, False, f"stdout is not JSON: {exc}")
            return None
        if not isinstance(doc, dict):
            self._check(sub, False, "stdout is not a JSON object")
            return None
        return doc

    def _op(self, k):
        r = k % len(self.rounds)
        rnd = self.rounds[r]
        d = self.out / f"r{r}"
        d.mkdir(exist_ok=True)
        src = [t for t in rnd["takes"] if t["speaker"] == "src"]
        tgt = [t for t in rnd["takes"] if t["speaker"] == "tgt"]

        for take in rnd["takes"]:
            doc = self._cli("segment", ["segment", "--mode", "vad", "--in", take["wav"],
                                        "--out", str(d / f"{take['id']}.segments.json")])
            if doc is not None:
                ok = doc.get("n_segments", 0) >= 1 and all(
                    0 <= s["start_sec"] < s["end_sec"] <= take["seconds"] + 1e-6
                    for s in doc["segments"])
                self._check("segment", ok, f"{take['wav']}: {doc.get('n_segments')} segments")

        stats_y = str(d / "tgt.stats.json")
        argv = ["f0-stats", "--speaker-id", "tgt", "--out", stats_y]
        for take in tgt:
            argv += ["--in", take["wav"]]
        doc = self._cli("f0-stats", argv)
        if doc is not None:
            err = (doc["mean_log_f0"] - rnd["tgt_truth_mean_log_f0"]) * 1200 / math.log(2)
            self._check("f0-stats", abs(err) <= STATS_MEAN_TOL_CENTS,
                        f"mean log-F0 off truth by {err:.1f} cents")

        for i in range(0, len(src), 2):
            batch = src[i:i + 2]
            argv = ["extract", "--out-dir", str(d), "--jobs", "2"]
            for take in batch:
                argv += ["--in", take["wav"]]
            doc = self._cli("extract", argv)
            if doc is not None:
                got = [f["frames"] for f in doc["files"]]
                want = [self.frames[t["wav"]] for t in batch]
                self._check("extract", got == want, f"frames {got}, want {want}")

        with open(rnd["src_stats"]) as fh:
            mean_x = json.load(fh)["mean_log_f0"]
        for take in src:
            f0_path = str(d / (Path(take["wav"]).stem + ".f0.svcf"))
            doc = self._cli("convert-pitch", [
                "convert-pitch", "--in", f0_path, "--out", str(d / f"{take['id']}.conv.svcf"),
                "--source-stats", rnd["src_stats"], "--target-stats", stats_y,
                "--policy", "cross-domain"])
            if doc is not None:
                with open(stats_y) as fh:
                    mean_y = json.load(fh)["mean_log_f0"]
                want = quantize_100((mean_y - mean_x) * 1200 / math.log(2)) + CROSS_DOMAIN_CENTS
                got = doc["median_shift_cents"]
                self._check("convert-pitch", got is not None and abs(got - want) <= 1e-6,
                            f"median shift {got}, want {want}")
            doc = self._cli("eval-f0", ["eval", "f0", "--a", f0_path, "--b", take["truth"]])
            if doc is not None:
                rmse, vuv = doc["rmse_cents"], doc["vuv_error_rate"]
                ok = rmse is not None and rmse <= F0_RMSE_MAX_CENTS and vuv <= VUV_ERROR_MAX
                if rmse is not None:
                    self.rmse.append(rmse)
                self._check("eval-f0", ok, f"rmse {rmse} cents, vuv error {vuv}")
        return {"round": r}

    def run_unit(self, p):
        """Pass p: all rounds once, as operations p*R+1 ... p*R+R; their
        spans are tagged with pass number p+1."""
        for r in range(len(self.rounds)):
            self.run_op(p * len(self.rounds) + r + 1, trace_op=p + 1)

    def finish(self):
        med = statistics.median(self.rmse) if self.rmse else None
        self._check("eval-f0-median", med is not None and med <= F0_RMSE_MEDIAN_MAX_CENTS,
                    f"median RMSE over {len(self.rmse)} takes: {med} cents")
        self.cleanup()

    def cleanup(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def unit_walls(self):
        n = len(self.rounds)
        return [sum(o["wall_s"] for o in self.op_times[i * n:(i + 1) * n])
                for i in range(len(self.op_times) // n)]

    def metrics(self):
        walls = self.unit_walls()
        return {
            "op_ms": statistics.median(walls) * 1e3,
            "preprocess_rtf": statistics.median(walls) / sum(self.round_seconds),
        }


# -- perturb ----------------------------------------------------------------

class Perturb(Workload):
    def __init__(self, manifest, tracer=None):
        super().__init__(tracer)
        segs = np.load(manifest["segments"])
        rate = manifest["sample_rate"]
        self.clips = [AudioClip(s, rate) for s in segs]
        self.seeds = manifest["pair_seeds"]
        self.reference = None  # digest of pair 0 from the warm-up pass

    @staticmethod
    def _digest(pair) -> str:
        h = hashlib.sha256()
        for clip in pair:
            h.update(np.ascontiguousarray(clip.samples).tobytes())
        return h.hexdigest()

    def _pair(self, i):
        clip = self.clips[i]
        pair = random_perturb_pair(clip, PerturbConfig(seed=self.seeds[i]))
        ok = all(out.samples.size == clip.samples.size
                 and out.sample_rate == clip.sample_rate
                 and np.all(np.isfinite(out.samples)) for out in pair)
        self._check("perturb-pair", ok, f"segment {i}, seed {self.seeds[i]}")
        return pair

    def _op(self, k):
        for i in range(len(self.clips)):
            pair = self._guarded("perturb-pair", self._pair, i)
            if i == 0 and k == 0 and pair is not None:
                self.reference = self._digest(pair)

    def finish(self):
        pair = self._guarded("perturb-repeat", random_perturb_pair, self.clips[0],
                             PerturbConfig(seed=self.seeds[0]))
        if pair is not None:
            self._check("perturb-repeat", self._digest(pair) == self.reference,
                        "re-run of pair 0 must be byte-identical to the warm-up's")

    def metrics(self):
        walls = self.unit_walls()
        return {
            "op_ms": statistics.median(walls) * 1e3,
            "perturb_pairs_per_s": statistics.median(len(self.clips) / w for w in walls),
        }


# -- ddpm -------------------------------------------------------------------

def oracle_moments(mu0, sigma0, beta):
    """Exact mean (per dim) and std of the ancestral chain's output when
    the denoiser is the closed-form Gaussian one.

    With that denoiser eps_hat is affine in x_t, so each reverse step is
    x' = A x + B + sqrt(beta) z and the Gaussian moments propagate exactly
    from x_T ~ N(0, I). Guidance changes nothing: the conditional and
    unconditional predictions coincide.
    """
    alpha = 1.0 - beta
    abar = np.cumprod(alpha)
    v0 = sigma0 ** 2
    mean = np.zeros_like(mu0)
    var = 1.0
    for t in range(beta.size, 0, -1):
        b, a, ab = beta[t - 1], alpha[t - 1], abar[t - 1]
        denom = ab * v0 + 1.0 - ab
        c1 = (1.0 - ab * v0 / denom) / math.sqrt(1.0 - ab)
        c0 = -math.sqrt(ab) * (1.0 - ab) * mu0 / (denom * math.sqrt(1.0 - ab))
        gain = (1.0 - b * c1 / math.sqrt(1.0 - ab)) / math.sqrt(a)
        shift = -b * c0 / (math.sqrt(1.0 - ab) * math.sqrt(a))
        mean = gain * mean + shift
        var = gain * gain * var + (b if t > 1 else 0.0)
    return mean, math.sqrt(var)


class Ddpm(Workload):
    def __init__(self, manifest, inputs: Path, tracer=None):
        super().__init__(tracer)
        arr = {name: np.load(inputs / f"{name}.npy") for name in manifest["arrays"]}
        self.seed = manifest["seed"]
        self.dim = manifest["dim"]
        self.ling_dim = manifest["ling_dim"]
        self.speaker_dim = manifest["speaker_dim"]
        self.dataset = [
            (arr["x0"][i], ConditionSet(
                linguistic=arr["linguistic"][i], log_f0_vuv=arr["log_f0_vuv"][i],
                loudness=arr["loudness"][i],
                speaker_embedding=arr["speaker_embedding"][i]))
            for i in range(arr["x0"].shape[0])
        ]
        self.batches = [FeaturePairBatch(z, zp)
                        for z, zp in zip(arr["pair_z"], arr["pair_z_prime"])]
        self.target = arr["target_embedding"]
        self.mu0 = arr["oracle_mu0"]
        self.sigma0 = manifest["oracle_sigma0"]
        self.sched = linear_schedule()
        self.expected = oracle_moments(self.mu0, self.sigma0, self.sched.beta)
        cond = self.dataset[0][1]
        self.sample_cond = ConditionSet(cond.linguistic, cond.log_f0_vuv, cond.loudness,
                                        self.target)
        self.null_cond = ConditionSet(np.zeros((1, 1)), np.zeros((1, 2)), np.zeros(1))

    def _contrastive(self, n):
        return self.batches[n % len(self.batches)]

    def _train(self):
        model = ToyDenoiser(dim=self.dim, cond_dim=self.ling_dim + 3,
                            speaker_dim=self.speaker_dim,
                            num_steps=self.sched.num_steps, hidden=DDPM_HIDDEN,
                            seed=self.seed)
        hist = train_toy(model, self.dataset, self.sched, TrainConfig(
            steps=DDPM_TRAIN_STEPS, lr=DDPM_TRAIN_LR,
            contrastive_source=self._contrastive, seed=self.seed))
        first, last = float(np.mean(hist[:50])), float(np.mean(hist[-50:]))
        self._check("train", np.all(np.isfinite(hist)) and last < first,
                    f"mean loss first 50 {first:.3f}, last 50 {last:.3f}")
        return model

    def _finetune(self, model):
        others = [n for n in model.params if n not in CLN_PARAM_NAMES]
        before = model.param_hash(others), model.param_hash(CLN_PARAM_NAMES)
        finetune_cln(model, self.dataset, self.sched, iterations=DDPM_FINETUNE_ITERS,
                     target_embedding=self.target, lr=1e-3, seed=self.seed)
        after = model.param_hash(others), model.param_hash(CLN_PARAM_NAMES)
        self._check("finetune", after[0] == before[0] and after[1] != before[1],
                    "non-CLN parameters must not change, CLN parameters must")

    def _sample(self, model):
        x = sample(model, self.sched, self.sample_cond, w=DDPM_GUIDANCE,
                   dim=DDPM_SAMPLE_BATCH, seed=self.seed)
        self._check("sample", x.shape == DDPM_SAMPLE_BATCH and np.all(np.isfinite(x)),
                    f"shape {x.shape}")

    def _oracle(self):
        den = analytic_gaussian_denoiser(self.mu0, self.sigma0, self.sched)
        x = sample(den, self.sched, self.null_cond, w=DDPM_GUIDANCE,
                   dim=DDPM_ORACLE_BATCH, seed=self.seed + 1)
        mean, std = self.expected
        n = x.shape[0]
        mean_err = np.max(np.abs(x.mean(axis=0) - mean)) / (std / math.sqrt(n))
        z = (x - mean) / std
        std_err = abs(float(np.sqrt(np.mean(z * z))) - 1.0) * math.sqrt(2.0 * z.size)
        self._check("oracle-sample", mean_err <= MOMENT_SIGMAS and std_err <= MOMENT_SIGMAS,
                    f"mean off by {mean_err:.2f} SE, std off by {std_err:.2f} SE")

    def _op(self, k):
        t0 = time.perf_counter()
        model = self._guarded("train", self._train)
        t1 = time.perf_counter()
        if model is not None:
            self._guarded("finetune", self._finetune, model)
        t2 = time.perf_counter()
        if model is not None:
            self._guarded("sample", self._sample, model)
        t3 = time.perf_counter()
        self._guarded("oracle-sample", self._oracle)
        return {"train_s": t1 - t0, "finetune_s": t2 - t1, "sample_s": t3 - t2}

    def sizes(self):
        return {"train_steps": DDPM_TRAIN_STEPS, "finetune_iterations": DDPM_FINETUNE_ITERS,
                "hidden": DDPM_HIDDEN, "diffusion_steps": self.sched.num_steps,
                "sample_batch": list(DDPM_SAMPLE_BATCH), "oracle_batch": list(DDPM_ORACLE_BATCH),
                "guidance_scale": DDPM_GUIDANCE}

    def metrics(self):
        ops = self.op_times
        steps = self.sched.num_steps
        return {
            "op_ms": statistics.median(o["wall_s"] for o in ops) * 1e3,
            "train_steps_per_s": statistics.median(DDPM_TRAIN_STEPS / o["train_s"] for o in ops),
            "finetune_steps_per_s": statistics.median(
                DDPM_FINETUNE_ITERS / o["finetune_s"] for o in ops),
            "reverse_steps_per_s": statistics.median(steps / o["sample_s"] for o in ops),
        }
