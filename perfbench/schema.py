"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json at the repository root lists the same metrics; a test keeps
the two in step.
"""

WORKLOADS = {
    "preprocess": "conversion front end through the CLI over 4 min of sung takes at "
                  "24/44.1/48 kHz: pitch and features dominate, resampling on 2/3 of takes",
    "perturb": "random_perturb_pair over fixed 4 s 24 kHz segments: resampling at arbitrary "
               "inner rates, WSOLA, formant STFT and EQ; no pitch, features or diffusion",
    "ddpm": "train_toy, finetune_cln, guided and oracle sampling: small-matrix numpy in a "
            "Python loop; the only user of diffusion and contrastive, never scipy.signal",
}

# Times are reported at a reference machine speed. The host this benchmark
# was built on runs the same code up to a third slower for minutes at a
# time (other tenants), which swamps run-to-run comparisons. So each child
# times a fixed calibration loop (child.calibration_loop: pure Python and
# numpy FFTs) after its warm-up and after every timed unit, and a time t
# measured in that child is reported as
# t * CALIBRATION_REF_S / (median calibration time). The loop touches
# nothing of the package, so a change to the package cannot move it. The
# reference is the loop's time on a quiet 2-vCPU Intel Xeon VM. Unscaled
# figures are kept in the run record ("raw").
CALIBRATION_REF_S = 0.003

# (name, unit, better, bound). Every workload reports all of them.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("op_ms", "ms", "lower", 0.25),
)

# Per-layer metrics from the traced run, each a median over the timed
# operations of that operation's value (0 where a workload never calls the
# function). `busy_s` is span time, `self_s` span time minus child spans.
PER_LAYER = (
    ("audio.resample.calls", "count"),
    ("audio.resample.busy_s", "s"),
    ("audio.resample.updown_max_mean", "count"),
    ("audio.resample.busy_share", "ratio"),
    ("audio.read_wav.busy_s", "s"),
    ("pitch.estimate_f0.calls", "count"),
    ("pitch.estimate_f0.busy_s", "s"),
    ("pitch.estimate_f0.frames", "count"),
    ("pitch.estimate_f0.voiced_frac", "ratio"),
    ("pitch.estimate_f0.busy_share", "ratio"),
    ("features.stft.busy_s", "s"),
    ("features.log_mel.busy_s", "s"),
    ("features.loudness.busy_s", "s"),
    ("features.build_mel_filterbank.busy_s", "s"),
    ("features.build_mel_filterbank.calls", "count"),
    ("perturb.random_perturb_pair.calls", "count"),
    ("perturb.random_perturb_pair.busy_s", "s"),
    ("perturb.formant_shift.busy_s", "s"),
    ("perturb.pitch_randomize.busy_s", "s"),
    ("perturb.pitch_randomize.self_s", "s"),
    ("perturb.parametric_eq.busy_s", "s"),
    ("diffusion.l2_loss_and_grads.calls", "count"),
    ("diffusion.l2_loss_and_grads.busy_s", "s"),
    ("diffusion.train_toy.self_s", "s"),
    ("diffusion.finetune_cln.self_s", "s"),
    ("diffusion.predict_eps.calls", "count"),
    ("diffusion.predict_eps.busy_s", "s"),
    ("diffusion.guided_eps.calls", "count"),
    ("diffusion.reverse_step.calls", "count"),
    ("diffusion.reverse_step.busy_s", "s"),
    ("diffusion.sample.self_s", "s"),
    ("contrastive.contrastive_loss.calls", "count"),
    ("contrastive.contrastive_loss.busy_s", "s"),
    ("corpus.vad_segment.busy_s", "s"),
    ("pitchconv.compute_f0_stats.busy_s", "s"),
    ("pitchconv.convert_logf0.busy_s", "s"),
    ("pitchconv.load_stats.busy_s", "s"),
    ("metrics.f0_metrics.busy_s", "s"),
    ("svcf.write_tensor.calls", "count"),
    ("svcf.write_tensor.busy_s", "s"),
    ("svcf.write_tensor.bytes", "bytes"),
    ("svcf.read_tensor.calls", "count"),
    ("svcf.read_tensor.busy_s", "s"),
    ("cli.import_s", "s"),
    ("cli.segment.self_s", "s"),
    ("cli.f0-stats.self_s", "s"),
    ("cli.extract.self_s", "s"),
    ("cli.convert-pitch.self_s", "s"),
    ("cli.eval-f0.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("bench.failed_frac", "ratio"),
)

# Per-layer metrics the parent computes over the whole run rather than
# per traced operation.
RUN_LEVEL_LAYER_METRICS = ("cli.import_s", "trace.overhead_ratio", "bench.failed_frac")

# Layers (module short names) whose public functions are traced.
LAYERS = ("audio", "features", "pitch", "perturb", "pitchconv", "diffusion",
          "contrastive", "corpus", "metrics", "svcf", "cli")
