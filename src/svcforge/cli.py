"""Command-line interface.

Every subcommand prints one machine-readable JSON summary on stdout and
keeps human diagnostics on stderr. Exit status: 0 success, 1 usage error,
2 data/validation error, 3 internal error. Seeded invocations are
byte-reproducible, including across --jobs settings (per-file work is pure
and results are merged in input order).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import defaults
from .audio import AudioClip, read_wav, resample, wav_bytes
from .corpus import (
    TrainingSetSpec,
    VadConfig,
    canonical_spec,
    compose_training_set,
    read_manifest,
    read_notes,
    reference_manifest_path,
    rest_note_segment,
    vad_segment,
    write_manifest,
)
from .diffusion import (
    ConditionSet,
    TrainConfig,
    ToyDenoiser,
    analytic_gaussian_denoiser,
    finetune_cln,
    linear_schedule,
    load_model,
    pseudo_speaker_embedding,
    sample,
    save_model,
    toy_dataset,
    train_toy,
)
from .errors import InvalidParameterError, SvcforgeError
from .features import CANONICAL_FRAME_CONFIG, build_mel_filterbank, log_mel, loudness, stft
from .metrics import cosine_similarity, f0_metrics
from .pitch import F0Track, cents_between, estimate_f0
from .pitchconv import (
    ConversionPolicy,
    compute_f0_stats,
    convert_logf0,
    load_stats,
    save_stats,
)
from .perturb import PerturbConfig, random_perturb_pair
from .svcf import (atomic_write_files, dumps, read_json, read_tensor, replace_files,
                   write_json, write_tensor)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _run_jobs(items, fn, jobs: int) -> list:
    """Map pure per-item work, preserving input order in the results."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _add_analysis_flags(p: argparse.ArgumentParser) -> None:
    """Flags shared by the subcommands that run F0 analysis over WAV files."""
    # a string default goes through type=int, so a bad SVCFORGE_JOBS is a
    # usage error at parse time, and only when --jobs is not given
    p.add_argument("--jobs", type=int, default=os.environ.get("SVCFORGE_JOBS", "1"),
                   help="parallel workers over files (default: SVCFORGE_JOBS or 1)")
    p.add_argument("--f0-floor", type=float, default=defaults.F0_FLOOR_HZ,
                   help="lowest F0 candidate in Hz (default %(default)s)")
    p.add_argument("--f0-ceil", type=float, default=defaults.F0_CEIL_HZ,
                   help="highest F0 candidate in Hz (default %(default)s)")


def _load_clip_at_canonical_rate(path: str) -> AudioClip:
    return resample(read_wav(path), defaults.SAMPLE_RATE)


# -- subcommand handlers ------------------------------------------------------

def _cmd_extract(args) -> dict:
    cfg = CANONICAL_FRAME_CONFIG
    fb = build_mel_filterbank(cfg)
    stems = [Path(path).stem for path in args.inputs]
    if len(set(stems)) < len(stems):
        raise InvalidParameterError(
            "inputs share a file stem, so their outputs would overwrite each other"
        )
    out_dir = Path(args.out_dir)
    # Tensors are staged in the nearest existing one of --out-dir and its
    # parents, and move in once every input has succeeded.
    base = out_dir.absolute()
    while not base.is_dir():
        base = base.parent
    staging = tempfile.TemporaryDirectory(dir=base, prefix=f".{out_dir.name}.")

    def work(path: str) -> dict:
        clip = _load_clip_at_canonical_rate(path)
        spec = stft(clip, cfg)
        mel = log_mel(spec, fb)
        loud = loudness(spec, cfg)
        track = estimate_f0(clip, cfg, args.f0_floor, args.f0_ceil)
        stem = Path(path).stem
        tensors = {"mel": mel, "loudness": loud, "f0": track.to_array()}
        for kind, array in tensors.items():
            write_tensor(Path(staging.name, f"{stem}.{kind}.svcf"), array)
        return {"input": path, "frames": int(mel.shape[0]),
                "duration_sec": clip.duration_sec,
                "outputs": {kind: str(out_dir / f"{stem}.{kind}.svcf") for kind in tensors}}

    with staging:
        results = _run_jobs(args.inputs, work, args.jobs)
        out_dir.mkdir(parents=True, exist_ok=True)
        replace_files({Path(staging.name, name): out_dir / name
                       for name in os.listdir(staging.name)})
    return {"command": "extract", "seed": args.seed, "files": results}


def _cmd_f0_stats(args) -> dict:
    def work(path: str) -> F0Track:
        return estimate_f0(_load_clip_at_canonical_rate(path), CANONICAL_FRAME_CONFIG,
                           args.f0_floor, args.f0_ceil)

    tracks = _run_jobs(args.inputs, work, args.jobs)
    stats = compute_f0_stats(tracks, args.speaker_id)
    save_stats(stats, args.out)
    return {
        "command": "f0-stats", "speaker_id": stats.speaker_id,
        "material": args.material,
        "mean_log_f0": stats.mean_log_f0, "std_log_f0": stats.std_log_f0,
        "n_voiced_frames": stats.n_voiced_frames, "out": args.out,
    }


def _cmd_convert_pitch(args) -> dict:
    offset = args.offset_semitones if args.offset_semitones is not None else \
        defaults.CROSS_DOMAIN_OFFSET_SEMITONES if args.policy == "cross-domain" else 0.0
    policy = ConversionPolicy(args.scale_sigma, args.quantize_cents, offset)
    track = F0Track.from_array(read_tensor(args.input))
    stats_x = load_stats(args.source_stats)
    stats_y = load_stats(args.target_stats)
    converted = convert_logf0(track, stats_x, stats_y, policy)
    voiced = track.vuv
    median_shift = float(np.median(
        cents_between(track.f0_hz[voiced], converted.f0_hz[voiced])
    )) if np.any(voiced) else None
    write_tensor(args.out, converted.to_array())
    return {
        "command": "convert-pitch", "out": args.out,
        "policy": asdict(policy),
        "n_frames": int(track.f0_hz.size),
        "n_voiced": int(voiced.sum()),
        "median_shift_cents": median_shift,
    }


def _cmd_perturb(args) -> dict:
    cfg = PerturbConfig(
        formant_ratio_range=tuple(args.formant_ratio_range),
        pitch_semitone_range=tuple(args.pitch_semitone_range),
        eq_bands=args.eq_bands,
        eq_gain_range_db=tuple(args.eq_gain_range_db),
        eq_q_range=tuple(args.eq_q_range),
        seed=args.seed,
    )
    clip = _load_clip_at_canonical_rate(args.input)
    first, second = random_perturb_pair(clip, cfg)
    atomic_write_files({args.out_a: wav_bytes(first), args.out_b: wav_bytes(second)})
    return {
        "command": "perturb", "seed": args.seed,
        "input": args.input, "outputs": [args.out_a, args.out_b],
        "duration_sec": clip.duration_sec,
    }


def _cmd_segment(args) -> dict:
    if args.mode == "vad":
        if args.input is None:
            raise _UsageError("--mode vad requires --in")
        clip = _load_clip_at_canonical_rate(args.input)
        segments = vad_segment(clip, VadConfig(
            frame_ms=args.vad_frame_ms,
            energy_floor_dbfs=args.vad_energy_floor_dbfs,
            min_speech_ms=args.vad_min_speech_ms,
            hangover_ms=args.vad_hangover_ms,
            min_gap_ms=args.vad_min_gap_ms,
        ))
        duration = clip.duration_sec
    else:
        if args.notes is None:
            raise _UsageError("--mode rest requires --notes")
        notes = read_notes(args.notes)
        duration = args.clip_duration if args.clip_duration is not None else float("inf")
        segments = rest_note_segment(notes, args.min_rest_sec, duration)
    doc = [asdict(s) for s in segments]
    if args.out:
        write_json(args.out, doc)
    return {"command": "segment", "mode": args.mode,
            "n_segments": len(segments), "segments": doc,
            "out": args.out}


def _cmd_manifest_compose(args) -> dict:
    manifest_path = args.manifest or str(reference_manifest_path())
    manifest = read_manifest(manifest_path)
    if args.spec.endswith(".json"):
        spec = TrainingSetSpec.from_json(read_json(args.spec, "training-set spec"))
    else:
        spec = canonical_spec(args.spec)
    selected, hours = compose_training_set(manifest, spec)
    if args.out:
        write_manifest(selected, args.out)
    return {
        "command": "manifest compose", "spec": spec.name,
        "manifest": manifest_path, "entries": len(selected),
        "total_hours": round(hours, 6),
        "speakers": sorted({e.speaker for e in selected}),
        "out": args.out,
    }


_TOY_LING_DIM = 8


def _cmd_ddpm_train(args) -> dict:
    sched = linear_schedule(args.diffusion_steps)
    model = ToyDenoiser(dim=args.dim, cond_dim=_TOY_LING_DIM + 3,
                        speaker_dim=args.speaker_dim,
                        num_steps=sched.num_steps, hidden=args.hidden,
                        seed=args.seed)
    dataset = toy_dataset(args.dim, _TOY_LING_DIM, args.speaker_dim,
                          n_items=8, seed=args.seed)
    history = train_toy(model, dataset, sched, TrainConfig(
        steps=args.steps, lr=args.lr, p_uncond=args.p_uncond, seed=args.seed))
    save_model(model, args.out_dir)
    return {
        "command": "ddpm train", "seed": args.seed, "steps": args.steps,
        "out_dir": args.out_dir,
        "first_loss": float(history[0]), "last_loss": float(history[-1]),
        "mean_last_50": float(np.mean(history[-50:])),
    }


def _cmd_ddpm_finetune(args) -> dict:
    model = load_model(args.model_dir)
    sched = linear_schedule(model.num_steps)
    target = pseudo_speaker_embedding(args.seed, model.speaker_dim)
    dataset = toy_dataset(model.dim, _TOY_LING_DIM, model.speaker_dim,
                          n_items=8, seed=args.seed + 1)
    finetune_cln(model, dataset, sched, iterations=args.iterations,
                 target_embedding=target, lr=args.lr, seed=args.seed)
    save_model(model, args.out_dir)
    return {
        "command": "ddpm finetune", "seed": args.seed,
        "iterations": args.iterations, "model_dir": args.model_dir,
        "out_dir": args.out_dir,
    }


def _cmd_ddpm_sample(args) -> dict:
    if args.model_dir:
        model = load_model(args.model_dir)
        sched = linear_schedule(model.num_steps)
        rng = np.random.default_rng(args.seed)
        cond = ConditionSet(
            linguistic=rng.normal(size=(4, _TOY_LING_DIM)),
            log_f0_vuv=rng.normal(size=(4, 2)),
            loudness=rng.normal(size=4),
            speaker_embedding=pseudo_speaker_embedding(args.seed, model.speaker_dim),
        )
        denoiser = model
        dim = model.dim
    else:
        if args.oracle_mean is None:
            raise _UsageError(
                "ddpm sample needs --model-dir or --oracle-mean/--oracle-std")
        sched = linear_schedule(args.steps)
        dim = args.dim
        # a scalar mean broadcasts over the sample, so `sample` checks --dim
        denoiser = analytic_gaussian_denoiser(args.oracle_mean, args.oracle_std, sched)
        cond = ConditionSet(
            linguistic=np.zeros((1, 1)), log_f0_vuv=np.zeros((1, 2)),
            loudness=np.zeros(1),
        )
    x = sample(denoiser, sched, cond, w=args.guidance_scale, dim=dim,
               seed=args.seed)
    write_tensor(args.out, x)
    return {
        "command": "ddpm sample", "seed": args.seed,
        "guidance_scale": args.guidance_scale, "dim": dim,
        "out": args.out, "mean": float(np.mean(x)),
    }


def _cmd_eval_cossim(args) -> dict:
    a = np.atleast_2d(read_tensor(args.a).astype(np.float64))
    b = np.atleast_2d(read_tensor(args.b).astype(np.float64))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise InvalidParameterError("embedding tensors need at least one row")
    sims = [cosine_similarity(row_a, row_b) for row_a in a for row_b in b]
    return {"command": "eval cossim", "n_pairs": len(sims),
            "cossim": float(np.mean(sims))}


def _cmd_eval_f0(args) -> dict:
    track_a = F0Track.from_array(read_tensor(args.a))
    track_b = F0Track.from_array(read_tensor(args.b))
    result = f0_metrics(track_a, track_b)
    return {"command": "eval f0", "rmse_cents": result.rmse_cents,
            "vuv_error_rate": result.vuv_error_rate}


def _cmd_config_show(args) -> dict:
    return {"command": "config show", **defaults.as_dict()}


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="svcforge",
                     description="Desk-scale singing voice conversion toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("extract",
                       help="extract mel/loudness/F0 feature tensors from WAV files")
    p.add_argument("--in", dest="inputs", action="append", required=True,
                   metavar="WAV", help="input WAV file (repeatable)")
    p.add_argument("--out-dir", required=True, help="output directory for SVCF files")
    p.add_argument("--seed", type=int, default=0,
                   help="seed recorded in the summary (extraction is deterministic)")
    _add_analysis_flags(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("f0-stats",
                       help="compute speaker log-F0 statistics from WAV files")
    p.add_argument("--in", dest="inputs", action="append", required=True,
                   metavar="WAV", help="input WAV file (repeatable)")
    p.add_argument("--speaker-id", required=True, help="speaker tag for the stats file")
    p.add_argument("--out", required=True, help="output stats JSON path")
    p.add_argument("--material", choices=("training", "evaluation"),
                   default="training",
                   help="provenance of the audio the stats come from; use "
                        "'evaluation' explicitly when no training material exists")
    _add_analysis_flags(p)
    p.set_defaults(func=_cmd_f0_stats)

    p = sub.add_parser("convert-pitch",
                       help="convert an F0 track between speakers")
    p.add_argument("--in", dest="input", required=True,
                   help="input F0 track ([T, 2] SVCF: f0 Hz, vuv 0/1)")
    p.add_argument("--out", required=True, help="output F0 track SVCF path")
    p.add_argument("--source-stats", required=True, help="source speaker stats JSON")
    p.add_argument("--target-stats", required=True, help="target speaker stats JSON")
    p.add_argument("--policy", choices=("in-domain", "cross-domain"),
                   default="in-domain",
                   help="in-domain: quantized shift; cross-domain: adds +6 semitones")
    p.add_argument("--scale-sigma", action="store_true",
                   help="scale by sigma_y/sigma_x instead of a pure shift")
    p.add_argument("--quantize-cents", type=int, choices=(0, 100),
                   default=defaults.QUANTIZE_CENTS,
                   help="shift quantization granularity in cents (default %(default)s)")
    p.add_argument("--offset-semitones", type=float, default=None,
                   help="override the cross-domain offset in semitones [0, 12]")
    p.set_defaults(func=_cmd_convert_pitch)

    p = sub.add_parser("perturb",
                       help="write a seeded pair of perturbed copies of a WAV")
    p.add_argument("--in", dest="input", required=True, help="input WAV file")
    p.add_argument("--out-a", required=True, help="first perturbed WAV path")
    p.add_argument("--out-b", required=True, help="second perturbed WAV path")
    p.add_argument("--seed", type=int, required=True, help="RNG seed (required)")
    p.add_argument("--formant-ratio-range", type=float, nargs=2,
                   default=[defaults.FORMANT_RATIO_LO, defaults.FORMANT_RATIO_HI],
                   metavar=("LO", "HI"),
                   help="formant warp ratio range, within [0.5, 2]")
    p.add_argument("--pitch-semitone-range", type=float, nargs=2,
                   default=[defaults.PITCH_SEMITONE_LO, defaults.PITCH_SEMITONE_HI],
                   metavar=("LO", "HI"),
                   help="pitch shift range in semitones, within [-12, 12]")
    p.add_argument("--eq-bands", type=int, default=defaults.EQ_BANDS,
                   help="number of peaking EQ bands (default %(default)s)")
    p.add_argument("--eq-gain-range-db", type=float, nargs=2,
                   default=[defaults.EQ_GAIN_LO_DB, defaults.EQ_GAIN_HI_DB],
                   metavar=("LO", "HI"), help="EQ gain range in dB, within [-24, 24]")
    p.add_argument("--eq-q-range", type=float, nargs=2,
                   default=[defaults.EQ_Q_LO, defaults.EQ_Q_HI],
                   metavar=("LO", "HI"), help="EQ quality-factor range")
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("segment",
                       help="segment audio by voice activity or score rests")
    p.add_argument("--in", dest="input", default=None,
                   help="input WAV file (vad mode)")
    p.add_argument("--mode", choices=("vad", "rest"), required=True,
                   help="segmentation strategy")
    p.add_argument("--out", default=None, help="output segments JSON path")
    p.add_argument("--notes", default=None,
                   help="note-event JSON array (rest mode)")
    p.add_argument("--min-rest-sec", type=float, default=defaults.MIN_REST_SEC,
                   help="minimum rest length in seconds that splits (default %(default)s)")
    p.add_argument("--clip-duration", type=float, default=None,
                   help="clip duration in seconds to clamp rest-mode segments")
    p.add_argument("--vad-frame-ms", type=float, default=defaults.VAD_FRAME_MS,
                   help="VAD frame length in ms (default %(default)s)")
    p.add_argument("--vad-energy-floor-dbfs", type=float,
                   default=defaults.VAD_ENERGY_FLOOR_DBFS,
                   help="VAD activity floor in dBFS (default %(default)s)")
    p.add_argument("--vad-min-speech-ms", type=float,
                   default=defaults.VAD_MIN_SPEECH_MS,
                   help="drop segments shorter than this many ms (default %(default)s)")
    p.add_argument("--vad-hangover-ms", type=float, default=defaults.VAD_HANGOVER_MS,
                   help="bridge inactive gaps shorter than this many ms (default %(default)s)")
    p.add_argument("--vad-min-gap-ms", type=float, default=defaults.VAD_MIN_GAP_MS,
                   help="merge segments separated by less than this many ms (default %(default)s)")
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("manifest",
                       help="corpus manifest operations")
    msub = p.add_subparsers(dest="manifest_command", required=True)
    pc = msub.add_parser("compose",
                         help="filter a manifest through a training-set spec")
    pc.add_argument("--manifest", default=None,
                    help="manifest JSONL (default: packaged reference table)")
    pc.add_argument("--spec", required=True,
                    help="canonical spec name or a spec JSON file path")
    pc.add_argument("--out", default=None, help="write the filtered manifest here")
    pc.set_defaults(func=_cmd_manifest_compose)

    p = sub.add_parser("ddpm",
                       help="train, fine-tune, or sample the desk-scale denoiser")
    dsub = p.add_subparsers(dest="ddpm_command", required=True)

    pt = dsub.add_parser("train",
                         help="train the toy denoiser on synthetic data")
    pt.add_argument("--out-dir", required=True, help="model output directory")
    pt.add_argument("--seed", type=int, required=True, help="RNG seed (required)")
    pt.add_argument("--steps", type=int, default=500, help="training steps")
    pt.add_argument("--lr", type=float, default=1e-3, help="learning rate")
    pt.add_argument("--p-uncond", type=float, default=defaults.P_UNCOND,
                    help="condition-drop probability (default %(default)s)")
    pt.add_argument("--dim", type=int, default=8, help="sample dimensionality")
    pt.add_argument("--hidden", type=int, default=32, help="hidden layer width")
    pt.add_argument("--speaker-dim", type=int, default=4,
                    help="speaker embedding dimensionality")
    pt.add_argument("--diffusion-steps", type=int, default=defaults.DIFFUSION_STEPS,
                    help="number of diffusion steps in the schedule (default %(default)s)")
    pt.set_defaults(func=_cmd_ddpm_train)

    pf = dsub.add_parser("finetune",
                         help="update only the CLN parameters of a trained model")
    pf.add_argument("--model-dir", required=True, help="trained model directory")
    pf.add_argument("--out-dir", required=True, help="fine-tuned model directory")
    pf.add_argument("--seed", type=int, required=True, help="RNG seed (required)")
    pf.add_argument("--iterations", type=int, default=defaults.FINETUNE_ITERATIONS,
                    help="fine-tuning iterations (default %(default)s)")
    pf.add_argument("--lr", type=float, default=1e-3, help="learning rate")
    pf.set_defaults(func=_cmd_ddpm_finetune)

    ps = dsub.add_parser("sample",
                         help="run the reverse chain from seeded noise")
    ps.add_argument("--out", required=True, help="output sample SVCF path")
    ps.add_argument("--seed", type=int, required=True, help="RNG seed (required)")
    ps.add_argument("--model-dir", default=None, help="trained model directory")
    ps.add_argument("--oracle-mean", type=float, default=None,
                    help="use the analytic Gaussian denoiser with this target mean")
    ps.add_argument("--oracle-std", type=float, default=1.0,
                    help="target std for the analytic denoiser (default %(default)s)")
    ps.add_argument("--dim", type=int, default=8,
                    help="sample dimensionality (oracle mode)")
    ps.add_argument("--guidance-scale", type=float, default=defaults.GUIDANCE_SCALE,
                    help="classifier-free guidance scale w (default %(default)s)")
    ps.add_argument("--steps", type=int, default=defaults.DIFFUSION_STEPS,
                    help="number of diffusion steps (oracle mode; a loaded model "
                         "carries its own schedule length)")
    ps.set_defaults(func=_cmd_ddpm_sample)

    p = sub.add_parser("eval",
                       help="objective metrics over SVCF tensors")
    esub = p.add_subparsers(dest="eval_command", required=True)
    pe = esub.add_parser("cossim",
                         help="average cosine similarity over all row pairs")
    pe.add_argument("--a", required=True, help="embedding SVCF ([d] or [N, d])")
    pe.add_argument("--b", required=True, help="embedding SVCF ([d] or [M, d])")
    pe.set_defaults(func=_cmd_eval_cossim)
    pg = esub.add_parser("f0",
                         help="F0 RMSE (cents) and VUV error between two tracks")
    pg.add_argument("--a", required=True, help="F0 track SVCF ([T, 2])")
    pg.add_argument("--b", required=True, help="F0 track SVCF ([T, 2])")
    pg.set_defaults(func=_cmd_eval_f0)

    p = sub.add_parser("config",
                       help="inspect toolkit configuration")
    csub = p.add_subparsers(dest="config_command", required=True)
    pc = csub.add_parser("show",
                         help="print the versioned numeric defaults table")
    pc.set_defaults(func=_cmd_config_show)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _log(f"usage error: {exc}")
        return 1
    try:
        if getattr(args, "seed", 0) < 0:
            raise InvalidParameterError(f"--seed must be >= 0, got {args.seed}")
        line = dumps(args.func(args))
    except _UsageError as exc:
        _log(f"usage error: {exc}")
        return 1
    except (SvcforgeError, OSError) as exc:  # an OSError: a path the OS refuses
        _log(f"error: {exc}")
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        _log(f"internal error: {type(exc).__name__}: {exc}")
        return 3
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
