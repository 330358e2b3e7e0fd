"""Command-line interface.

Every subcommand prints one machine-readable JSON summary on stdout and keeps
human diagnostics on stderr. An option matches by its full name only: a prefix
of it is a usage error. A float option takes a negative value in any notation
float() reads, `-1e-3`, `-inf` and `-1_000` among them. A handler returns its
summary and its output files as `(path, bytes)` pairs; `main` alone writes: it
encodes the summary, writes every file in one all-or-nothing
`svcf.atomic_write_files` call, then prints. Exit status: 0 success, 1 usage
error, 2 data/validation error, 3 internal error. Seeded invocations are
byte-reproducible, including across --jobs settings: `extract` and `f0-stats`
analyse up to --jobs inputs at once and hand their frame blocks to one pool of
--jobs threads; each clip's blocks are joined in block order and the clips in
input order.
"""

import argparse
import functools
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields, replace
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
)
from .diffusion import (
    ConditionSet,
    TrainConfig,
    ToyDenoiser,
    analytic_gaussian_denoiser,
    finetune_cln,
    linear_schedule,
    load_model,
    model_files,
    pseudo_speaker_embedding,
    sample,
    toy_condition,
    toy_dataset,
    train_toy,
)
from .errors import InvalidParameterError, SvcforgeError
from .features import mel_loudness
from .metrics import cosine_similarity, embedding_rows, f0_metrics
from .pitch import F0Track, cents_between, estimate_f0, lag_range
from .pitchconv import (
    ConversionPolicy,
    compute_f0_stats,
    convert_logf0,
    load_stats,
)
from .perturb import PerturbConfig, random_perturb_pair
from .svcf import (atomic_write_files, dumps, json_bytes, json_record, jsonl_bytes, read_json,
                   read_tensor, tensor_bytes)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # an option matches by its full name only
        super().__init__(allow_abbrev=False, **kwargs)
        # argparse takes only -12 and -1.5 for negative numbers, so it would read
        # -1e-3, -inf, -nan and -1_000 as options; float() takes "_" between digits
        digits = r"\d(_?\d)*"
        self._negative_number_matcher = re.compile(
            rf"^-({digits}\.?({digits})?|\.{digits})(e[-+]?{digits})?$|^-(inf|infinity|nan)$",
            re.IGNORECASE)

    def error(self, message):
        raise _UsageError(message)


_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _log(msg: str) -> None:
    """One stderr line: each character str.splitlines breaks at (CR, LF and
    others a quoted path may hold) is written as its escape sequence."""
    print(msg.translate(_LINE_BREAKS), file=sys.stderr)


def _add_analysis_flags(p: argparse.ArgumentParser) -> None:
    """Flags shared by the subcommands that run F0 analysis over WAV files."""
    p.add_argument("--in", dest="inputs", action="append", required=True,
                   metavar="WAV", help="input WAV file (repeatable)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers over frame blocks (default %(default)s)")
    p.add_argument("--f0-floor", type=float, default=defaults.F0_FLOOR_HZ,
                   help="lowest F0 candidate in Hz (default %(default)s)")
    p.add_argument("--f0-ceil", type=float, default=defaults.F0_CEIL_HZ,
                   help="highest F0 candidate in Hz (default %(default)s)")


def _named(path: str, decode):
    """`decode(path)`; an InvalidParameterError raised in it gains the input's `path` in front."""
    try:
        return decode(path)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{path}: {exc}") from exc


def _load_clip_at_canonical_rate(path: str) -> AudioClip:
    return resample(read_wav(path), defaults.SAMPLE_RATE)


def _analyse_inputs(args, analyse) -> list:
    """`analyse(path, clip, block_map)` of each of `args.inputs`, read and resampled to
    the canonical rate, in input order, each `_named` by its path. The flags
    `_add_analysis_flags` adds are checked first, before any input is read: --jobs, then
    the F0 range (`pitch.lag_range`). Up to --jobs inputs are analysed at once, and all
    their frame blocks share one pool of --jobs threads through `block_map`. Input tasks
    wait on block tasks, never the reverse, so none can deadlock."""
    if args.jobs < 1:
        raise InvalidParameterError(f"--jobs must be >= 1, got {args.jobs}")
    lag_range(args.f0_floor, args.f0_ceil)

    def analyse_input(path):
        return analyse(path, _load_clip_at_canonical_rate(path), blocks.map)
    with ThreadPoolExecutor(args.jobs) as blocks, ThreadPoolExecutor(args.jobs) as inputs:
        return list(inputs.map(lambda path: _named(path, analyse_input), args.inputs))


# -- subcommand handlers ------------------------------------------------------

def _cmd_extract(args) -> tuple:
    out_dir = Path(args.out_dir)

    def analyse(path, clip, block_map):
        mel, loud = mel_loudness(clip, block_map)
        tensors = {"mel": mel, "loudness": loud,
                   "f0": estimate_f0(clip, args.f0_floor, args.f0_ceil, block_map).to_array()}
        outputs = {kind: str(out_dir / f"{Path(path).stem}.{kind}.svcf") for kind in tensors}
        summary = {"input": path, "frames": len(mel), "duration_sec": clip.duration_sec,
                   "outputs": outputs}
        return summary, [(outputs[kind], tensor_bytes(a, outputs[kind]))
                         for kind, a in tensors.items()]

    # two inputs with one stem give two pairs for one file, which the writer refuses
    done = _analyse_inputs(args, analyse)
    return ({"command": "extract", "files": [summary for summary, _ in done]},
            [pair for _, pairs in done for pair in pairs])


def _cmd_f0_stats(args) -> tuple:
    tracks = _analyse_inputs(args, lambda path, clip, block_map: estimate_f0(
        clip, args.f0_floor, args.f0_ceil, block_map))
    stats = compute_f0_stats(tracks, args.speaker_id)
    return ({"command": "f0-stats", **asdict(stats), "out": args.out},
            [(args.out, json_bytes(asdict(stats)))])


def _cmd_convert_pitch(args) -> tuple:
    policy = ConversionPolicy(args.scale_sigma, args.quantize_cents, args.policy == "cross-domain")
    track = _named(args.input, lambda p: F0Track.from_array(read_tensor(p)))
    stats_x = load_stats(args.source_stats)
    stats_y = load_stats(args.target_stats)
    converted = convert_logf0(track, stats_x, stats_y, policy)
    voiced = track.vuv
    median_shift = float(np.median(
        cents_between(track.f0_hz[voiced], converted.f0_hz[voiced])
    )) if np.any(voiced) else None
    return {
        "command": "convert-pitch", "out": args.out,
        "policy": asdict(policy),
        "n_frames": int(track.f0_hz.size),
        "n_voiced": int(voiced.sum()),
        "median_shift_cents": median_shift,
    }, [(args.out, tensor_bytes(converted.to_array(), args.out))]


def _cmd_perturb(args) -> tuple:
    clip = _named(args.input, _load_clip_at_canonical_rate)
    first, second = random_perturb_pair(clip, PerturbConfig(seed=args.seed))
    return {
        "command": "perturb", "seed": args.seed,
        "input": args.input, "outputs": [args.out_a, args.out_b],
        "duration_sec": clip.duration_sec,
    }, [(args.out_a, wav_bytes(first)), (args.out_b, wav_bytes(second))]


def _given(**options) -> dict:
    """The options given on the command line: those that are not None."""
    return {name: value for name, value in options.items() if value is not None}


def _cmd_segment(args) -> tuple:
    stray = [action.option_strings[0]
             for mode, actions in args.mode_options.items() if mode != args.mode
             for action in actions if getattr(args, action.dest) is not None]
    if stray:
        raise _UsageError(f"--mode {args.mode} does not take {', '.join(stray)}")
    if args.mode == "vad":  # each mode checks its flags before it reads its input
        cfg = VadConfig(**_given(**{  # --vad-X sets VadConfig.X
            f.name: getattr(args, f"vad_{f.name}") for f in fields(VadConfig)}))
        segments = vad_segment(_named(args.input, _load_clip_at_canonical_rate), cfg)
    else:
        given = _given(min_rest_sec=args.min_rest_sec, clip_duration=args.clip_duration)
        rest_note_segment([], **given)  # no notes: checks only the flags, left unnamed
        notes = read_notes(args.notes)  # its errors name the file and the event
        segments = _named(args.notes, lambda _: rest_note_segment(notes, **given))
    doc = [asdict(s) for s in segments]
    return {"command": "segment", "mode": args.mode,
            "n_segments": len(segments), "segments": doc,
            "out": args.out}, [] if args.out is None else [(args.out, json_bytes(doc))]


def _cmd_manifest_compose(args) -> tuple:
    manifest = read_manifest(
        reference_manifest_path() if args.manifest is None else args.manifest)
    if args.spec.endswith(".json"):
        spec = json_record(TrainingSetSpec, read_json(args.spec, "training-set spec"),
                           f"training-set spec {args.spec}")
    else:
        spec = canonical_spec(args.spec)
    selected, hours = compose_training_set(manifest, spec)
    return {
        "command": "manifest compose", "spec": spec.name,
        "manifest": args.manifest, "entries": len(selected),
        "total_hours": round(hours, 6),
        "speakers": sorted({e.speaker for e in selected}),
        "out": args.out,
    }, [] if args.out is None else [(args.out, jsonl_bytes(asdict(e) for e in selected))]


_TOY_LING_DIM = 8


def _cmd_ddpm_train(args) -> tuple:
    sched = linear_schedule(args.diffusion_steps)
    model = ToyDenoiser(dim=args.dim, cond_dim=_TOY_LING_DIM + 3,
                        speaker_dim=args.speaker_dim,
                        num_steps=sched.num_steps, hidden=args.hidden,
                        seed=args.seed)
    history = train_toy(model, toy_dataset(model, seed=args.seed), sched, TrainConfig(
        steps=args.steps, lr=args.lr, p_uncond=args.p_uncond, seed=args.seed))
    return {
        "command": "ddpm train", "seed": args.seed, "steps": args.steps,
        "out_dir": args.out_dir,
        "first_loss": float(history[0]), "last_loss": float(history[-1]),
        "mean_last_50": float(np.mean(history[-50:])),
    }, model_files(model, args.out_dir)


def _cmd_ddpm_finetune(args) -> tuple:
    model = load_model(args.model_dir)
    sched = linear_schedule(model.num_steps)
    target = pseudo_speaker_embedding(args.seed, model.speaker_dim)
    finetune_cln(model, toy_dataset(model, seed=args.seed + 1), sched,
                 iterations=args.iterations, target_embedding=target, lr=args.lr, seed=args.seed)
    return {
        "command": "ddpm finetune", "seed": args.seed,
        "iterations": args.iterations, "model_dir": args.model_dir,
        "out_dir": args.out_dir,
    }, model_files(model, args.out_dir)


def _reverse_chain(args, denoiser, sched, cond, dim) -> tuple:
    """Run the reverse chain from seeded noise, guided by --guidance-scale where the
    command takes it; the sample goes to --out."""
    guidance = {"guidance_scale": args.guidance_scale} if "guidance_scale" in args else {}
    x = sample(denoiser, sched, cond, dim=dim, seed=args.seed,
               w=guidance.get("guidance_scale", defaults.GUIDANCE_SCALE))
    data = tensor_bytes(x, args.out)  # first: it refuses a sample whose mean would overflow
    return {"command": f"ddpm {args.ddpm_command}", "seed": args.seed, **guidance, "dim": dim,
            "out": args.out, "mean": float(np.mean(x))}, [(args.out, data)]


def _cmd_ddpm_sample(args) -> tuple:
    model = load_model(args.model_dir)
    # the speaker that `ddpm finetune --seed S` tunes to, for `sample --seed S`
    cond = replace(toy_condition(model, np.random.default_rng(args.seed)),
                   speaker_embedding=pseudo_speaker_embedding(args.seed, model.speaker_dim))
    return _reverse_chain(args, model, linear_schedule(model.num_steps), cond, model.dim)


def _cmd_ddpm_sample_oracle(args) -> tuple:
    sched = linear_schedule(args.diffusion_steps)
    # a scalar mean broadcasts over the sample, so `sample` checks --dim
    denoiser = analytic_gaussian_denoiser(args.mean, args.std, sched)
    cond = ConditionSet(linguistic=np.zeros((1, 1)), log_f0_vuv=np.zeros((1, 2)),
                        loudness=np.zeros(1))
    return _reverse_chain(args, denoiser, sched, cond, args.dim)


def _cmd_eval_cossim(args) -> tuple:
    a, b = (_named(f, lambda p: embedding_rows(np.atleast_2d(read_tensor(p))))
            for f in (args.a, args.b))
    sims = cosine_similarity(a, b)
    return {"command": "eval cossim", "n_pairs": sims.size,
            "cossim": float(np.mean(np.clip(sims, -1.0, 1.0)))}, []


def _cmd_eval_f0(args) -> tuple:
    a, b = (_named(f, lambda p: F0Track.from_array(read_tensor(p))) for f in (args.a, args.b))
    return {"command": "eval f0", **f0_metrics(a, b)}, []


def _cmd_config_show(args) -> tuple:
    return {"command": "config show", **defaults.as_dict()}, []


# -- parser -------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built by the first call, not at import; callers share it."""
    parser = _Parser(prog="svcforge",
                     description="Desk-scale singing voice conversion toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("extract",
                       help="extract mel/loudness/F0 feature tensors from WAV files")
    _add_analysis_flags(p)
    p.add_argument("--out-dir", required=True, help="output directory for SVCF files")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("f0-stats",
                       help="compute speaker log-F0 statistics from WAV files")
    _add_analysis_flags(p)
    p.add_argument("--speaker-id", required=True, help="speaker tag for the stats file")
    p.add_argument("--out", required=True, help="output stats JSON path")
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
                   help=f"cross-domain adds {defaults.CROSS_DOMAIN_OFFSET_SEMITONES:+g} semitones")
    p.add_argument("--scale-sigma", action="store_true",
                   help="scale by sigma_y/sigma_x instead of a pure shift")
    p.add_argument("--quantize-cents", type=int, choices=(0, 100),
                   default=defaults.QUANTIZE_CENTS,
                   help="snap the pure shift to this many cents, 0 for off; not applied "
                        "with --scale-sigma (default %(default)s)")
    p.set_defaults(func=_cmd_convert_pitch)

    p = sub.add_parser("perturb",
                       help="write a seeded pair of perturbed copies of a WAV")
    p.add_argument("--in", dest="input", required=True, help="input WAV file")
    p.add_argument("--out-a", required=True, help="first perturbed WAV path")
    p.add_argument("--out-b", required=True, help="second perturbed WAV path")
    p.add_argument("--seed", type=int, required=True, help="RNG seed (required)")
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("segment",
                       help="segment audio by voice activity or score rests")
    # one input, --in or --notes; each mode's options default to None, so `_cmd_segment`
    # refuses any given one of the other mode, and an unset one takes the callee's default
    inputs = p.add_mutually_exclusive_group(required=True)
    vad = [inputs.add_argument("--in", dest="input", help="input WAV file (vad mode)")]
    p.add_argument("--mode", choices=("vad", "rest"), required=True,
                   help="segmentation strategy")
    p.add_argument("--out", default=None, help="output segments JSON path")
    rest = [
        inputs.add_argument("--notes", help="note-event JSON array (rest mode)"),
        p.add_argument("--min-rest-sec", type=float,
                       help=f"minimum rest length in seconds that splits (rest mode; "
                            f"default {defaults.MIN_REST_SEC})"),
        p.add_argument("--clip-duration", type=float,
                       help="clip duration in seconds to clamp rest-mode segments"),
    ]
    vad += [
        p.add_argument("--vad-frame-ms", type=float,
                       help=f"VAD frame length in ms (default {defaults.VAD_FRAME_MS})"),
        p.add_argument("--vad-energy-floor-dbfs", type=float,
                       help=f"VAD activity floor in dBFS (default "
                            f"{defaults.VAD_ENERGY_FLOOR_DBFS})"),
        p.add_argument("--vad-min-speech-ms", type=float,
                       help=f"drop segments shorter than this many ms (default "
                            f"{defaults.VAD_MIN_SPEECH_MS})"),
        p.add_argument("--vad-hangover-ms", type=float,
                       help=f"bridge inactive gaps shorter than this many ms (default "
                            f"{defaults.VAD_HANGOVER_MS})"),
        p.add_argument("--vad-min-gap-ms", type=float,
                       help=f"merge segments separated by less than this many ms (default "
                            f"{defaults.VAD_MIN_GAP_MS})"),
    ]
    p.set_defaults(func=_cmd_segment, mode_options={"vad": vad, "rest": rest})

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
                         help="run a trained model's reverse chain from seeded noise")
    ps.add_argument("--model-dir", required=True,
                    help="trained model directory (it carries its own dim and steps)")
    po = dsub.add_parser("sample-oracle",
                         help="run the analytic Gaussian denoiser's reverse chain")
    po.add_argument("--mean", type=float, required=True, help="target mean")
    po.add_argument("--std", type=float, default=1.0, help="target std (default %(default)s)")
    po.add_argument("--dim", type=int, default=8,
                    help="sample dimensionality (default %(default)s)")
    po.add_argument("--diffusion-steps", type=int, default=defaults.DIFFUSION_STEPS,
                    help="number of diffusion steps in the schedule (default %(default)s)")
    for p, func in ((ps, _cmd_ddpm_sample), (po, _cmd_ddpm_sample_oracle)):
        p.add_argument("--out", required=True, help="output sample SVCF path")
        p.add_argument("--seed", type=int, required=True, help="RNG seed (required)")
        p.set_defaults(func=func)
    ps.add_argument("--guidance-scale", type=float, default=defaults.GUIDANCE_SCALE,
                    help="classifier-free guidance scale w (default %(default)s)")

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
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) < 0:
            raise InvalidParameterError(f"--seed must be >= 0, got {args.seed}")
        for flag in ("out_dir", "model_dir"):  # "" would name the working directory
            if getattr(args, flag, None) == "":
                raise InvalidParameterError(f"--{flag.replace('_', '-')} must not be empty")
        summary, files = args.func(args)
        line = dumps(summary)
        atomic_write_files(files)
        try:
            print(line, flush=True)
        except OSError:  # a full or closed stdout: the flush at exit goes to /dev/null
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
            raise
    except _UsageError as exc:
        _log(f"usage error: {exc}")
        return 1
    except (SvcforgeError, OSError) as exc:  # an OSError: a path or a stdout the OS refuses
        _log(f"error: {exc}")
        return 2
    except Exception as exc:
        _log(f"internal error: {type(exc).__name__}: {exc}")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
