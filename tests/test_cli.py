import argparse
import ast
import json
import shlex
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from svcforge import cli, defaults
from svcforge.audio import AudioClip, read_wav, write_wav
from svcforge.cli import build_parser, main
from svcforge.diffusion import ToyDenoiser, model_files
from svcforge.features import BLOCK_FRAMES, CANONICAL_FRAME_CONFIG as CFG
from svcforge.svcf import atomic_write_files, read_tensor, write_tensor
from synth import sawtooth, sine
from test_audio import _pcm16_wav, _wav_with_a_second

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    summary = json.loads(captured.out) if captured.out.strip() else None
    return code, summary


@pytest.fixture()
def wavs(tmp_path):
    a = tmp_path / "a.wav"
    b = tmp_path / "b.wav"
    write_wav(sine(440, 0.6), a)
    write_wav(sawtooth(220, 0.6), b)
    return a, b


def _file_map(tmp_path):
    return {p.name: p.read_bytes() for p in sorted(tmp_path.rglob("*.svcf"))}


def test_extract_deterministic_across_runs_and_jobs(tmp_path, wavs, capsys):
    a, b = wavs
    snapshots = []
    for run_dir, jobs in [("one", "1"), ("two", "1"), ("par", "2")]:
        out = tmp_path / run_dir
        code, summary = run_cli(capsys, "extract", "--in", str(a), "--in", str(b),
                                "--out-dir", str(out), "--jobs", jobs)
        assert code == 0
        assert len(summary["files"]) == 2
        snapshots.append(_file_map(out))
    assert snapshots[0] == snapshots[1] == snapshots[2]


def test_extract_and_f0_stats_identical_across_jobs_over_several_blocks(tmp_path, capsys):
    n_frames = 3 * BLOCK_FRAMES + 37
    seconds = (CFG.win_length + (n_frames - 1) * CFG.hop) / defaults.SAMPLE_RATE
    long_wav, short_wav = tmp_path / "long.wav", tmp_path / "short.wav"
    tone = sine(180, seconds).samples.copy()
    tone[BLOCK_FRAMES * CFG.hop:2 * BLOCK_FRAMES * CFG.hop] *= 0.01  # a quiet block
    write_wav(AudioClip(tone, defaults.SAMPLE_RATE), long_wav)
    write_wav(sine(440, 0.6), short_wav)
    runs = []
    for jobs in ("1", "2", "3"):
        out, stats = tmp_path / f"x{jobs}", tmp_path / f"s{jobs}.json"
        code, extract = run_cli(capsys, "extract", "--in", str(long_wav), "--in",
                                str(short_wav), "--out-dir", str(out), "--jobs", jobs)
        assert code == 0 and extract["files"][0]["frames"] == n_frames
        code, f0_stats = run_cli(capsys, "f0-stats", "--in", str(long_wav), "--in",
                                 str(short_wav), "--speaker-id", "x", "--out", str(stats),
                                 "--jobs", jobs)
        assert code == 0
        del f0_stats["out"]
        runs.append((_file_map(out), stats.read_bytes(), f0_stats))
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("command", ["extract", "f0-stats"])
def test_jobs_analyses_short_inputs_at_once(tmp_path, wavs, capsys, monkeypatch, command):
    # each input is one block, so only analysing inputs side by side uses
    # both workers: the barrier lets no input through until two are read
    barrier = threading.Barrier(2, timeout=10)
    load = cli._load_clip_at_canonical_rate

    def load_side_by_side(path):
        barrier.wait()
        return load(path)

    monkeypatch.setattr(cli, "_load_clip_at_canonical_rate", load_side_by_side)
    out = ["--out-dir", str(tmp_path)] if command == "extract" else \
          ["--speaker-id", "x", "--out", str(tmp_path / "s.json")]
    code, _ = run_cli(capsys, command, "--in", str(wavs[0]), "--in", str(wavs[1]),
                      *out, "--jobs", "2")
    assert code == 0


_NOTES = '[{"onset_sec": 0.0, "offset_sec": 0.2, "pitch": 60}, ' \
         '{"onset_sec": 0.9, "offset_sec": 1.0, "pitch": 62}]'


@pytest.mark.parametrize("mode, flags", [
    ("rest", ["--in", "{wav}", "--vad-frame-ms", "10"]),
    ("vad", ["--notes", "nope.json", "--min-rest-sec", "3", "--clip-duration", "0.1"]),
    ("vad", ["--min-rest-sec", str(defaults.MIN_REST_SEC)]),
    ("rest", ["--vad-min-gap-ms", str(defaults.VAD_MIN_GAP_MS)]),
], ids=["vad-flags-in-rest", "rest-flags-in-vad", "rest-default-in-vad", "vad-default-in-rest"])
def test_segment_refuses_the_other_modes_flags(tmp_path, wavs, capsys, mode, flags):
    notes, out = tmp_path / "notes.json", tmp_path / "seg.json"
    notes.write_text(_NOTES)
    own = ["--in", str(wavs[0])] if mode == "vad" else ["--notes", str(notes)]
    flags = [str(wavs[0]) if f == "{wav}" else f for f in flags]
    code = main(["segment", "--mode", mode, *own, *flags, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1 and "does not take" in captured.err
    assert not out.exists()


def test_segment_flags_at_their_defaults_change_nothing(tmp_path, wavs, capsys):
    notes = tmp_path / "notes.json"
    notes.write_text(_NOTES)
    vad = ["segment", "--mode", "vad", "--in", str(wavs[0])]
    rest = ["segment", "--mode", "rest", "--notes", str(notes)]
    vad_defaults = ["--vad-frame-ms", str(defaults.VAD_FRAME_MS),
                    "--vad-energy-floor-dbfs", str(defaults.VAD_ENERGY_FLOOR_DBFS),
                    "--vad-min-speech-ms", str(defaults.VAD_MIN_SPEECH_MS),
                    "--vad-hangover-ms", str(defaults.VAD_HANGOVER_MS),
                    "--vad-min-gap-ms", str(defaults.VAD_MIN_GAP_MS)]
    rest_defaults = ["--min-rest-sec", str(defaults.MIN_REST_SEC), "--clip-duration", "inf"]
    for argv, given in ((vad, vad_defaults), (rest, rest_defaults)):
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv, *given)
    assert run_cli(capsys, *rest)[1]["n_segments"] == 2


def test_extract_summary_is_machine_readable(tmp_path, wavs, capsys):
    a, _ = wavs
    code, summary = run_cli(capsys, "extract", "--in", str(a),
                            "--out-dir", str(tmp_path / "f"))
    assert code == 0
    entry = summary["files"][0]
    assert set(entry["outputs"]) == {"mel", "loudness", "f0"}
    mel = read_tensor(entry["outputs"]["mel"])
    assert mel.shape == (entry["frames"], 80)


def test_f0_stats_and_convert_pitch_cross_domain(tmp_path, wavs, capsys):
    a, _ = wavs
    feat = tmp_path / "feat"
    run_cli(capsys, "extract", "--in", str(a), "--out-dir", str(feat))
    stats = tmp_path / "src.json"
    code, summary = run_cli(capsys, "f0-stats", "--in", str(a),
                            "--speaker-id", "src", "--out", str(stats))
    assert code == 0
    assert summary["n_voiced_frames"] > 0

    out = tmp_path / "conv.svcf"
    code, summary = run_cli(capsys, "convert-pitch",
                            "--in", str(feat / "a.f0.svcf"), "--out", str(out),
                            "--source-stats", str(stats),
                            "--target-stats", str(stats),
                            "--policy", "cross-domain")
    assert code == 0
    # matched stats: the quantized mean shift is 0, offset contributes +600
    assert summary["median_shift_cents"] == pytest.approx(600.0, abs=1e-6)
    assert summary["policy"]["cross_domain_offset_semitones"] == 6.0


@pytest.mark.parametrize("flags, policy", [
    ([], (False, 100, 0.0)),
    (["--policy", "in-domain"], (False, 100, 0.0)),
    (["--policy", "cross-domain"], (False, 100, 6.0)),
    (["--scale-sigma"], (True, 100, 0.0)),
    (["--quantize-cents", "0"], (False, 0, 0.0)),
])
def test_convert_pitch_policy_from_flags(tmp_path, capsys, flags, policy):
    track, stats, out = tmp_path / "f0.svcf", tmp_path / "stats.json", tmp_path / "o.svcf"
    write_tensor(track, np.array([[220.0, 1.0], [0.0, 0.0]], dtype=np.float32))
    _write_stats(stats)
    code, summary = run_cli(capsys, "convert-pitch", "--in", str(track), "--out", str(out),
                            "--source-stats", str(stats), "--target-stats", str(stats),
                            *flags)
    assert code == 0
    assert summary["policy"] == dict(zip(
        ["scale_sigma", "quantize_cents", "cross_domain_offset_semitones"], policy))


def test_manifest_compose_reference_totals(capsys):
    code, summary = run_cli(capsys, "manifest", "compose", "--spec", "final")
    assert code == 0
    assert summary["total_hours"] == pytest.approx(750.14, abs=0.01)
    for name, hours in [("v1_sing_en", 4.21), ("v2_ssmix_en", 631.79),
                        ("v3_sing_langmix", 122.56)]:
        code, summary = run_cli(capsys, "manifest", "compose", "--spec", name)
        assert code == 0
        assert summary["total_hours"] == pytest.approx(hours, abs=0.01)
        for target in ("IDF1", "IDM1", "CDF1", "CDM1"):
            assert target in summary["speakers"]


def test_manifest_compose_writes_filtered_output(tmp_path, capsys):
    out = tmp_path / "v1.jsonl"
    code, summary = run_cli(capsys, "manifest", "compose", "--spec", "v1_sing_en",
                            "--out", str(out))
    assert code == 0
    assert out.exists()
    assert len(out.read_text().splitlines()) == summary["entries"]


def test_manifest_compose_spec_json(tmp_path, capsys):
    spec_doc = {"name": "zh_singing", "languages": ["zh"], "kinds": ["singing"],
                "always_include_datasets": []}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc))
    code, summary = run_cli(capsys, "manifest", "compose", "--spec", str(spec_path))
    assert code == 0
    # opencpop + opensinger + m4singer + popcs + ksing
    assert summary["total_hours"] == pytest.approx(93.64, abs=0.01)


def test_manifest_compose_summary_names_the_manifest_as_given(tmp_path, capsys, monkeypatch):
    # the packaged table is null, not a path that differs between checkouts
    code, summary = run_cli(capsys, "manifest", "compose", "--spec", "v1_sing_en")
    assert code == 0
    assert summary["manifest"] is None
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "manifest", "compose", "--spec", "v1_sing_en", "--out", "v1.jsonl")
    code, summary = run_cli(capsys, "manifest", "compose", "--manifest", "v1.jsonl",
                            "--spec", "v1_sing_en")
    assert code == 0
    assert summary["manifest"] == "v1.jsonl"


def test_perturb_deterministic(tmp_path, wavs, capsys):
    a, _ = wavs
    outs = []
    for tag in ("x", "y"):
        pa, pb = tmp_path / f"{tag}_a.wav", tmp_path / f"{tag}_b.wav"
        code, _ = run_cli(capsys, "perturb", "--in", str(a), "--out-a", str(pa),
                          "--out-b", str(pb), "--seed", "7")
        assert code == 0
        outs.append((pa.read_bytes(), pb.read_bytes()))
    assert outs[0] == outs[1]


def test_perturb_empty_wav(tmp_path, capsys):
    src = tmp_path / "empty.wav"
    write_wav(AudioClip(np.zeros(0), 24000), src)
    pa, pb = tmp_path / "pa.wav", tmp_path / "pb.wav"
    code, summary = run_cli(capsys, "perturb", "--in", str(src), "--out-a", str(pa),
                            "--out-b", str(pb), "--seed", "0")
    assert code == 0
    assert summary["duration_sec"] == 0.0
    for path in (pa, pb):
        assert read_wav(path).samples.size == 0


@pytest.mark.parametrize("flags", [
    ["--formant-ratio-range", "0.8", "1.2"],
    ["--pitch-semitone-range", "-2", "2"],
    ["--eq-bands", "4"],
    ["--eq-gain-range-db", "-6", "6"],
    ["--eq-q-range", "1", "2"],
])
def test_perturb_ranges_are_not_settable(tmp_path, wavs, capsys, flags):
    pa, pb = tmp_path / "pa.wav", tmp_path / "pb.wav"
    code = main(["perturb", "--in", str(wavs[0]), "--out-a", str(pa), "--out-b", str(pb),
                 "--seed", "0", *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert not pa.exists() and not pb.exists()


@pytest.mark.parametrize("out_b", ["p.wav", "./p.wav", "absolute"])
def test_perturb_refuses_two_names_for_one_output(tmp_path, wavs, capsys, monkeypatch, out_b):
    # two names for one file would merge into one write, and the summary would
    # still list two outputs
    monkeypatch.chdir(tmp_path)
    out_b = tmp_path / "p.wav" if out_b == "absolute" else out_b
    before = sorted(p.name for p in tmp_path.iterdir())
    err = _assert_rejected(capsys, ["perturb", "--in", wavs[0], "--out-a", "p.wav",
                                    "--out-b", out_b, "--seed", "1"])
    assert err == f"error: outputs p.wav and {out_b} name one file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ["ddpm", "sample-oracle", "--mean", "0", "--steps", "5", "--seed", "0",
     "--out", "x\0.svcf"],
    ["f0-stats", "--in", "{wav}", "--speaker-id", "s", "--out", "x\0.json"],
    ["perturb", "--in", "{wav}", "--out-a", "a\0.wav", "--out-b", "b.wav", "--seed", "0"],
], ids=["sample-oracle", "f0-stats", "perturb"])
def test_an_output_path_with_a_nul_exits_2(tmp_path, wavs, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    err = _assert_rejected(capsys, [wavs[0] if a == "{wav}" else a for a in argv])
    assert "embedded null byte" in err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ["segment", "--mode", "rest", "--notes", "notes.json", "--out", ""],
    ["manifest", "compose", "--spec", "final", "--out", ""],
    ["manifest", "compose", "--spec", "final", "--manifest", ""],
], ids=["segment-out", "compose-out", "compose-manifest"])
def test_an_empty_path_exits_2(tmp_path, capsys, monkeypatch, argv):
    # an empty path is a path, not an absent option
    monkeypatch.chdir(tmp_path)
    (tmp_path / "notes.json").write_text(_NOTES)
    _assert_rejected(capsys, argv)
    assert [p.name for p in tmp_path.iterdir()] == ["notes.json"]


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("blocker", ["file", "directory"])
def test_perturb_writes_both_outputs_or_neither(tmp_path, wavs, capsys, existing, blocker):
    src, _ = wavs
    pa = tmp_path / "pa.wav"
    if existing:
        pa.write_bytes(b"earlier run")
    if blocker == "file":
        (tmp_path / "afile").write_bytes(b"")
        pb = tmp_path / "afile" / "b.wav"
    else:
        pb = tmp_path / "adir"
        pb.mkdir()
    before = sorted(p.name for p in tmp_path.iterdir())
    _assert_rejected(capsys, ["perturb", "--in", src, "--out-a", pa, "--out-b", pb,
                              "--seed", "1"], *([] if existing else [pa]))
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    if existing:
        assert pa.read_bytes() == b"earlier run"


def test_refused_write_names_the_destination(tmp_path, wavs, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_bytes(b"")
    # a 255-byte input name whose 251-byte stem makes a 260-byte tensor name
    stem = "z" * 251
    write_wav(sine(440, 0.3), tmp_path / f"{stem}.wav")
    for argv, dest in [
        (["perturb", "--in", wavs[0], "--out-a", "pa.wav", "--out-b", "afile/b.wav",
          "--seed", "1"], "afile/b.wav"),
        (["extract", "--in", f"{stem}.wav", "--out-dir", "feats"], f"feats/{stem}.mel.svcf"),
    ]:
        errors = [_assert_rejected(capsys, argv, tmp_path / "pa.wav") for _ in range(2)]
        assert errors[0] == errors[1]
        assert errors[0].rstrip().endswith(f": '{dest}'")


def test_failed_extract_leaves_no_new_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # a 251-byte stem makes a 260-byte tensor name, which the OS refuses
    stem = "z" * 251
    write_wav(sine(440, 0.3), tmp_path / f"{stem}.wav")
    err = _assert_rejected(capsys, ["extract", "--in", f"{stem}.wav", "--out-dir", "feats/deep"])
    assert err.rstrip().endswith(f": 'feats/deep/{stem}.mel.svcf'")
    assert [p.name for p in tmp_path.iterdir()] == [f"{stem}.wav"]


def test_ddpm_train_writes_all_model_files_or_none(tmp_path, capsys):
    out = tmp_path / "model"
    (out / "index.json").mkdir(parents=True)
    (out / "b1.svcf").write_bytes(b"earlier run")
    _assert_rejected(capsys, ["ddpm", "train", "--out-dir", out, "--seed", "0",
                              "--steps", "5"])
    assert sorted(p.name for p in out.iterdir()) == ["b1.svcf", "index.json"]
    assert (out / "b1.svcf").read_bytes() == b"earlier run"


def test_segment_vad(tmp_path, wavs, capsys):
    a, _ = wavs
    out = tmp_path / "seg.json"
    code, summary = run_cli(capsys, "segment", "--in", str(a), "--mode", "vad",
                            "--out", str(out))
    assert code == 0
    assert summary["n_segments"] == 1
    assert json.loads(out.read_text()) == summary["segments"]


@pytest.mark.parametrize("flags, start_sec", [
    (["--vad-frame-ms", "1e300"], 0.0),
    (["--vad-frame-ms", "1e-300", "--vad-hangover-ms", "1e10"], 1 / 24000),
], ids=["frame-longer-than-clip", "hangover-of-inf-frames"])
def test_segment_vad_extreme_frames(tmp_path, wavs, capsys, flags, start_sec):
    out = tmp_path / "seg.json"
    code, summary = run_cli(capsys, "segment", "--mode", "vad", "--in", str(wavs[0]),
                            "--out", str(out), *flags)
    assert code == 0
    assert summary["segments"] == [{"start_sec": start_sec, "end_sec": 0.6}]
    assert json.loads(out.read_text()) == summary["segments"]


def test_segment_rest_notes(tmp_path, capsys):
    notes = [{"onset_sec": 0.0, "offset_sec": 1.0, "pitch": 60},
             {"onset_sec": 2.0, "offset_sec": 3.0, "pitch": 62}]
    notes_path = tmp_path / "notes.json"
    notes_path.write_text(json.dumps(notes))
    code, summary = run_cli(capsys, "segment", "--mode", "rest",
                            "--notes", str(notes_path), "--clip-duration", "3.0")
    assert code == 0
    assert summary["n_segments"] == 2


def test_manifest_compose_rejects_an_overflowing_total(tmp_path, capsys):
    manifest, out = tmp_path / "m.jsonl", tmp_path / "o.jsonl"
    manifest.write_text(_MANIFEST_LINE % "1.7e308" + _MANIFEST_LINE % "1.7e308")
    _assert_rejected(capsys, ["manifest", "compose", "--manifest", manifest,
                              "--spec", "final", "--out", out], out)


def test_ddpm_train_finetune_sample_deterministic(tmp_path, capsys):
    model_dir = tmp_path / "model"
    code, summary = run_cli(capsys, "ddpm", "train", "--out-dir", str(model_dir),
                            "--seed", "3", "--steps", "120")
    assert code == 0
    assert summary["mean_last_50"] < summary["first_loss"]

    ft_dir = tmp_path / "ft"
    code, _ = run_cli(capsys, "ddpm", "finetune", "--model-dir", str(model_dir),
                      "--out-dir", str(ft_dir), "--seed", "4",
                      "--iterations", "50")
    assert code == 0
    # non-CLN tensors byte-identical between base and fine-tuned model
    for name in ("w1", "b1", "w2", "b2"):
        assert (model_dir / f"{name}.svcf").read_bytes() == \
            (ft_dir / f"{name}.svcf").read_bytes()
    changed = any(
        (model_dir / f"{n}.svcf").read_bytes() != (ft_dir / f"{n}.svcf").read_bytes()
        for n in ("cln_w_gamma", "cln_b_gamma", "cln_w_beta", "cln_b_beta")
    )
    assert changed

    s1, s2 = tmp_path / "s1.svcf", tmp_path / "s2.svcf"
    for out in (s1, s2):
        code, _ = run_cli(capsys, "ddpm", "sample", "--model-dir", str(ft_dir),
                          "--out", str(out), "--seed", "11")
        assert code == 0
    assert s1.read_bytes() == s2.read_bytes()


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_ddpm_train_rejects_nonpositive_steps(tmp_path, capsys, steps):
    out_dir = tmp_path / "model"
    code, summary = run_cli(capsys, "ddpm", "train", "--out-dir", str(out_dir),
                            "--seed", "0", "--steps", steps)
    assert code == 2
    assert summary is None
    assert not out_dir.exists()


def test_ddpm_sample_oracle_mode(tmp_path, capsys):
    out = tmp_path / "o.svcf"
    code, summary = run_cli(capsys, "ddpm", "sample-oracle", "--mean", "0.5",
                            "--std", "0.0", "--out", str(out),
                            "--seed", "5", "--dim", "4")
    assert code == 0
    assert summary["command"] == "ddpm sample-oracle"
    assert np.allclose(read_tensor(out), 0.5, atol=1e-5)


def test_eval_cossim(tmp_path, capsys):
    write_tensor(tmp_path / "a.svcf", np.array([1.0, 0.0], dtype=np.float32))
    write_tensor(tmp_path / "b.svcf", np.array([[1.0, 0.0], [0.0, 1.0]],
                                               dtype=np.float32))
    code, summary = run_cli(capsys, "eval", "cossim", "--a",
                            str(tmp_path / "a.svcf"), "--b", str(tmp_path / "b.svcf"))
    assert code == 0
    assert summary["n_pairs"] == 2
    assert summary["cossim"] == pytest.approx(0.5)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_eval_cossim_stays_in_the_unit_range(tmp_path, capsys, sign):
    # the unclipped cosine of [1, 1, 1] with itself rounds to 1 + 2**-52
    write_tensor(tmp_path / "a.svcf", np.ones((2, 3), dtype=np.float32))
    write_tensor(tmp_path / "b.svcf", sign * np.ones(3, dtype=np.float32))
    code, summary = run_cli(capsys, "eval", "cossim", "--a",
                            str(tmp_path / "a.svcf"), "--b", str(tmp_path / "b.svcf"))
    assert code == 0
    assert summary["n_pairs"] == 2
    assert summary["cossim"] == sign


def test_eval_f0(tmp_path, capsys):
    track = np.array([[220.0, 1.0], [0.0, 0.0]], dtype=np.float32)
    write_tensor(tmp_path / "a.svcf", track)
    write_tensor(tmp_path / "b.svcf", track)
    code, summary = run_cli(capsys, "eval", "f0", "--a", str(tmp_path / "a.svcf"),
                            "--b", str(tmp_path / "b.svcf"))
    assert code == 0
    assert summary["rmse_cents"] == 0.0
    assert summary["vuv_error_rate"] == 0.0


def test_config_show_lists_defaults(capsys):
    code, summary = run_cli(capsys, "config", "show")
    assert code == 0
    assert summary["defaults_version"] == "2"
    values = summary["values"]
    assert values["SAMPLE_RATE"] == 24000
    assert values["DIFFUSION_STEPS"] == 100
    assert values["GUIDANCE_SCALE"] == 1.0
    assert len(values) > 30


def test_exit_codes(tmp_path, capsys):
    # usage error: missing required flag
    code, _ = run_cli(capsys, "extract")
    assert code == 1
    # data error: missing input file
    code, _ = run_cli(capsys, "extract", "--in", str(tmp_path / "nope.wav"),
                      "--out-dir", str(tmp_path))
    assert code == 2
    # unknown spec name is a data error
    code, _ = run_cli(capsys, "manifest", "compose", "--spec", "bogus")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["segment", "--mode", "rest"],
    ["segment", "--mode", "vad"],
    ["ddpm", "sample", "--seed", "0"],
    ["ddpm", "sample-oracle", "--seed", "0"],
], ids=["rest-without-notes", "vad-without-in", "sample-without-model-or-oracle",
        "sample-oracle-without-mean"])
def test_mode_dependent_flag_missing_is_a_usage_error(tmp_path, capsys, argv):
    code = main(argv + ["--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("usage error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [
    ["--mean", "0.5"],
    ["--std", "2"],
    ["--dim", "3"],
    ["--steps", "7"],
    ["--mean", "0.5", "--dim", "3", "--steps", "7"],
])
def test_ddpm_sample_oracle_flags_with_a_model_are_a_usage_error(tmp_path, capsys, flags):
    model_dir, out = tmp_path / "model", tmp_path / "x.svcf"
    atomic_write_files(model_files(ToyDenoiser(dim=8, cond_dim=11, speaker_dim=4), model_dir))
    code = main(["ddpm", "sample", "--model-dir", str(model_dir), "--out", str(out),
                 "--seed", "2", *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("usage error: ")
    assert not out.exists()


def _usage_error_raisers(node, scope=""):
    """Dotted names of the functions under `node` whose own code raises
    `_UsageError`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _usage_error_raisers(child, f"{scope}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Raise) and any(
                isinstance(n, ast.Name) and n.id == "_UsageError" for n in ast.walk(child)):
            yield scope
        yield from _usage_error_raisers(child, scope)


def test_the_check_finds_a_usage_error_raise():
    source = ("class P:\n    def error(self):\n        raise _UsageError('x')\n"
              "def f():\n    def g():\n        raise _UsageError\n    raise ValueError\n")
    assert sorted(_usage_error_raisers(ast.parse(source))) == ["P.error", "f.g"]


def test_only_the_parser_and_segment_raise_usage_errors():
    # every other usage rule is argparse's: a required flag or a subcommand's flags
    tree = ast.parse(Path(cli.__file__).read_text())
    assert set(_usage_error_raisers(tree)) == {"_Parser.error", "_cmd_segment"}


def _writers(tree):
    """The top-level functions under `tree` that name the all-or-nothing
    writer or a `write_*` or `save_*` function."""
    for func in tree.body:
        if isinstance(func, ast.FunctionDef) and any(
                name == "atomic_write_files" or name.startswith(("write_", "save_"))
                for node in ast.walk(func)
                for name in [getattr(node, "id", None) or getattr(node, "attr", "")]):
            yield func.name


def test_the_check_finds_a_writer():
    source = ("def main():\n    atomic_write_files(f)\n"
              "def _cmd_a():\n    def g():\n        svcf.write_tensor(p, x)\n"
              "def _cmd_b():\n    save_stats(s, p)\ndef _cmd_c():\n    return tensor_bytes(x)\n")
    assert list(_writers(ast.parse(source))) == ["main", "_cmd_a", "_cmd_b"]


def test_main_is_the_one_place_that_writes():
    # every handler returns its files, and `main` writes them in one call
    assert list(_writers(ast.parse(Path(cli.__file__).read_text()))) == ["main"]


@pytest.mark.parametrize("case, message", [
    ("three-channel-wav", "3 channels"),
    ("partial-frame-wav", "not a whole number of frames"),
    ("svcf-dims-cut-short", "truncated header"),
])
def test_malformed_wav_and_svcf_files_exit_2(tmp_path, capsys, case, message):
    out = tmp_path / "out.json"
    if case == "svcf-dims-cut-short":  # ndim 2, but only one dim follows
        doc = tmp_path / "f0.svcf"
        doc.write_bytes(b"SVCF" + struct.pack("<III", 1, 2, 4))
        stats = tmp_path / "stats.json"
        _write_stats(stats)
        argv = ["convert-pitch", "--in", doc, "--out", out,
                "--source-stats", stats, "--target-stats", stats]
    else:
        doc = tmp_path / "in.wav"
        doc.write_bytes(_pcm16_wav([0] * 6, channels=3) if case == "three-channel-wav"
                        else _pcm16_wav([0] * 3, channels=2))
        argv = ["segment", "--mode", "vad", "--in", doc, "--out", out]
    before = sorted(tmp_path.iterdir())
    assert message in _assert_rejected(capsys, argv, out)
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command, flag, value", [
    ("extract", "--seed", "1"),
    ("f0-stats", "--material", "evaluation"),
    ("convert-pitch", "--offset-semitones", "3.5"),
])
def test_removed_flags_are_usage_errors(tmp_path, wavs, capsys, command, flag, value):
    out = tmp_path / "out"
    track, stats = tmp_path / "f0.svcf", tmp_path / "stats.json"
    write_tensor(track, np.array([[220.0, 1.0]], dtype=np.float32))
    _write_stats(stats)
    argv = {"extract": ["--in", wavs[0], "--out-dir", out],
            "f0-stats": ["--in", wavs[0], "--speaker-id", "s", "--out", out],
            "convert-pitch": ["--in", track, "--out", out, "--source-stats", stats,
                              "--target-stats", stats]}[command]
    before = sorted(tmp_path.iterdir())
    code = main([command, *map(str, argv), flag, value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert sorted(tmp_path.iterdir()) == before


def test_jobs_environment_variable_is_not_read(tmp_path, wavs, capsys, monkeypatch):
    monkeypatch.setenv("SVCFORGE_JOBS", "abc")
    code, summary = run_cli(capsys, "extract", "--in", str(wavs[0]),
                            "--out-dir", str(tmp_path / "out"))
    assert code == 0
    assert len(summary["files"]) == 1


@pytest.mark.parametrize("chunk", [b"fmt ", b"data"], ids=["fmt", "data"])
def test_extract_rejects_a_wav_with_a_repeated_chunk(tmp_path, capsys, chunk):
    wav, out_dir = tmp_path / "twice.wav", tmp_path / "out"
    wav.write_bytes(_wav_with_a_second(chunk))
    err = _assert_rejected(capsys, ["extract", "--in", wav, "--out-dir", out_dir], out_dir)
    assert f"more than one {chunk!r} chunk" in err


def _bad_json_document(path, kind):
    if kind == "directory":
        path.mkdir()
    elif kind == "non-utf8":
        path.write_bytes(b"\xff\xfe\x00\x81 binary")
    elif kind == "malformed":
        path.write_text('{"truncated": ')
    elif kind == "wrong-type":
        path.write_text("3")


def _assert_rejected(capsys, argv, *outputs):
    """Exit 2 with one stderr line, no stdout and none of `outputs` written;
    returns the stderr text."""
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    for out in outputs:
        assert not out.exists()
    return captured.err


def _write_raw_svcf(path, array):
    """SVCF bytes written by hand, for values that `write_tensor` refuses."""
    arr = np.ascontiguousarray(array, dtype="<f4")
    path.write_bytes(b"SVCF" + struct.pack(f"<II{arr.ndim}I", 1, arr.ndim, *arr.shape)
                     + arr.tobytes())


def _write_stats(path):
    path.write_text(json.dumps({"speaker_id": "s", "mean_log_f0": 5.4,
                                "std_log_f0": 0.1, "n_voiced_frames": 10}))


@pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8", "malformed",
                                  "wrong-type"])
@pytest.mark.parametrize("reader", ["notes", "stats", "model-index", "spec",
                                    "wav", "svcf", "manifest"])
def test_json_readers_reject_bad_documents(tmp_path, capsys, reader, kind):
    out = tmp_path / "out.svcf"
    if reader == "notes":
        doc = tmp_path / "notes.json"
        argv = ["segment", "--mode", "rest", "--notes", str(doc), "--out", str(out)]
    elif reader == "stats":
        doc = tmp_path / "stats.json"
        track = tmp_path / "f0.svcf"
        write_tensor(track, np.array([[220.0, 1.0]], dtype=np.float32))
        argv = ["convert-pitch", "--in", str(track), "--out", str(out),
                "--source-stats", str(doc), "--target-stats", str(doc)]
    elif reader == "model-index":
        model_dir = tmp_path / "model"
        model_dir.mkdir()
        doc = model_dir / "index.json"
        argv = ["ddpm", "sample", "--model-dir", str(model_dir), "--out", str(out),
                "--seed", "0"]
    elif reader == "spec":
        doc = tmp_path / "spec.json"
        argv = ["manifest", "compose", "--spec", str(doc), "--out", str(out)]
    elif reader == "wav":
        doc = tmp_path / "in.wav"
        argv = ["segment", "--mode", "vad", "--in", str(doc), "--out", str(out)]
    elif reader == "svcf":
        doc = tmp_path / "f0.svcf"
        stats = tmp_path / "stats.json"
        _write_stats(stats)
        argv = ["convert-pitch", "--in", str(doc), "--out", str(out),
                "--source-stats", str(stats), "--target-stats", str(stats)]
    else:
        doc = tmp_path / "manifest.jsonl"
        argv = ["manifest", "compose", "--manifest", str(doc), "--spec", "final",
                "--out", str(out)]
    _bad_json_document(doc, kind)
    _assert_rejected(capsys, argv, out)


@pytest.mark.parametrize("key, value", [
    ("languages", "en"),
    ("kinds", "singing"),
    ("always_include_datasets", "svcc2023"),
    ("languages", ["en", 3]),
    ("always_include_datasets", None),
])
def test_manifest_compose_spec_filters_must_be_arrays(tmp_path, capsys, key, value):
    spec = {"name": "s", "languages": ["en"], "kinds": None, key: value}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "out.jsonl"
    _assert_rejected(capsys, ["manifest", "compose", "--spec", spec_path, "--out", out],
                     out)


@pytest.mark.parametrize("argv", [
    ["extract", "--in", "a.wav", "--out-dir", ""],
    ["ddpm", "train", "--out-dir", "", "--seed", "0", "--steps", "3"],
    ["ddpm", "finetune", "--model-dir", "model", "--out-dir", "", "--seed", "0",
     "--iterations", "3"],
    ["ddpm", "finetune", "--model-dir", "", "--out-dir", "tuned", "--seed", "0",
     "--iterations", "3"],
    ["ddpm", "sample", "--model-dir", "", "--out", "s.svcf", "--seed", "0"],
])
def test_an_empty_directory_path_is_rejected(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write_wav(sine(440, 0.3), "a.wav")
    for out_dir in (".", "model"):  # a model in the working directory, read by --model-dir ""
        assert main(["ddpm", "train", "--out-dir", out_dir, "--seed", "0", "--steps", "3"]) == 0
    capsys.readouterr()
    before = {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
    err = _assert_rejected(capsys, argv)
    assert "must not be empty" in err
    assert {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")} == before


def test_extract_rejects_inputs_with_the_same_stem(tmp_path, capsys):
    inputs = [tmp_path / "a" / "x.wav", tmp_path / "b" / "x.wav"]
    for path, clip in zip(inputs, (sine(440, 0.3), sawtooth(220, 0.3))):
        path.parent.mkdir()
        write_wav(clip, path)
    out_dir = tmp_path / "out"
    _assert_rejected(capsys, ["extract", "--in", inputs[0], "--in", inputs[1],
                              "--out-dir", out_dir], out_dir)


@pytest.mark.parametrize("corruption", ["wrong-shape", "missing-param", "outside-path",
                                        "non-finite", "fractional-steps", "huge-steps",
                                        "narrow-w1", "vector-w2", "legacy-hidden",
                                        "huge-legacy-hidden", "nul-in-path",
                                        "symlink-loop"])
def test_ddpm_rejects_corrupt_model(tmp_path, capsys, corruption):
    model_dir = tmp_path / "model"
    atomic_write_files(model_files(ToyDenoiser(dim=8, cond_dim=11, speaker_dim=4), model_dir))
    index_path = model_dir / "index.json"
    index = json.loads(index_path.read_text())
    w1 = read_tensor(model_dir / "w1.svcf")
    if corruption == "wrong-shape":
        write_tensor(model_dir / "w1.svcf", w1[:, :-1])
    elif corruption == "narrow-w1":  # 8 + 2 * 4 columns leave no condition summary
        write_tensor(model_dir / "w1.svcf", w1[:, :16])
    elif corruption == "vector-w2":
        write_tensor(model_dir / "w2.svcf", read_tensor(model_dir / "w2.svcf")[0])
    elif corruption == "huge-steps":
        index["num_steps"] = 10**12
    elif corruption.endswith("legacy-hidden"):
        index.update(dim=8, cond_dim=11, speaker_dim=4, time_freqs=4,
                     hidden=10**11 if corruption.startswith("huge") else 33)
    elif corruption == "missing-param":
        del index["params"]["b2"]
    elif corruption == "nul-in-path":
        index["params"]["w1"] = "w1\u0000.svcf"
    elif corruption == "symlink-loop":
        (model_dir / "loop.svcf").symlink_to("loop.svcf")
        index["params"]["w1"] = "loop.svcf"
    elif corruption == "outside-path":
        write_tensor(tmp_path / "outside.svcf", w1)
        index["params"]["w1"] = "../outside.svcf"
    elif corruption == "fractional-steps":
        index["num_steps"] = 100.5
    else:
        w1[0, 0] = np.nan
        _write_raw_svcf(model_dir / "w1.svcf", w1)
    index_path.write_text(json.dumps(index))
    out = tmp_path / "s.svcf"
    _assert_rejected(capsys, ["ddpm", "sample", "--model-dir", model_dir, "--out", out,
                              "--seed", "0"], out)
    _assert_rejected(capsys, ["ddpm", "finetune", "--model-dir", model_dir,
                              "--out-dir", out, "--seed", "0", "--iterations", "5"], out)


@pytest.mark.parametrize("case", [
    "extract --in", "f0-stats --in", "perturb --in", "segment --in", "eval f0 --a",
    "manifest compose --spec", "segment --notes", "ddpm sample --model-dir",
    "ddpm train --out-dir file", "ddpm train --out-dir under-file",
    "ddpm finetune --out-dir file", "extract --out-dir long/sub"])
def test_paths_the_os_refuses_exit_2(tmp_path, wavs, capsys, case):
    # a name longer than the OS allows; `--spec` reads a .json name as a file
    long = tmp_path / ("x" * 300 + ".json")
    afile = tmp_path / "afile"
    afile.write_bytes(b"")
    model_dir = tmp_path / "model"
    atomic_write_files(model_files(ToyDenoiser(dim=8, cond_dim=11, speaker_dim=4), model_dir))
    out = tmp_path / "out.json"
    argv = {
        "extract --in": ["extract", "--in", long, "--out-dir", tmp_path / "ex"],
        "f0-stats --in": ["f0-stats", "--in", long, "--speaker-id", "s", "--out", out],
        "perturb --in": ["perturb", "--in", long, "--out-a", tmp_path / "pa.wav",
                         "--out-b", tmp_path / "pb.wav", "--seed", "0"],
        "segment --in": ["segment", "--mode", "vad", "--in", long, "--out", out],
        "eval f0 --a": ["eval", "f0", "--a", long, "--b", long],
        "manifest compose --spec": ["manifest", "compose", "--spec", long, "--out", out],
        "segment --notes": ["segment", "--mode", "rest", "--notes", long, "--out", out],
        "ddpm sample --model-dir": ["ddpm", "sample", "--model-dir", long, "--out", out,
                                    "--seed", "0"],
        "ddpm train --out-dir file": ["ddpm", "train", "--out-dir", afile, "--seed", "0",
                                      "--steps", "2"],
        "ddpm train --out-dir under-file": ["ddpm", "train", "--out-dir", afile / "m",
                                            "--seed", "0", "--steps", "2"],
        "ddpm finetune --out-dir file": ["ddpm", "finetune", "--model-dir", model_dir,
                                         "--out-dir", afile, "--seed", "0",
                                         "--iterations", "2"],
        "extract --out-dir long/sub": ["extract", "--in", wavs[0], "--out-dir",
                                       tmp_path / ("x" * 300) / "sub"],
    }[case]
    before = sorted(tmp_path.rglob("*"))
    _assert_rejected(capsys, argv)
    assert sorted(tmp_path.rglob("*")) == before
    assert afile.read_bytes() == b""


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\v", "\x85", "\u2028"])
def test_path_with_line_break_keeps_one_stderr_line(tmp_path, capsys, brk):
    missing = tmp_path / f"no{brk}such.svcf"
    _assert_rejected(capsys, ["eval", "f0", "--a", missing, "--b", "x"])


@pytest.mark.parametrize("command, name", [
    ("f0-stats", "y" * 245 + ".json"), ("extract", "y" * 246), ("extract", "y" * 250),
    ("extract", "y" * 255),
], ids=["f0-stats-250", "extract-246", "extract-250", "extract-255"])
def test_output_name_of_250_bytes_is_written(tmp_path, wavs, capsys, command, name):
    out = tmp_path / name
    flags = {"f0-stats": ["--speaker-id", "s", "--out", str(out)],
             "extract": ["--out-dir", str(out)]}[command]
    stdouts = []
    for _ in range(2):
        assert main([command, "--in", str(wavs[0]), *flags]) == 0
        stdouts.append(capsys.readouterr().out)
    assert stdouts[0] == stdouts[1]
    summary = json.loads(stdouts[0])
    written = [summary["out"]] if command == "f0-stats" else \
        list(summary["files"][0]["outputs"].values())
    assert len(written) == {"f0-stats": 1, "extract": 3}[command]
    assert set(tmp_path.rglob("*")) == {*wavs, out, *map(Path, written)}


@pytest.mark.parametrize("command, tensor", [
    ("convert-pitch", [[220.0, 1.0], [np.nan, 1.0]]),
    ("convert-pitch", [[220.0, 1.0], [-220.0, 1.0]]),
    ("eval-f0", [[220.0, 1.0], [np.nan, 1.0]]),
    ("eval-f0", [[220.0, 1.0], [-220.0, 1.0]]),
    ("eval-cossim", [1.0, np.nan]),
])
def test_tensors_with_bad_values_rejected(tmp_path, capsys, command, tensor):
    bad, good = tmp_path / "bad.svcf", tmp_path / "good.svcf"
    _write_raw_svcf(bad, np.array(tensor, dtype=np.float32))
    out = tmp_path / "out.svcf"
    if command == "convert-pitch":
        stats = tmp_path / "stats.json"
        _write_stats(stats)
        argv = ["convert-pitch", "--in", bad, "--out", out,
                "--source-stats", stats, "--target-stats", stats]
    elif command == "eval-f0":
        write_tensor(good, np.array([[220.0, 1.0], [220.0, 1.0]], dtype=np.float32))
        argv = ["eval", "f0", "--a", good, "--b", bad]
    else:
        write_tensor(good, np.array([1.0, 0.0], dtype=np.float32))
        argv = ["eval", "cossim", "--a", bad, "--b", good]
    _assert_rejected(capsys, argv, out)


def test_eval_cossim_rejects_tensors_above_two_dimensions(tmp_path, capsys):
    cube, vec = tmp_path / "cube.svcf", tmp_path / "vec.svcf"
    write_tensor(cube, np.ones((2, 2, 2), dtype=np.float32))
    write_tensor(vec, np.ones(2, dtype=np.float32))
    _assert_rejected(capsys, ["eval", "cossim", "--a", cube, "--b", cube])
    _assert_rejected(capsys, ["eval", "cossim", "--a", vec, "--b", cube])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f0_hz", [[220.0, 221.0], [800.0, 801.0]],
                         ids=["underflow", "overflow"])
def test_convert_pitch_rejects_f0_out_of_range_before_writing(tmp_path, capsys, f0_hz):
    track = tmp_path / "in.svcf"
    write_tensor(track, np.array([[f, 1.0] for f in f0_hz], dtype=np.float32))
    source, target = tmp_path / "x.json", tmp_path / "y.json"
    source.write_text(json.dumps({"speaker_id": "x", "mean_log_f0": 5.99,
                                  "std_log_f0": 0.001, "n_voiced_frames": 10}))
    target.write_text(json.dumps({"speaker_id": "y", "mean_log_f0": 5.4,
                                  "std_log_f0": 100.0, "n_voiced_frames": 10}))
    out = tmp_path / "out.svcf"
    _assert_rejected(capsys, ["convert-pitch", "--in", track, "--out", out,
                              "--source-stats", source, "--target-stats", target,
                              "--scale-sigma"], out)


_MANIFEST_LINE = ('{"id": "x", "path": "x.wav", "dataset": "d", "language": "en", '
                  '"kind": "singing", "speaker": "s", "duration_sec": %s, '
                  '"sample_rate": 24000}\n')


@pytest.mark.parametrize("document, token", [
    ("manifest", "NaN"), ("manifest", "Infinity"), ("manifest", "1e999"),
    ("manifest", "1" + "0" * 400), ("notes", "Infinity"), ("notes", "1e999"),
    ("notes", "1" + "0" * 400), ("stats", "Infinity"),
], ids=["manifest-NaN", "manifest-Infinity", "manifest-1e999", "manifest-huge-int",
        "notes-Infinity", "notes-1e999", "notes-huge-int", "stats-Infinity"])
def test_json_readers_reject_non_finite_numbers(tmp_path, capsys, document, token):
    doc = tmp_path / "doc.json"
    out = tmp_path / "out.json"
    if document == "manifest":
        doc.write_text(_MANIFEST_LINE % "3600.0" + _MANIFEST_LINE % token)
        argv = ["manifest", "compose", "--manifest", doc, "--spec", "final", "--out", out]
    elif document == "notes":
        doc.write_text('[{"onset_sec": 0.0, "offset_sec": %s, "pitch": 60}]' % token)
        argv = ["segment", "--mode", "rest", "--notes", doc, "--out", out]
    else:
        doc.write_text('{"speaker_id": "s", "mean_log_f0": 5.4, "std_log_f0": %s, '
                       '"n_voiced_frames": 10}' % token)
        track = tmp_path / "f0.svcf"
        write_tensor(track, np.array([[220.0, 1.0]], dtype=np.float32))
        argv = ["convert-pitch", "--in", track, "--out", out,
                "--source-stats", doc, "--target-stats", doc]
    _assert_rejected(capsys, argv, out)


_RECORDS = {
    "manifest": {"id": "x", "path": "x.wav", "dataset": "d", "language": "en",
                 "kind": "singing", "speaker": "s", "duration_sec": 3600.0,
                 "sample_rate": 24000},
    "spec": {"name": "s", "languages": ["en"], "kinds": None},
    "notes": {"onset_sec": 0.0, "offset_sec": 1.0, "pitch": 60},
    "stats": {"speaker_id": "s", "mean_log_f0": 5.4, "std_log_f0": 0.1,
              "n_voiced_frames": 10},
}


@pytest.mark.parametrize("document, key, value", [
    ("manifest", "speaker", None), ("manifest", "id", ["x"]),
    ("manifest", "duration_sec", True), ("manifest", "duration_sec", "3600"),
    ("manifest", "sample_rate", 44100.9), ("manifest", "sample_rate", 48000.0),
    ("manifest", "sample_rate", "48000"), ("manifest", "sample_rate", True),
    ("spec", "name", None), ("notes", "onset_sec", "0"), ("notes", "pitch", 60.7),
    ("notes", "pitch", True), ("notes", "pitch", "C4"), ("stats", "speaker_id", 5),
    ("stats", "mean_log_f0", "5.4"), ("stats", "n_voiced_frames", 10.9),
])
def test_json_records_require_field_types(tmp_path, capsys, document, key, value):
    doc = tmp_path / "doc.json"
    out = tmp_path / "out.json"
    record = {**_RECORDS[document], key: value}
    if document == "manifest":
        doc.write_text(json.dumps(_RECORDS["manifest"]) + "\n" + json.dumps(record) + "\n")
        argv = ["manifest", "compose", "--manifest", doc, "--spec", "final", "--out", out]
    elif document == "spec":
        doc.write_text(json.dumps(record))
        argv = ["manifest", "compose", "--spec", doc, "--out", out]
    elif document == "notes":
        doc.write_text(json.dumps([record]))
        argv = ["segment", "--mode", "rest", "--notes", doc, "--out", out]
    else:
        doc.write_text(json.dumps(record))
        track = tmp_path / "f0.svcf"
        write_tensor(track, np.array([[220.0, 1.0]], dtype=np.float32))
        argv = ["convert-pitch", "--in", track, "--out", out,
                "--source-stats", doc, "--target-stats", doc]
    _assert_rejected(capsys, argv, out)


def test_json_records_accept_their_field_types(tmp_path, capsys):
    notes = tmp_path / "notes.json"
    notes.write_text(json.dumps([{"onset_sec": 0, "offset_sec": 1.5, "pitch": 60},
                                 {"onset_sec": 1.5, "offset_sec": 2, "pitch": "Rest"},
                                 {"onset_sec": 2, "offset_sec": 3, "pitch": None},
                                 {"onset_sec": 3, "offset_sec": 4}]))
    code, summary = run_cli(capsys, "segment", "--mode", "rest", "--notes", str(notes))
    assert code == 0
    assert summary["n_segments"] == 1


@pytest.mark.parametrize("command", ["sample", "finetune"])
def test_ddpm_rejects_a_model_whose_condition_width_differs(tmp_path, capsys, command):
    model_dir, out = tmp_path / "model", tmp_path / "out"
    model = ToyDenoiser(dim=4, cond_dim=5, speaker_dim=3, seed=1)
    atomic_write_files(model_files(model, model_dir))
    argv = ["ddpm", command, "--model-dir", model_dir, "--seed", "1"]
    argv += ["--out", out] if command == "sample" else \
        ["--out-dir", out, "--iterations", "3"]
    _assert_rejected(capsys, argv, out)


def test_extract_failure_on_a_later_input_leaves_no_outputs(tmp_path, capsys):
    good, bad = tmp_path / "good.wav", tmp_path / "bad.wav"
    write_wav(sine(440, 0.3), good)
    bad.write_bytes(b"RIFFxxxxWAVEjunk")
    out_dir = tmp_path / "o"
    for jobs in ("1", "2"):
        _assert_rejected(capsys, ["extract", "--in", good, "--in", bad,
                                  "--out-dir", out_dir, "--jobs", jobs], out_dir)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.wav", "good.wav"]


def test_non_finite_summary_is_a_validation_error(capsys, monkeypatch):
    import svcforge.cli as cli
    monkeypatch.setattr(cli, "_cmd_config_show", lambda args: ({"x": float("nan")}, []))
    _assert_rejected(capsys, ["config", "show"])


@pytest.mark.parametrize("command, flags", [
    ("sample", ["--mean", "0", "--guidance-scale", "inf"]),
    ("sample", ["--mean", "0", "--guidance-scale", "nan"]),
    ("sample", ["--mean", "0", "--dim", "0"]),
    ("sample", ["--mean", "nan"]),
    ("sample", ["--mean", "0", "--std", "nan"]),
    ("sample", ["--mean", "0", "--std", "inf"]),
    ("train", ["--lr", "nan"]),
    ("train", ["--lr", "0"]),
    ("train", ["--lr", "inf"]),
    ("train", ["--p-uncond", "5"]),
    ("train", ["--p-uncond", "-0.1"]),
    ("train", ["--p-uncond", "nan"]),
    ("finetune", ["--lr", "nan"]),
    ("finetune", ["--lr", "-0.001"]),
    ("rest", ["--min-rest-sec", "nan"]),
    ("rest", ["--min-rest-sec", "inf"]),
    ("rest", ["--min-rest-sec", "-1"]),
    ("rest", ["--clip-duration", "nan"]),
    ("vad", ["--vad-frame-ms", "0"]),
    ("vad", ["--vad-frame-ms", "nan"]),
    ("vad", ["--vad-energy-floor-dbfs", "nan"]),
    ("vad", ["--vad-hangover-ms", "inf"]),
    ("cossim", []),
    ("sample", ["--mean", "0", "--std", "1e200"]),
    ("sample", ["--mean", "0", "--std", "1e154", "--steps", "100"]),
    ("sample", ["--mean", "1e300", "--dim", "2"]),
    ("train", ["--lr", "1e300", "--steps", "50"]),
    ("train", ["--lr", "1e30", "--steps", "50"]),
    ("finetune", ["--lr", "1e300", "--iterations", "50"]),
    ("extract", ["--f0-ceil", "nan"]),
    ("f0-stats", ["--f0-floor", "inf"]),
    ("perturb", ["--seed", "-1"]),
    ("train", ["--seed", "-1"]),
    ("finetune", ["--seed", "-1"]),
    ("sample", ["--mean", "0", "--seed", "-2"]),
    ("sample-model", ["--seed", "-2"]),
    ("extract", ["--f0-floor", "-1"]),
    ("sample", ["--mean", "0", "--dim", "-1"]),
    ("extract", ["--f0-floor", "5e-324"]),
    # sizes of about 10**12 elements, beyond the element budget
    ("sample", ["--mean", "0", "--dim", str(10**12)]),
    ("sample", ["--mean", "0", "--steps", str(10**12)]),
    ("train", ["--steps", str(10**12)]),
    ("train", ["--diffusion-steps", str(10**12)]),
    ("train", ["--hidden", str(10**11)]),
    ("train", ["--speaker-dim", str(10**11)]),
    ("train", ["--dim", str(10**12)]),
    # a clip duration <= 0, a negative VAD duration, fewer than one worker
    ("rest", ["--clip-duration", "0"]),
    ("rest", ["--clip-duration", "-1"]),
    ("vad", ["--vad-min-speech-ms", "-5"]),
    ("vad", ["--vad-hangover-ms", "-5"]),
    ("vad", ["--vad-min-gap-ms", "-5"]),
    ("extract", ["--jobs", "0"]),
    ("extract", ["--jobs", "-3"]),
    ("f0-stats", ["--jobs", "0"]),
])
def test_numeric_flags_checked_before_any_output(tmp_path, wavs, capsys, command, flags):
    out = tmp_path / "out"
    if command == "sample":  # the oracle sampler; "sample-model" loads a model
        argv = ["ddpm", "sample-oracle", "--out", out, "--seed", "0", "--steps", "5"]
    elif command == "train":
        argv = ["ddpm", "train", "--out-dir", out, "--seed", "0", "--steps", "5"]
    elif command in ("finetune", "sample-model"):
        model_dir = tmp_path / "model"
        model = ToyDenoiser(dim=8, cond_dim=11, speaker_dim=4)
        atomic_write_files(model_files(model, model_dir))
        argv = ["ddpm", "finetune", "--model-dir", model_dir, "--out-dir", out,
                "--seed", "0", "--iterations", "5"] if command == "finetune" else \
            ["ddpm", "sample", "--model-dir", model_dir, "--out", out, "--seed", "0"]
    elif command == "perturb":
        argv = ["perturb", "--in", wavs[0], "--out-a", out, "--out-b", tmp_path / "b.wav",
                "--seed", "0"]
    elif command == "extract":
        argv = ["extract", "--in", wavs[0], "--out-dir", out]
    elif command == "f0-stats":
        argv = ["f0-stats", "--in", wavs[0], "--speaker-id", "s", "--out", out]
    elif command == "rest":
        notes = tmp_path / "notes.json"
        notes.write_text('[{"onset_sec": 0.0, "offset_sec": 1.0, "pitch": 60},'
                         ' {"onset_sec": 2.0, "offset_sec": 3.0, "pitch": 62}]')
        argv = ["segment", "--mode", "rest", "--notes", notes, "--out", out]
    elif command == "vad":
        argv = ["segment", "--mode", "vad", "--in", wavs[0], "--out", out]
    else:
        empty = tmp_path / "empty.svcf"
        write_tensor(empty, np.zeros((0, 2), dtype=np.float32))
        argv = ["eval", "cossim", "--a", empty, "--b", empty]
    _assert_rejected(capsys, argv + flags, out)


@pytest.mark.parametrize("command", ["extract", "f0-stats"])
@pytest.mark.parametrize("flag", ["--hop", "--win-length", "--fft-size"])
def test_frame_grid_is_not_settable(tmp_path, wavs, capsys, command, flag):
    out = tmp_path / "out"
    argv = ["--in", str(wavs[0]), flag, "120"]
    argv += ["--out-dir", str(out)] if command == "extract" else \
        ["--speaker-id", "s", "--out", str(out)]
    code = main([command] + argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["extract", "--help"],
    ["f0-stats", "--help"],
    ["convert-pitch", "--help"],
    ["perturb", "--help"],
    ["segment", "--help"],
    ["manifest", "compose", "--help"],
    ["ddpm", "train", "--help"],
    ["ddpm", "finetune", "--help"],
    ["ddpm", "sample", "--help"],
    ["ddpm", "sample-oracle", "--help"],
    ["eval", "cossim", "--help"],
    ["eval", "f0", "--help"],
    ["config", "show", "--help"],
])
def test_help_available_everywhere(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--help" in out or "usage" in out


def test_help_mentions_units(capsys):
    for command, units in [("convert-pitch", ("semitones", "cents")),
                           ("segment", ("ms", "dBFS"))]:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        for needle in units:
            assert needle in out


# every command's options but -h/--help, in the order `--help` lists them
_OPTIONS = {
    "extract": "--in --out-dir --jobs --f0-floor --f0-ceil",
    "f0-stats": "--in --speaker-id --out --jobs --f0-floor --f0-ceil",
    "convert-pitch": "--in --out --source-stats --target-stats --policy --scale-sigma "
                     "--quantize-cents",
    "perturb": "--in --out-a --out-b --seed",
    "segment": "--in --mode --out --notes --min-rest-sec --clip-duration --vad-frame-ms "
               "--vad-energy-floor-dbfs --vad-min-speech-ms --vad-hangover-ms "
               "--vad-min-gap-ms",
    "manifest compose": "--manifest --spec --out",
    "ddpm train": "--out-dir --seed --steps --lr --p-uncond --dim --hidden --speaker-dim "
                  "--diffusion-steps",
    "ddpm finetune": "--model-dir --out-dir --seed --iterations --lr",
    "ddpm sample": "--model-dir --out --seed --guidance-scale",
    "ddpm sample-oracle": "--mean --std --dim --steps --out --seed --guidance-scale",
    "eval cossim": "--a --b",
    "eval f0": "--a --b",
    "config show": "",
}


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    argvs = [shlex.split(line, comments=True)[1:] for line in lines
             if line.startswith("svcforge ")]
    assert argvs
    for argv in argvs:
        try:
            build_parser().parse_args(argv)
        except Exception as exc:
            pytest.fail(f"svcforge {shlex.join(argv)}: {exc}")


def test_cli_option_surface():
    def commands(parser, prefix):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield prefix, " ".join(o for a in parser._actions for o in a.option_strings
                                   if o not in ("-h", "--help"))
        for sub in subs:
            for name, child in sub.choices.items():
                yield from commands(child, f"{prefix} {name}".strip())

    assert dict(commands(build_parser(), "")) == _OPTIONS


def _too_fine_rate_wav(path):
    """0.2 s of silence at 1,000,003 Hz, a rate coprime with 24 kHz."""
    write_wav(AudioClip(np.zeros(200_000), 1_000_003), path)


@pytest.mark.parametrize("command", ["extract", "segment", "perturb", "f0-stats"])
def test_wav_rate_too_fine_to_resample_is_rejected(tmp_path, capsys, command):
    wav, out = tmp_path / "in.wav", tmp_path / "out"
    _too_fine_rate_wav(wav)
    argv = {"extract": ["--out-dir", out], "segment": ["--mode", "vad", "--out", out],
            "perturb": ["--out-a", out, "--out-b", tmp_path / "b.wav", "--seed", "0"],
            "f0-stats": ["--speaker-id", "s", "--out", out]}[command]
    _assert_rejected(capsys, [command, "--in", wav] + argv, out)


def test_wav_rate_too_fine_to_resample_fails_cleanly_under_a_memory_cap(tmp_path):
    # the parent build allocated about 1.5 GiB here and exited 3 on MemoryError
    import resource

    def cap():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))

    wav = tmp_path / "in.wav"
    _too_fine_rate_wav(wav)
    result = subprocess.run(
        [sys.executable, "-m", "svcforge", "extract", "--in", str(wav), "--out-dir", "ex"],
        capture_output=True, text=True, cwd=tmp_path, preexec_fn=cap,
        env={"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin"})
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.strip().splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.wav"]


@pytest.mark.parametrize("kind", ["mel", "loudness", "f0"])
def test_extract_moves_no_output_when_one_destination_is_a_directory(tmp_path, wavs,
                                                                     capsys, kind):
    out_dir = tmp_path / "ex"
    (out_dir / f"a.{kind}.svcf").mkdir(parents=True)
    _assert_rejected(capsys, ["extract", "--in", wavs[0], "--out-dir", out_dir])
    assert [p.name for p in out_dir.iterdir()] == [f"a.{kind}.svcf"]


def test_failed_run_leaves_no_partial_outputs(tmp_path, capsys):
    # second input is missing: the first file's outputs may exist (per-file
    # work is independent), but nothing partial is ever left behind
    good = tmp_path / "good.wav"
    write_wav(sine(440, 0.3), good)
    out_dir = tmp_path / "out"
    code, _ = run_cli(capsys, "extract", "--in", str(tmp_path / "missing.wav"),
                      "--out-dir", str(out_dir))
    assert code == 2
    leftovers = list(out_dir.glob("missing.*"))
    assert leftovers == []


def test_module_entrypoint_subprocess(tmp_path):
    env = {"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin"}
    result = subprocess.run(
        [sys.executable, "-m", "svcforge", "manifest", "compose",
         "--spec", "final"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["total_hours"] == pytest.approx(750.14, abs=0.01)


_SCIPY_PROBE = """
import contextlib, io, json, sys
import svcforge.cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m.startswith(("scipy.signal", "scipy.special")))

report = {"import svcforge.cli": scipy_loaded()}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = svcforge.cli.main(argv)
    report[" ".join(argv[:2])] = [code, scipy_loaded()]
print(json.dumps(report))
"""


def _scipy_modules_after(*argvs):
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps([list(map(str, a)) for a in argvs])],
        capture_output=True, text=True, env={"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_commands_that_neither_resample_nor_equalise_load_no_scipy(tmp_path):
    report = _scipy_modules_after(
        ["config", "show"],
        ["ddpm", "train", "--steps", 5, "--seed", 0, "--out-dir", tmp_path / "m"],
        ["ddpm", "sample-oracle", "--mean", 0, "--seed", 0, "--out", tmp_path / "x.svcf"],
        ["manifest", "compose", "--spec", "final"],
    )
    assert report == {
        "import svcforge.cli": [],
        "config show": [0, []],
        "ddpm train": [0, []],
        "ddpm sample-oracle": [0, []],
        "manifest compose": [0, []],
    }


def test_extract_of_a_44k_wav_loads_scipy_signal(tmp_path):
    wav = tmp_path / "a.wav"
    write_wav(sine(440, 0.2, sample_rate=44100), wav)
    report = _scipy_modules_after(["extract", "--in", wav, "--out-dir", tmp_path / "out"])
    code, loaded = report["extract --in"]
    assert code == 0
    assert "scipy.signal" in loaded
