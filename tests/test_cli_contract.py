"""The CLI's exit-code contract under malformed inputs.

Whatever the input files, numeric flags and paths, a file-reading subcommand
either exits 0 with exactly one strict-JSON line on stdout, or exits 1 or 2
with exactly one line on stderr, nothing on stdout and no new file. It never
exits 3, and a success leaves no temp file beside its outputs.

The runs go in-process through `main`. The example count comes from the
loaded hypothesis profile: 50 under tier-1's `numeric`, 500 under
`--hypothesis-profile=contract-deep` (see conftest.py). Every test is
derandomized, so a given profile always runs the same examples.

Integer flags that size an allocation (`--dim`, `--hidden`, `--speaker-dim`,
`--steps`, `--diffusion-steps`, `--eq-bands`) are drawn from small values
and from values above the element budget (`errors.MAX_ELEMENTS`), which a
run rejects before it allocates; so no admitted value is large. A model
index's `num_steps` is drawn the same way. `--iterations` is drawn from
small values only: it sizes no allocation for the budget to bound, so a
large admitted value would simply run for a very long time.
"""

import contextlib
import io
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svcforge.audio import write_wav
from svcforge.cli import main
from svcforge.diffusion import ToyDenoiser, save_model
from svcforge.errors import MAX_ELEMENTS
from svcforge.svcf import write_tensor
from synth import sine

contract = settings(derandomize=True)


_RECORDS = {
    "manifest": {"id": "x", "path": "x.wav", "dataset": "svcc2023", "language": "en",
                 "kind": "singing", "speaker": "IDF1", "duration_sec": 3600.0,
                 "sample_rate": 24000},
    "spec": {"name": "s", "languages": ["en"], "kinds": None,
             "always_include_datasets": ["svcc2023"]},
    "notes": {"onset_sec": 0.0, "offset_sec": 1.0, "pitch": 60},
    "stats": {"speaker_id": "s", "mean_log_f0": 5.4, "std_log_f0": 0.1,
              "n_voiced_frames": 10},
}


def _strict(token):
    raise ValueError(f"non-strict JSON token {token}")


def _run(work: Path, argv: list, outputs: list) -> None:
    """Run `main(argv)` and check the contract. `outputs` are the paths a
    success may create; a path inside an output directory also counts."""
    before = set(work.rglob("*"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    new = set(work.rglob("*")) - before
    assert code in (0, 1, 2), err.getvalue()
    if code == 0:
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        json.loads(lines[0], parse_constant=_strict)
        allowed = set(outputs)
        assert all(p in allowed or p.parent in allowed for p in new), new
    else:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
        assert not new


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Valid inputs shared by every example: a WAV, an F0 track, a stats
    file, a note list and a trained model."""
    d = tmp_path_factory.mktemp("contract")
    write_wav(sine(220, 0.3), d / "in.wav")
    write_tensor(d / "f0.svcf", np.array([[220.0, 1.0], [0.0, 0.0], [230.0, 1.0]]))
    (d / "stats.json").write_text(json.dumps(_RECORDS["stats"]))
    (d / "notes.json").write_text(json.dumps(
        [_RECORDS["notes"], {"onset_sec": 2.0, "offset_sec": 3.0, "pitch": 62}]))
    save_model(ToyDenoiser(dim=8, cond_dim=11, speaker_dim=4, hidden=8), d / "model")
    return d


# -- malformed WAVs -----------------------------------------------------------

# 47,952 and 44,056 Hz reduce to large but allowed ratios; 48,001, 50,003,
# 1,000,003 and 2^32 - 1 Hz reduce to ratios beyond the resampler's bound
_RATES = [0, 1, 100, 8000, 11025, 16000, 22050, 24000, 44056, 44100, 47952, 48000,
          48001, 50003, 88200, 96000, 192000, 1_000_003, 2**32 - 1]
_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


@st.composite
def malformed_wavs(draw):
    tag = draw(st.sampled_from([1, 3, 0xFFFE, 0, 2]))
    channels = draw(st.integers(0, 3))
    rate = draw(st.sampled_from(_RATES))
    bits = draw(st.sampled_from([16, 24, 32, 8, 64, 0]))
    block = channels * bits // 8
    frames = min(rate * draw(st.integers(0, 300)) // 1000, 20_000)
    fmt = struct.pack("<HHIIHH", tag, channels, rate, (rate * block) % 2**32, block, bits)
    if tag == 0xFFFE:
        sub = draw(st.sampled_from([1, 3, 2]))
        tail = draw(st.sampled_from([_GUID_TAIL, bytes(14)]))
        fmt += struct.pack("<HHI", 22, bits, 0) + struct.pack("<H", sub) + tail
        fmt = fmt[:draw(st.sampled_from([40, 40, 24]))]
    # a deterministic payload; as float32 some of its words are NaN or infinite
    data = np.sin(np.arange(frames * block) * 0.37) * 127
    data = data.astype(np.int8).tobytes()
    fmt_size = len(fmt) + draw(st.sampled_from([0, 0, -2, 2]))
    data_size = draw(st.sampled_from([len(data), len(data), len(data) + 1,
                                      max(len(data) - 1, 0), 2**32 - 1]))
    body = b"fmt " + struct.pack("<I", max(fmt_size, 0)) + fmt
    if draw(st.booleans()):
        body += b"LIST" + struct.pack("<I", 3) + b"abc\x00"  # odd size, padded
    body += b"data" + struct.pack("<I", data_size) + data
    blob = draw(st.sampled_from([b"RIFF", b"RIFX"])) + struct.pack("<I", 4 + len(body))
    blob += b"WAVE" + body
    cut = draw(st.sampled_from([None, None, 4, 20, 44, -1, -3]))
    return blob if cut is None else blob[:cut]


def _wav_argv(command, wav, work):
    out = work / "out"
    argv = {
        "extract": (["--out-dir", out], [out]),
        "f0-stats": (["--speaker-id", "s", "--out", out], [out]),
        "perturb": (["--out-a", out, "--out-b", work / "b.wav", "--seed", "0"],
                    [out, work / "b.wav"]),
        "segment": (["--mode", "vad", "--out", out], [out]),
    }[command]
    return [command, "--in", wav] + argv[0], argv[1]


@contract
@given(blob=malformed_wavs(), command=st.sampled_from(["extract", "f0-stats", "perturb",
                                                   "segment"]))
def test_malformed_wavs_keep_the_contract(blob, command):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        wav = work / "in.wav"
        wav.write_bytes(blob)
        argv, outputs = _wav_argv(command, wav, work)
        _run(work, argv, outputs)


# -- malformed SVCF tensors ---------------------------------------------------

def _model_copy(base, work):
    model = work / "model"
    model.mkdir()
    for f in (base / "model").iterdir():
        (model / f.name).write_bytes(f.read_bytes())
    return model


@st.composite
def malformed_svcf(draw):
    magic = draw(st.sampled_from([b"SVCF", b"SVCF", b"SVCX", b"SV"]))
    version = draw(st.sampled_from([1, 1, 0, 2]))
    dims = draw(st.lists(st.integers(0, 4) | st.sampled_from([2**31, 2**32 - 1]),
                         max_size=4))
    ndim = draw(st.sampled_from([len(dims), len(dims), len(dims) + 1, 2**32 - 1]))
    count = int(np.prod(dims, dtype=object)) if dims else 1
    values = draw(st.lists(st.floats(width=32) | st.sampled_from([0.0, 1.0, 220.0]),
                           min_size=min(count, 64), max_size=min(count, 64)))
    payload = np.asarray(values, dtype="<f4").tobytes()
    payload = payload[:len(payload) + draw(st.sampled_from([0, 0, 0, -1, -4]))]
    return magic + struct.pack(f"<II{len(dims)}I", version, ndim, *dims) + payload


@contract
@given(blob=malformed_svcf(),
       command=st.sampled_from(["convert-pitch", "eval-cossim", "eval-f0", "model"]))
def test_malformed_svcf_tensors_keep_the_contract(base, blob, command):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        tensor, out = work / "x.svcf", work / "out.svcf"
        tensor.write_bytes(blob)
        if command == "convert-pitch":
            argv = ["convert-pitch", "--in", tensor, "--out", out,
                    "--source-stats", base / "stats.json",
                    "--target-stats", base / "stats.json"]
        elif command == "eval-cossim":
            argv = ["eval", "cossim", "--a", tensor, "--b", tensor]
        elif command == "eval-f0":
            argv = ["eval", "f0", "--a", tensor, "--b", base / "f0.svcf"]
        else:
            model = _model_copy(base, work)
            (model / "w2.svcf").write_bytes(blob)
            argv = ["ddpm", "sample", "--model-dir", model, "--out", out, "--seed", "0"]
        _run(work, argv, [out])


# -- JSON records with fields of the wrong type ---------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["3600", "48000", "rest", "en", 1e308, -1e308, 10**400, 0.5]),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2),
                                                                inner, max_size=2),
    max_leaves=4)


@st.composite
def json_documents(draw):
    kind = draw(st.sampled_from(sorted(_RECORDS)))
    record = dict(_RECORDS[kind])
    key = draw(st.sampled_from(sorted(record)))
    action = draw(st.sampled_from(["replace", "replace", "drop", "whole"]))
    if action == "replace":
        record[key] = draw(_json_values)
    elif action == "drop":
        del record[key]
    else:
        record = draw(_json_values)
    return kind, record


@contract
@given(document=json_documents())
def test_json_records_of_the_wrong_type_keep_the_contract(base, document):
    kind, record = document
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        doc, out = work / "doc.json", work / "out.json"
        if kind == "manifest":
            doc.write_text(json.dumps(_RECORDS["manifest"]) + "\n" + json.dumps(record))
            argv = ["manifest", "compose", "--manifest", doc, "--spec", "final"]
        elif kind == "spec":
            doc.write_text(json.dumps(record))
            argv = ["manifest", "compose", "--spec", doc]
        elif kind == "notes":
            doc.write_text(json.dumps([record, _RECORDS["notes"]]))
            argv = ["segment", "--mode", "rest", "--notes", doc]
        else:
            doc.write_text(json.dumps(record))
            argv = ["convert-pitch", "--in", base / "f0.svcf", "--source-stats", doc,
                    "--target-stats", base / "stats.json"]
        _run(work, argv + ["--out", out], [out])


# -- out-of-domain numeric flags ------------------------------------------------

_reals = st.floats() | st.sampled_from([0.0, -1.0, 1e-300, 5e-324, 1e300, -1e300])
_sizes = st.integers(-2, 6) | st.integers(MAX_ELEMENTS + 1, 2**63 - 1)

# case -> (argv with path placeholders, {flag: values to draw})
_FLAG_CASES = {
    "extract": (["extract", "--in", "{in}", "--out-dir", "{out}"],
                {"--f0-floor": _reals, "--f0-ceil": _reals, "--jobs": st.integers(-2, 2),
                 "--seed": st.integers(-2**70, 2**70)}),
    "f0-stats": (["f0-stats", "--in", "{in}", "--speaker-id", "s", "--out", "{out}"],
                 {"--f0-floor": _reals, "--f0-ceil": _reals}),
    "convert-pitch": (["convert-pitch", "--in", "{f0}", "--out", "{out}",
                       "--source-stats", "{stats}", "--target-stats", "{stats}"],
                      {"--offset-semitones": _reals}),
    "perturb": (["perturb", "--in", "{in}", "--out-a", "{out}", "--out-b", "{out}.b",
                 "--seed", "1"],
                {"--formant-ratio-range": st.tuples(_reals, _reals),
                 "--pitch-semitone-range": st.tuples(_reals, _reals),
                 "--eq-gain-range-db": st.tuples(_reals, _reals),
                 "--eq-q-range": st.tuples(_reals, _reals), "--eq-bands": _sizes,
                 "--seed": st.integers(-2**70, 2**70)}),
    "vad": (["segment", "--mode", "vad", "--in", "{in}", "--out", "{out}"],
            {f"--vad-{name}": _reals for name in
             ("frame-ms", "energy-floor-dbfs", "min-speech-ms", "hangover-ms",
              "min-gap-ms")}),
    "rest": (["segment", "--mode", "rest", "--notes", "{notes}", "--out", "{out}"],
             {"--min-rest-sec": _reals, "--clip-duration": _reals}),
    "train": (["ddpm", "train", "--out-dir", "{out}", "--seed", "0", "--steps", "3",
               "--hidden", "4"],
              {"--lr": _reals, "--p-uncond": _reals, "--steps": _sizes, "--dim": _sizes,
               "--hidden": _sizes, "--speaker-dim": _sizes,
               "--diffusion-steps": _sizes}),
    "finetune": (["ddpm", "finetune", "--model-dir", "{model}", "--out-dir", "{out}",
                  "--seed", "0", "--iterations", "3"],
                 {"--lr": _reals, "--iterations": st.integers(-2, 6)}),
    "sample": (["ddpm", "sample", "--out", "{out}", "--seed", "0", "--oracle-mean", "0",
                "--steps", "5"],
               {"--oracle-mean": _reals, "--oracle-std": _reals,
                "--guidance-scale": _reals, "--dim": _sizes, "--steps": _sizes}),
    "sample-model": (["ddpm", "sample", "--model-dir", "{model}", "--out", "{out}",
                      "--seed", "0"],
                     {"--guidance-scale": _reals}),
}


@st.composite
def flag_cases(draw):
    case = draw(st.sampled_from(sorted(_FLAG_CASES)))
    argv, flags = _FLAG_CASES[case]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, max_size=2,
                           unique=True))
    extra = []
    for flag in chosen:
        value = draw(flags[flag])
        extra += [flag, *(value if isinstance(value, tuple) else (value,))]
    return argv, extra


def _placeholders(base, work):
    """The path each placeholder of a `_FLAG_CASES` argv stands for."""
    return {"{in}": base / "in.wav", "{out}": work / "out", "{out}.b": work / "out.b",
            "{f0}": base / "f0.svcf", "{stats}": base / "stats.json",
            "{notes}": base / "notes.json", "{model}": base / "model"}


@contract
@given(case=flag_cases())
def test_out_of_domain_numeric_flags_keep_the_contract(base, case):
    argv, extra = case
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        paths = _placeholders(base, work)
        argv = [paths.get(a, a) for a in argv]
        # positional notation, so that argparse reads "-1e+300" as a number
        extra = [np.format_float_positional(v) if isinstance(v, float) else v
                 for v in extra]
        _run(work, argv + extra, [paths["{out}"], paths["{out}.b"]])


# -- paths the OS refuses -------------------------------------------------------

_HOSTILE_KINDS = ["file", "under-file", "long-name", "symlink-loop", "directory"]


def _hostile_path(kind, work):
    """In `work`: an existing regular file, a path under one, a name longer
    than the OS allows, a symlink loop, or an existing directory."""
    if kind == "long-name":
        return work / ("x" * 300)
    path = work / "hostile"
    if kind == "symlink-loop":
        path.symlink_to(path.name)
    elif kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"")
    return path / "x" if kind == "under-file" else path


@st.composite
def hostile_paths(draw):
    """A `_FLAG_CASES` argv, one of its path placeholders, input or output,
    and the kind of path that replaces it."""
    argv = _FLAG_CASES[draw(st.sampled_from(sorted(_FLAG_CASES)))][0]
    slot = draw(st.sampled_from([a for a in argv if a.startswith("{")]))
    return argv, slot, draw(st.sampled_from(_HOSTILE_KINDS))


@contract
@given(case=hostile_paths())
def test_paths_the_os_refuses_keep_the_contract(base, case):
    argv, slot, kind = case
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        paths = _placeholders(base, work)
        paths[slot] = _hostile_path(kind, work)
        _run(work, [paths.get(a, a) for a in argv],
             [paths["{out}"], paths["{out}.b"], paths[slot]])


# -- model indexes with a replaced field or tensor ------------------------------

# the base model's true sizes, so that some drawn size fields agree
_MODEL_SIZES = {"dim": 8, "cond_dim": 11, "speaker_dim": 4, "hidden": 8, "time_freqs": 4}


@st.composite
def model_edits(draw):
    """`num_steps` replaced, size fields as older indexes held them added, or
    one parameter swapped for a tensor of a drawn shape."""
    action = draw(st.sampled_from(["num_steps", "sizes", "tensor"]))
    if action == "num_steps":
        return action, draw(_sizes | _json_values)
    if action == "sizes":
        values = _sizes | st.sampled_from(sorted(set(_MODEL_SIZES.values())))
        return action, draw(st.dictionaries(st.sampled_from(sorted(_MODEL_SIZES)), values,
                                            min_size=1))
    name = draw(st.sampled_from(["w1", "b1", "cln_w_gamma", "cln_b_gamma", "cln_w_beta",
                                 "cln_b_beta", "w2", "b2"]))
    return action, (name, draw(st.lists(st.integers(0, 30), max_size=3)))


@contract
@given(edit=model_edits(), command=st.sampled_from(["sample", "finetune"]))
def test_edited_model_indexes_keep_the_contract(base, edit, command):
    action, value = edit
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        model, out = _model_copy(base, work), work / "out"
        index = json.loads((model / "index.json").read_text())
        if action == "num_steps":
            index["num_steps"] = value
        elif action == "sizes":
            index.update(value)
        else:
            name, shape = value
            write_tensor(model / f"{name}.svcf", np.full(shape, 0.1))
        (model / "index.json").write_text(json.dumps(index))
        argv = {"sample": ["ddpm", "sample", "--model-dir", model, "--out", out],
                "finetune": ["ddpm", "finetune", "--model-dir", model, "--out-dir", out,
                             "--iterations", "3"]}[command]
        _run(work, argv + ["--seed", "0"], [out])
