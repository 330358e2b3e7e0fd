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
`--steps`, `--diffusion-steps`) are drawn from small values
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
from hypothesis import example, given, settings, strategies as st

from svcforge.audio import wav_bytes
from svcforge.cli import main
from svcforge.diffusion import PARAM_NAMES, ToyDenoiser, model_files
from svcforge.errors import MAX_ELEMENTS
from svcforge.svcf import atomic_write_files, tensor_bytes
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


def _run(work: Path, argv: list, outputs: list) -> int:
    """Run `main(argv)`, check the contract and return the exit code.
    `outputs` are the paths a success may create; a path inside an output
    directory, or a directory above an output, also counts."""
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
        allowed, above = set(outputs), {d for p in outputs for d in p.parents}
        assert all(p in allowed or p.parent in allowed or p in above for p in new), new
    else:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
        assert not new
    return code


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Valid inputs shared by every example: a WAV, an F0 track, a stats
    file, a note list and a trained model."""
    d = tmp_path_factory.mktemp("contract")
    (d / "in.wav").write_bytes(wav_bytes(sine(220, 0.3)))
    track = np.array([[220.0, 1.0], [0.0, 0.0], [230.0, 1.0]])
    (d / "f0.svcf").write_bytes(tensor_bytes(track, "f0.svcf"))
    (d / "stats.json").write_text(json.dumps(_RECORDS["stats"]))
    (d / "notes.json").write_text(json.dumps(
        [_RECORDS["notes"], {"onset_sec": 2.0, "offset_sec": 3.0, "pitch": 62}]))
    model = ToyDenoiser(dim=8, cond_dim=11, speaker_dim=4, hidden=8)
    atomic_write_files(model_files(model, d / "model"))
    return d


# -- malformed WAVs -----------------------------------------------------------

# 47,952 and 44,056 Hz reduce to large but allowed ratios; 48,001, 50,003,
# 1,000,003 and 2^32 - 1 Hz reduce to ratios beyond the resampler's bound
_RATES = [0, 1, 100, 8000, 11025, 16000, 22050, 24000, 44056, 44100, 47952, 48000,
          48001, 50003, 88200, 96000, 192000, 1_000_003, 2**32 - 1]
_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


@st.composite
def malformed_wavs(draw):
    """A WAV file's bytes, and whether every reading command must refuse it
    (exit 2): here, whether its block align disagrees with its channels and
    bits."""
    tag = draw(st.sampled_from([1, 3, 0xFFFE, 0, 2]))
    channels = draw(st.integers(0, 3))
    rate = draw(st.sampled_from(_RATES))
    bits = draw(st.sampled_from([16, 24, 32, 8, 64, 0]))
    block = channels * bits // 8
    align = block + draw(st.sampled_from([0, 0, 0, 1]))
    frames = min(rate * draw(st.integers(0, 300)) // 1000, 20_000)
    fmt = struct.pack("<HHIIHH", tag, channels, rate, (rate * block) % 2**32, align, bits)
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
    return (blob if cut is None else blob[:cut]), align != block


def _one_fault_wav(channels=1, rate=24_000, bits=16, extra_align=0, cut=0):
    """A 0.3 s 16-bit mono PCM WAV that every reading command takes, but with
    the given fmt fields, its block align `extra_align` bytes above channels x
    bits / 8 and `cut` bytes cut off its data: one fault, which its own check
    in `read_wav` is the first to refuse (a zero rate, the `AudioClip` that
    `read_wav` returns)."""
    data = wav_bytes(sine(220, 0.3))[44:]
    data = data[:len(data) - cut]
    align = channels * bits // 8 + extra_align
    fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * align, align, bits)
    return _riff(fmt, data)


def _riff(fmt, data):
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def _anti_phase_wav():
    """`_one_fault_wav()`'s tone as a well-formed stereo file whose right channel
    is the left one negated, so that its mono mix is silence."""
    left = np.frombuffer(wav_bytes(sine(220, 0.3))[44:], dtype="<i2")
    return _riff(struct.pack("<HHIIHH", 1, 2, 24_000, 96_000, 4, 16),
                 np.stack([left, -left], axis=1).astype("<i2").tobytes())


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
@given(drawn=malformed_wavs(), command=st.sampled_from(["extract", "f0-stats", "perturb",
                                                     "segment"]))
@example(drawn=(_one_fault_wav(extra_align=1), True), command="extract")
@example(drawn=(_one_fault_wav(channels=3), True), command="f0-stats")
@example(drawn=(_one_fault_wav(bits=12), True), command="perturb")
@example(drawn=(_one_fault_wav(rate=0), True), command="segment")
@example(drawn=(_one_fault_wav(cut=1), True), command="extract")
@example(drawn=(_anti_phase_wav(), True), command="extract")
def test_malformed_wavs_keep_the_contract(drawn, command):
    blob, must_refuse = drawn
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        wav = work / "in.wav"
        wav.write_bytes(blob)
        argv, outputs = _wav_argv(command, wav, work)
        code = _run(work, argv, outputs)
    assert code == 2 or not must_refuse


@pytest.mark.parametrize("command", ["extract", "f0-stats", "perturb", "segment"])
def test_the_wav_under_each_single_fault_is_read_by_every_command(command):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        wav = work / "in.wav"
        wav.write_bytes(_one_fault_wav())
        assert _run(work, *_wav_argv(command, wav, work)) == 0


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

# case -> (argv with path placeholders, {flag: values to draw}); a case with
# no numeric flag is here for its paths only
_FLAG_CASES = {
    "extract": (["extract", "--in", "{in}", "--out-dir", "{out}"],
                {"--f0-floor": _reals, "--f0-ceil": _reals, "--jobs": st.integers(-2, 2)}),
    "f0-stats": (["f0-stats", "--in", "{in}", "--speaker-id", "s", "--out", "{out}"],
                 {"--f0-floor": _reals, "--f0-ceil": _reals}),
    "convert-pitch": (["convert-pitch", "--in", "{f0}", "--out", "{out}",
                       "--source-stats", "{stats}", "--target-stats", "{stats}"],
                      {}),
    "perturb": (["perturb", "--in", "{in}", "--out-a", "{out}", "--out-b", "{out}.b",
                 "--seed", "1"],
                {"--seed": st.integers(-2**70, 2**70)}),
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
    "sample-oracle": (["ddpm", "sample-oracle", "--out", "{out}", "--seed", "0",
                       "--mean", "0", "--diffusion-steps", "5"],
                      {"--mean": _reals, "--std": _reals, "--dim": _sizes,
                       "--diffusion-steps": _sizes}),
    "sample-model": (["ddpm", "sample", "--model-dir", "{model}", "--out", "{out}",
                      "--seed", "0"],
                     {"--guidance-scale": _reals}),
}


@st.composite
def flag_cases(draw):
    case = draw(st.sampled_from(sorted(c for c, (_, flags) in _FLAG_CASES.items() if flags)))
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
        _run(work, argv + extra, [paths["{out}"], paths["{out}.b"]])


# -- paths the OS refuses -------------------------------------------------------

_HOSTILE_KINDS = ["file", "under-file", "long-name", "symlink-loop", "directory",
                  "newline", "nul", "name-250", "under-missing"]


def _hostile_path(kind, work):
    """In `work`: an existing regular file, a path under one, a name longer
    than the OS allows, a symlink loop, an existing directory, a name with a
    NUL (which no system call takes), a missing name that holds a newline or
    is 250 bytes long (within the OS's limit, so an output of that name is
    written), or a name under two missing directories (which a write
    creates)."""
    if kind == "long-name":
        return work / ("x" * 300)
    if kind == "newline":
        return work / "new\nline"
    if kind == "nul":
        return work / "nul\0x"
    if kind == "name-250":
        return work / ("y" * 250)
    if kind == "under-missing":
        return work / "new" / "sub" / "z"
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


_OUT_SLOTS = [(case, slot) for case, (argv, _) in sorted(_FLAG_CASES.items())
              for slot in argv if slot.startswith("{out")]


def _assert_written(base, work, case, slot, kind):
    """`case` with its `slot` output replaced by a `kind` path exits 0 and
    creates that path."""
    paths = _placeholders(base, work)
    paths[slot] = _hostile_path(kind, work)
    argv = [paths.get(a, a) for a in _FLAG_CASES[case][0]]
    assert _run(work, argv, [paths["{out}"], paths["{out}.b"]]) == 0
    assert paths[slot].exists()


@pytest.mark.parametrize("case, slot", _OUT_SLOTS, ids=[" ".join(c) for c in _OUT_SLOTS])
def test_output_names_of_250_bytes_are_written(base, tmp_path, case, slot):
    _assert_written(base, tmp_path, case, slot, "name-250")


@pytest.mark.parametrize("case, slot", _OUT_SLOTS, ids=[" ".join(c) for c in _OUT_SLOTS])
def test_outputs_under_missing_directories_are_written(base, tmp_path, case, slot):
    _assert_written(base, tmp_path, case, slot, "under-missing")


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
    name = draw(st.sampled_from(PARAM_NAMES))
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
            (model / f"{name}.svcf").write_bytes(tensor_bytes(np.full(shape, 0.1), f"{name}.svcf"))
        (model / "index.json").write_text(json.dumps(index))
        argv = {"sample": ["ddpm", "sample", "--model-dir", model, "--out", out],
                "finetune": ["ddpm", "finetune", "--model-dir", model, "--out-dir", out,
                             "--iterations", "3"]}[command]
        _run(work, argv + ["--seed", "0"], [out])
