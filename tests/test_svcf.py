import struct
from dataclasses import fields, make_dataclass

import numpy as np
import pytest

from svcforge.corpus import ManifestEntry, NoteEvent, TrainingSetSpec
from svcforge.errors import FormatError, InvalidParameterError, MissingFileError
from svcforge.pitchconv import SpeakerF0Stats
from svcforge.svcf import (
    atomic_write_files,
    dumps,
    json_bytes,
    json_record,
    jsonl_bytes,
    read_json,
    read_jsonl,
    read_tensor,
    write_tensor,
)


def test_roundtrip_bit_exact(tmp_path):
    arr = np.arange(24, dtype=np.float32).reshape(4, 6) / 7.0
    path = tmp_path / "x.svcf"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, arr)


def test_roundtrip_1d_and_3d(tmp_path):
    for shape in [(5,), (2, 3, 4)]:
        arr = np.random.default_rng(0).normal(size=shape).astype(np.float32)
        write_tensor(tmp_path / "t.svcf", arr)
        assert np.array_equal(read_tensor(tmp_path / "t.svcf"), arr)


def test_float64_input_is_quantized_to_f32(tmp_path):
    arr = np.array([1 / 3], dtype=np.float64)
    write_tensor(tmp_path / "t.svcf", arr)
    assert read_tensor(tmp_path / "t.svcf")[0] == np.float32(1 / 3)


@pytest.mark.parametrize("name", [
    "x" * 250 + ".svcf",  # 255 bytes, the longest name Linux allows
    "\u00e9" * 127,  # 254 bytes of two-byte UTF-8
], ids=["ascii-255", "utf8-254"])
def test_longest_names_write(tmp_path, name):
    assert len(name.encode()) in (254, 255)
    arr = np.arange(3, dtype=np.float32)
    write_tensor(tmp_path / name, arr)
    assert np.array_equal(read_tensor(tmp_path / name), arr)
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_writes_create_missing_directories(tmp_path):
    atomic_write_files([(tmp_path / "a" / "b" / "x.bin", b"x"), (tmp_path / "a" / "y.bin", b"y")])
    assert (tmp_path / "a" / "b" / "x.bin").read_bytes() == b"x"
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["b", "y.bin"]


def test_failed_write_removes_the_directories_it_created(tmp_path):
    (tmp_path / "afile").write_bytes(b"")
    dest = tmp_path / "afile" / "sub" / "y.bin"
    with pytest.raises(NotADirectoryError) as exc:
        atomic_write_files([(tmp_path / "new" / "deep" / "x.bin", b"x"), (dest, b"y")])
    assert exc.value.filename == str(dest)
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


def test_missing_file(tmp_path):
    with pytest.raises(MissingFileError):
        read_tensor(tmp_path / "absent.svcf")


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.svcf"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="bad magic"):
        read_tensor(p)


def test_bad_version(tmp_path):
    p = tmp_path / "bad.svcf"
    p.write_bytes(b"SVCF" + (2).to_bytes(4, "little") + (0).to_bytes(4, "little"))
    with pytest.raises(FormatError, match="unsupported version 2"):
        read_tensor(p)


@pytest.mark.parametrize("dims", [(0, 2**31, 2**31), (2**32 - 1,) * 3])
def test_dims_no_array_can_hold_are_rejected(tmp_path, dims):
    # the first has no payload; the second's product wraps around in int64
    p = tmp_path / "huge.svcf"
    p.write_bytes(b"SVCF" + struct.pack("<5I", 1, 3, *dims))
    with pytest.raises(FormatError, match=r"payload is 0 bytes|dims \["):
        read_tensor(p)


def test_truncated_payload(tmp_path):
    p = tmp_path / "ok.svcf"
    write_tensor(p, np.zeros(4, dtype=np.float32))
    blob = p.read_bytes()
    p.write_bytes(blob[:-2])
    with pytest.raises(FormatError, match="payload is 14 bytes, expected 16"):
        read_tensor(p)


def test_json_roundtrip_and_layout(tmp_path):
    doc = {"b": [1, 2.5, None, True], "a": "\u00e9"}
    (tmp_path / "d.json").write_bytes(json_bytes(doc))
    assert (tmp_path / "d.json").read_bytes() == (
        b'{\n  "b": [\n    1,\n    2.5,\n    null,\n    true\n  ],\n'
        b'  "a": "\\u00e9"\n}\n')
    assert read_json(tmp_path / "d.json", "doc") == doc
    (tmp_path / "d.jsonl").write_bytes(jsonl_bytes([doc, {"c": 1}]))
    assert (tmp_path / "d.jsonl").read_text().splitlines()[1] == '{"c": 1}'
    assert read_jsonl(tmp_path / "d.jsonl", "lines") == [doc, {"c": 1}]
    assert dumps({"x": 0.1}) == '{"x": 0.1}'
    big = 2 ** 64 + 1
    (tmp_path / "n.json").write_bytes(json_bytes({"i": big, "f": 1.7e308}))
    assert read_json(tmp_path / "n.json", "doc") == {"i": big, "f": 1.7e308}


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999",
                                   "1" + "0" * 400, "-1" + "0" * 400],
                         ids=["NaN", "Infinity", "-Infinity", "1e999", "-1e999",
                              "huge-int", "-huge-int"])
def test_json_readers_reject_non_finite_numbers(tmp_path, token):
    p = tmp_path / "d.json"
    p.write_text(f'{{"x": {token}}}')
    with pytest.raises(FormatError, match=r"d\.json: .*not a finite JSON number"):
        read_json(p, "doc")
    p.write_text(f'{{"x": 1}}\n\n{{"x": [{token}]}}\n')
    with pytest.raises(FormatError, match=r"d\.json:3: .*not a finite JSON number"):
        read_jsonl(p, "lines")


def test_jsonl_reader_rejects_non_utf8(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_bytes(b'{"x": "\xff"}\n')
    with pytest.raises(FormatError, match="bad lines .*can't decode byte 0xff"):
        read_jsonl(p, "lines")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                   np.float64("nan")])
def test_json_writers_reject_non_finite_floats(tmp_path, value):
    doc = {"ok": 1.0, "bad": [value]}
    with pytest.raises(InvalidParameterError):
        dumps(doc)
    with pytest.raises(InvalidParameterError):
        json_bytes(doc)
    with pytest.raises(InvalidParameterError):
        jsonl_bytes([{"ok": 1}, doc])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39],
                         ids=["nan", "inf", "-inf", "beyond-float32"])
def test_tensor_writer_rejects_non_finite_values(tmp_path, value):
    with pytest.raises(InvalidParameterError):
        write_tensor(tmp_path / "t.svcf", np.array([[1.0, value]], dtype=np.float64))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("doc, record", [
    ({"id": "x", "path": "x.wav", "dataset": "d", "language": "en", "kind": "singing",
      "speaker": "s", "duration_sec": 36, "sample_rate": 24000},
     ManifestEntry("x", "x.wav", "d", "en", "singing", "s", 36.0, 24000)),
    ({"speaker_id": "s", "mean_log_f0": 5.4, "std_log_f0": 0, "n_voiced_frames": 10},
     SpeakerF0Stats("s", 5.4, 0.0, 10)),
    ({"name": "s", "languages": ["en", "zh"], "kinds": ["singing"],
      "always_include_datasets": ["svcc2023"]},
     TrainingSetSpec("s", frozenset({"en", "zh"}), frozenset({"singing"}),
                     frozenset({"svcc2023"}))),
    ({"onset_sec": 0, "offset_sec": 1.5, "pitch": 60}, NoteEvent(0.0, 1.5, 60)),
])
def test_json_record_reads_every_record_class_from_a_full_document(doc, record):
    got = json_record(type(record), {**doc, "comment": "a key that names no field"}, "record")
    assert got == record
    for f in fields(record):  # an integer read into a float field becomes a float
        assert type(getattr(got, f.name)) is type(getattr(record, f.name))


def test_json_record_reads_null_absent_and_defaulted_fields():
    assert json_record(TrainingSetSpec, {"name": "s", "kinds": None}, "spec") == \
        TrainingSetSpec("s", None, None, frozenset())
    for doc in ({"onset_sec": 0, "offset_sec": 1}, {"onset_sec": 0, "offset_sec": 1, "pitch": None}):
        assert json_record(NoteEvent, doc, "note") == NoteEvent(0.0, 1.0, None)
    with pytest.raises(FormatError, match="bad spec: always_include_datasets must be a JSON array"):
        json_record(TrainingSetSpec, {"name": "s", "always_include_datasets": None}, "spec")
    with pytest.raises(FormatError, match="bad stats: want an object with a 'n_voiced_frames'"):
        json_record(SpeakerF0Stats, {"speaker_id": "s", "mean_log_f0": 5.4, "std_log_f0": 0.1},
                    "stats")
    with pytest.raises(FormatError, match="bad note: want a JSON object"):
        json_record(NoteEvent, [0, 1], "note")


@pytest.mark.parametrize("kind", [list, bool, dict, int | str, frozenset[str], float | int,
                                  "list", "Optional[int]", "None | int", "typing.FrozenSet"])
def test_json_record_refuses_a_field_type_it_cannot_read(kind):
    odd = make_dataclass("Odd", [("name", str), ("values", kind)])
    for doc in ({"name": "x", "values": []}, {}, "not an object"):
        with pytest.raises(TypeError, match="Odd.values: json_record cannot read type"):
            json_record(odd, doc, "odd record")
