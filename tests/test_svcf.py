import numpy as np
import pytest

from svcforge.errors import (
    InvalidParameterError,
    ManifestFormatError,
    MissingFileError,
    TensorFormatError,
)
from svcforge.svcf import (
    dumps,
    read_json,
    read_jsonl,
    read_tensor,
    write_json,
    write_jsonl,
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


def test_missing_file(tmp_path):
    with pytest.raises(MissingFileError):
        read_tensor(tmp_path / "absent.svcf")


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.svcf"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(TensorFormatError):
        read_tensor(p)


def test_bad_version(tmp_path):
    p = tmp_path / "bad.svcf"
    p.write_bytes(b"SVCF" + (2).to_bytes(4, "little") + (0).to_bytes(4, "little"))
    with pytest.raises(TensorFormatError):
        read_tensor(p)


def test_truncated_payload(tmp_path):
    p = tmp_path / "ok.svcf"
    write_tensor(p, np.zeros(4, dtype=np.float32))
    blob = p.read_bytes()
    p.write_bytes(blob[:-2])
    with pytest.raises(TensorFormatError):
        read_tensor(p)


def test_json_roundtrip_and_layout(tmp_path):
    doc = {"b": [1, 2.5, None, True], "a": "\u00e9"}
    write_json(tmp_path / "d.json", doc)
    assert (tmp_path / "d.json").read_bytes() == (
        b'{\n  "b": [\n    1,\n    2.5,\n    null,\n    true\n  ],\n'
        b'  "a": "\\u00e9"\n}\n')
    assert read_json(tmp_path / "d.json", "doc") == doc
    write_jsonl(tmp_path / "d.jsonl", [doc, {"c": 1}])
    assert (tmp_path / "d.jsonl").read_text().splitlines()[1] == '{"c": 1}'
    assert read_jsonl(tmp_path / "d.jsonl", "lines") == [doc, {"c": 1}]
    assert dumps({"x": 0.1}) == '{"x": 0.1}'
    big = 2 ** 64 + 1
    write_json(tmp_path / "n.json", {"i": big, "f": 1.7e308})
    assert read_json(tmp_path / "n.json", "doc") == {"i": big, "f": 1.7e308}


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999",
                                   "1" + "0" * 400, "-1" + "0" * 400],
                         ids=["NaN", "Infinity", "-Infinity", "1e999", "-1e999",
                              "huge-int", "-huge-int"])
def test_json_readers_reject_non_finite_numbers(tmp_path, token):
    p = tmp_path / "d.json"
    p.write_text(f'{{"x": {token}}}')
    with pytest.raises(ManifestFormatError, match=r"d\.json"):
        read_json(p, "doc")
    p.write_text(f'{{"x": 1}}\n\n{{"x": [{token}]}}\n')
    with pytest.raises(ManifestFormatError, match=r"d\.json:3"):
        read_jsonl(p, "lines")


def test_jsonl_reader_rejects_non_utf8(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_bytes(b'{"x": "\xff"}\n')
    with pytest.raises(ManifestFormatError):
        read_jsonl(p, "lines")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                   np.float64("nan")])
def test_json_writers_reject_non_finite_floats(tmp_path, value):
    doc = {"ok": 1.0, "bad": [value]}
    with pytest.raises(InvalidParameterError):
        dumps(doc)
    with pytest.raises(InvalidParameterError):
        write_json(tmp_path / "d.json", doc)
    with pytest.raises(InvalidParameterError):
        write_jsonl(tmp_path / "d.jsonl", [{"ok": 1}, doc])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39],
                         ids=["nan", "inf", "-inf", "beyond-float32"])
def test_tensor_writer_rejects_non_finite_values(tmp_path, value):
    with pytest.raises(InvalidParameterError):
        write_tensor(tmp_path / "t.svcf", np.array([[1.0, value]], dtype=np.float64))
    assert list(tmp_path.iterdir()) == []
