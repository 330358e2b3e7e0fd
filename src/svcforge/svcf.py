"""On-disk formats: SVCF tensor files and strict JSON documents.

SVCF is the interchange format for feature matrices. Layout (all
little-endian):

    magic   4 bytes  "SVCF"
    version u32      1
    ndim    u32
    dims    u32 * ndim
    data    float32 * prod(dims), row-major

Every value in a written file is finite: NaN, infinities and float64
values beyond float32's range are rejected before anything is written.

This module is also the one JSON codec (documents, JSON-lines manifests
and the CLI's stdout summary). Both directions are strict RFC 8259: reading
NaN/Infinity or a number that overflows a double is a ManifestFormatError,
writing a non-finite float an InvalidParameterError.

Writes are temp-then-rename, all files of one write at once, so a failed
run never leaves a partial file.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .errors import (
    InvalidParameterError,
    ManifestFormatError,
    MissingFileError,
    TensorFormatError,
)

MAGIC = b"SVCF"
VERSION = 1


def tensor_bytes(array: np.ndarray, name: str) -> bytes:
    """The SVCF encoding of `array` as float32. A value that is not finite,
    or not finite once cast to float32, is an InvalidParameterError naming
    `name`."""
    with np.errstate(over="ignore"):
        arr = np.ascontiguousarray(array, dtype=np.float32)
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"cannot write {name}: a value is not finite in float32")
    header = MAGIC + struct.pack("<II", VERSION, arr.ndim)
    return header + struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.tobytes()


def write_tensor(path: str | os.PathLike, array: np.ndarray) -> None:
    """Write `tensor_bytes(array)` to an SVCF file, atomically."""
    atomic_write_files({path: tensor_bytes(array, str(path))})


def read_tensor(path: str | os.PathLike) -> np.ndarray:
    """Read an SVCF file back into a float32 array."""
    p = Path(path)
    blob = read_bytes(p, "tensor file")
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise TensorFormatError(f"{p}: bad magic (not an SVCF file)")
    version, ndim = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise TensorFormatError(f"{p}: unsupported version {version}")
    if len(blob) < 12 + 4 * ndim:
        raise TensorFormatError(f"{p}: truncated header")
    dims = struct.unpack_from(f"<{ndim}I", blob, 12)
    count = math.prod(dims)
    data = blob[12 + 4 * ndim:]
    if len(data) != 4 * count:
        raise TensorFormatError(
            f"{p}: payload is {len(data)} bytes, expected {4 * count}"
        )
    try:
        return np.frombuffer(data, dtype="<f4").reshape(dims).copy()
    except ValueError as exc:  # an empty shape numpy cannot hold, e.g. [0, 2^31, 2^31]
        raise TensorFormatError(f"{p}: dims {list(dims)}: {exc}") from exc


def replace_files(moves: dict) -> None:
    """Rename each `{source: destination}` entry into place, once no
    destination is a directory; an OSError propagates."""
    for dest in map(Path, moves.values()):
        if dest.is_dir():
            raise IsADirectoryError(f"{dest} is a directory")
    for source, dest in moves.items():
        os.replace(source, dest)


def atomic_write_files(files: dict) -> None:
    """Write each `{path: bytes}` entry via a temp file beside its path, and
    `replace_files` them into place only once every one is written, so an
    OSError on one path leaves the others untouched and no temp file behind."""
    staged = {}
    try:
        for path, data in files.items():
            p = Path(path)
            fd, tmp = tempfile.mkstemp(dir=p.parent, prefix=p.name + ".")
            staged[tmp] = p
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
        replace_files(staged)
    finally:
        for tmp in staged:
            if os.path.lexists(tmp):
                os.unlink(tmp)


def read_bytes(path: str | os.PathLike, what: str) -> bytes:
    """Contents of the regular file at `path`; `what` names it in errors.
    A missing path, a directory or any other non-file is a MissingFileError."""
    p = Path(path)
    if not p.is_file():
        raise MissingFileError(f"no such {what}: {p}")
    return p.read_bytes()


def _finite(text: str) -> str:
    """`text` if it is a number inside the double range; NaN, Infinity and
    -Infinity also arrive here and are rejected."""
    if not math.isfinite(float(text)):
        raise ValueError(f"{text} is not a finite JSON number")
    return text


def _parse(text: str, where: str):
    try:
        return json.loads(text, parse_constant=_finite,
                          parse_float=lambda t: float(_finite(t)),
                          parse_int=lambda t: int(_finite(t)))
    except ValueError as exc:
        raise ManifestFormatError(f"bad {where}: {exc}") from exc


def _read_text(path: str | os.PathLike, what: str) -> str:
    try:
        return read_bytes(path, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestFormatError(f"bad {what} {path}: {exc}") from exc


def read_json(path: str | os.PathLike, what: str):
    """Parse the UTF-8 JSON document at `path` (see `read_bytes`); text that
    is not UTF-8 or not strict JSON is a ManifestFormatError; callers check
    the fields."""
    return _parse(_read_text(path, what), f"{what} {path}")


def read_jsonl(path: str | os.PathLike, what: str) -> list:
    """The documents of a UTF-8 JSON-lines file, one per non-blank line."""
    lines = enumerate(_read_text(path, what).splitlines(), 1)
    return [_parse(line, f"{what} {path}:{n}") for n, line in lines if line.strip()]


# The JSON types a record field may have: a bool is neither integer nor number.
_FIELD_TYPES = {str: ((str,), "string"), int: ((int,), "integer"),
                float: ((int, float), "number")}


def json_field(doc, key: str, kind: type, what: str):
    """`kind(doc[key])` for a `kind` of str, int or float, when `doc` is a
    JSON object whose `key` holds a JSON string, integer or number
    respectively; anything else is a ManifestFormatError naming `what`."""
    types, name = _FIELD_TYPES[kind]
    if not isinstance(doc, dict) or key not in doc:
        raise ManifestFormatError(f"bad {what}: want an object with a {key!r} field")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ManifestFormatError(f"bad {what}: {key} must be a JSON {name}, got {value!r}")
    return kind(value)


def dumps(doc, indent: int | None = None) -> str:
    """Strict JSON text of `doc`; a NaN or infinite float in it is an
    InvalidParameterError."""
    try:
        return json.dumps(doc, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise InvalidParameterError(f"cannot encode as JSON: {exc}") from exc


def json_bytes(doc) -> bytes:
    """`doc` as indented JSON text plus a newline, UTF-8 encoded."""
    return (dumps(doc, indent=2) + "\n").encode()


def write_json(path: str | os.PathLike, doc) -> None:
    """Write `json_bytes(doc)` to `path`, atomically."""
    atomic_write_files({path: json_bytes(doc)})


def write_jsonl(path: str | os.PathLike, docs) -> None:
    """Write one compact JSON document per line, atomically."""
    atomic_write_files({path: "".join(dumps(d) + "\n" for d in docs).encode()})
