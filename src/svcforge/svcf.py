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

This module is also the one JSON codec (documents, JSON-lines manifests,
dataclass records via `json_record`, the CLI's stdout summary), strict RFC
8259 both ways: reading NaN/Infinity or a number that overflows a double is
a FormatError, writing a non-finite float an InvalidParameterError.

Writes take `(path, bytes)` pairs and are temp-then-rename, all files of
one write at once (creating missing directories), so a failed run leaves no
partial file or new directory. Before anything is made, a write refuses two
pairs that name one file (by `os.path.realpath`) and a path holding a NUL;
both are InvalidParameterErrors.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from contextlib import suppress
from dataclasses import MISSING, fields
from itertools import takewhile
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidParameterError, MissingFileError

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
    atomic_write_files([(path, tensor_bytes(array, str(path)))])


def read_tensor(path: str | os.PathLike) -> np.ndarray:
    """Read an SVCF file back into a float32 array."""
    p = Path(path)
    blob = read_bytes(p, "tensor file")
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise FormatError(f"{p}: bad magic (not an SVCF file)")
    version, ndim = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise FormatError(f"{p}: unsupported version {version}")
    if len(blob) < 12 + 4 * ndim:
        raise FormatError(f"{p}: truncated header")
    dims = struct.unpack_from(f"<{ndim}I", blob, 12)
    count = math.prod(dims)
    data = blob[12 + 4 * ndim:]
    if len(data) != 4 * count:
        raise FormatError(
            f"{p}: payload is {len(data)} bytes, expected {4 * count}"
        )
    try:
        return np.frombuffer(data, dtype="<f4").reshape(dims).copy()
    except ValueError as exc:  # an empty shape numpy cannot hold, e.g. [0, 2^31, 2^31]
        raise FormatError(f"{p}: dims {list(dims)}: {exc}") from exc


def atomic_write_files(files) -> None:
    """Write each `(path, bytes)` pair via a temp file beside its path,
    creating missing parent directories, and rename them all into place only
    once every one is written and no path is a directory (a check that stats
    each path, so a name the OS refuses also fails before any rename). Two
    pairs whose paths have one `os.path.realpath`, or a path with a NUL, are
    an InvalidParameterError before anything is made. On a failure no temp
    file remains, the directories this call made are removed and the other
    paths are untouched. A temp name is at most the path's first 32
    characters, a dot and 8 random ones: within 255 bytes whatever the
    destination's name. An OSError from a mkdir or a temp file names `path`
    as given."""
    files, named = list(files), {}
    for path, _ in files:
        try:  # realpath: on a symlink loop Path.resolve raises RuntimeError
            real = os.path.realpath(path)
        except ValueError as exc:  # a NUL in the path
            raise InvalidParameterError(f"bad output path {os.fspath(path)!r}: {exc}") from exc
        if real in named:
            raise InvalidParameterError(f"outputs {named[real]} and {path} name one file")
        named[real] = path
    staged, made = {}, []
    try:
        for path, data in files:
            p = Path(path)
            try:
                missing = list(takewhile(lambda d: not d.exists(), [p.parent, *p.parent.parents]))
                for d in reversed(missing):
                    d.mkdir()
                    made.append(d)
                fd, tmp = tempfile.mkstemp(dir=p.parent, prefix=p.name[:32] + ".")
                staged[tmp] = p
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
            except OSError as exc:
                exc.filename = os.fspath(path)
                raise
        for dest in staged.values():
            if dest.is_dir():
                raise IsADirectoryError(f"{dest} is a directory")
        for tmp, dest in staged.items():
            os.replace(tmp, dest)
    except BaseException:
        for tmp in staged:
            if os.path.lexists(tmp):
                os.unlink(tmp)
        for d in reversed(made):
            with suppress(OSError):  # holds a file if a rename had already run
                d.rmdir()
        raise


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
        raise FormatError(f"bad {where}: {exc}") from exc


def _read_text(path: str | os.PathLike, what: str) -> str:
    try:
        return read_bytes(path, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"bad {what} {path}: {exc}") from exc


def read_json(path: str | os.PathLike, what: str):
    """Parse the UTF-8 JSON document at `path` (see `read_bytes`); text that
    is not UTF-8 or not strict JSON is a FormatError; callers check
    the fields."""
    return _parse(_read_text(path, what), f"{what} {path}")


def read_jsonl(path: str | os.PathLike, what: str) -> list:
    """The documents of a UTF-8 JSON-lines file, one per non-blank line."""
    lines = enumerate(_read_text(path, what).splitlines(), 1)
    return [_parse(line, f"{what} {path}:{n}") for n, line in lines if line.strip()]


# The JSON type each field type takes: a bool is neither integer nor number,
# and a frozenset takes an array of strings.
_FIELD_TYPES = {str: ((str,), "string"), int: ((int,), "integer"),
                float: ((int, float), "number"), frozenset: ((list,), "array of strings")}


def json_field(doc, key: str, kind: type, what: str):
    """`kind(doc[key])` for a `kind` in `_FIELD_TYPES`, when `doc` is a JSON
    object whose `key` holds a JSON value of that kind; anything else is a
    FormatError naming `what`."""
    types, name = _FIELD_TYPES[kind]
    if not isinstance(doc, dict) or key not in doc:
        raise FormatError(f"bad {what}: want an object with a {key!r} field")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, types) or (
            kind is frozenset and not all(isinstance(v, str) for v in value)):
        raise FormatError(f"bad {what}: {key} must be a JSON {name}, got {value!r}")
    return kind(value)


# Each type a record field may declare, as a type or as the text that
# `from __future__ import annotations` leaves: (the type `json_field` reads,
# whether the field may be null).
_RECORD_TYPES = {declared: (k, nullable) for k in _FIELD_TYPES for declared, nullable in (
    (k, False), (k.__name__, False), (k | None, True), (f"{k.__name__} | None", True))}


def json_record(cls, doc, what: str):
    """The dataclass `cls` built from the JSON object `doc`, each field read
    by `json_field` at its declared type; a field declared `X | None` may
    also be null or absent, an absent field with a default takes it, and
    keys that name no field are ignored. A field declared with a type not
    in `_RECORD_TYPES` is a TypeError, whatever `doc` holds."""
    plan = [(f, *_RECORD_TYPES.get(f.type, (None, None))) for f in fields(cls)]
    for f, kind, _ in plan:
        if kind is None:
            raise TypeError(f"{cls.__name__}.{f.name}: json_record cannot read type {f.type!r}")
    if not isinstance(doc, dict):
        raise FormatError(f"bad {what}: want a JSON object")
    return cls(**{f.name: None if nullable and doc.get(f.name) is None
                  else json_field(doc, f.name, kind, what) for f, kind, nullable in plan
                  if f.name in doc or f.default is MISSING and f.default_factory is MISSING})


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


def jsonl_bytes(docs) -> bytes:
    """One compact JSON document per line, UTF-8 encoded."""
    return "".join(dumps(d) + "\n" for d in docs).encode()
