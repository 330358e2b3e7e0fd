"""Corpus manifests, training-set composition, and audio segmentation.

A reference manifest mirroring the training-data table (per-dataset hours,
languages, kinds, and the four conversion-target speakers) ships with the
package; the composition predicates reproduce the four canonical training
sets from it. Actual audio is always user-supplied.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import defaults
from .audio import AudioClip
from .errors import (
    InvalidParameterError,
    ManifestFormatError,
    OverlappingNotesError,
    UnknownSpecError,
)
from .svcf import read_json, read_jsonl, write_jsonl

SVCC_TARGET_SPEAKERS = ("IDF1", "IDM1", "CDF1", "CDM1")

_KINDS = ("speech", "singing")


@dataclass(frozen=True)
class ManifestEntry:
    """One corpus row: an audio source with its metadata."""

    id: str
    path: str
    dataset: str
    language: str
    kind: str
    speaker: str
    duration_sec: float
    sample_rate: int

    def __post_init__(self):
        if self.duration_sec <= 0:
            raise InvalidParameterError(f"{self.id}: duration must be positive")
        if self.kind not in _KINDS:
            raise InvalidParameterError(
                f"{self.id}: kind must be one of {_KINDS}, got {self.kind!r}"
            )

    @classmethod
    def from_json(cls, doc: dict) -> "ManifestEntry":
        try:
            return cls(
                id=str(doc["id"]), path=str(doc["path"]),
                dataset=str(doc["dataset"]), language=str(doc["language"]),
                kind=str(doc["kind"]), speaker=str(doc["speaker"]),
                duration_sec=float(doc["duration_sec"]),
                sample_rate=int(doc["sample_rate"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestFormatError(f"bad manifest entry: {exc}") from exc


def read_manifest(path: str | os.PathLike) -> list:
    """Entries of a UTF-8 JSONL manifest; blank lines are skipped."""
    return [ManifestEntry.from_json(doc) for doc in read_jsonl(path, "manifest")]


def write_manifest(entries: list, path: str | os.PathLike) -> None:
    """Write JSONL atomically, one entry per line in field order."""
    write_jsonl(path, (asdict(e) for e in entries))


def reference_manifest_path() -> Path:
    """The packaged reference manifest of the training-data table."""
    return Path(resources.files("svcforge").joinpath("data/table1_reference.jsonl"))


@dataclass(frozen=True)
class TrainingSetSpec:
    """Include rules over (dataset, language, kind).

    An entry is included when its language and kind pass the respective
    filters (None means "any"), or when its dataset is in
    always_include_datasets. The conversion-target corpus is in the always
    list of every canonical spec.
    """

    name: str
    languages: frozenset | None
    kinds: frozenset | None
    always_include_datasets: frozenset = frozenset()

    def matches(self, entry: ManifestEntry) -> bool:
        if entry.dataset in self.always_include_datasets:
            return True
        if self.languages is not None and entry.language not in self.languages:
            return False
        if self.kinds is not None and entry.kind not in self.kinds:
            return False
        return True

    @classmethod
    def from_json(cls, doc: dict) -> "TrainingSetSpec":
        """Parse a spec object; each filter is a JSON array of strings, and
        `languages`/`kinds` may also be null (or absent) for "any"."""
        def names(key, default):
            value = doc.get(key, default)
            if value is None and default is None:
                return None
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise ManifestFormatError(
                    f"bad training-set spec: {key} must be an array of strings"
                )
            return frozenset(value)

        try:
            return cls(
                name=str(doc["name"]),
                languages=names("languages", None),
                kinds=names("kinds", None),
                always_include_datasets=names("always_include_datasets", []),
            )
        except (AttributeError, KeyError, TypeError) as exc:
            raise ManifestFormatError(f"bad training-set spec: {exc}") from exc


_ALWAYS = frozenset({"svcc2023"})

CANONICAL_SPECS = {
    "v1_sing_en": TrainingSetSpec("v1_sing_en", frozenset({"en"}),
                                  frozenset({"singing"}), _ALWAYS),
    "v2_ssmix_en": TrainingSetSpec("v2_ssmix_en", frozenset({"en"}), None, _ALWAYS),
    "v3_sing_langmix": TrainingSetSpec("v3_sing_langmix", None,
                                       frozenset({"singing"}), _ALWAYS),
    "final": TrainingSetSpec("final", None, None, _ALWAYS),
}


def canonical_spec(name: str) -> TrainingSetSpec:
    try:
        return CANONICAL_SPECS[name]
    except KeyError:
        raise UnknownSpecError(
            f"unknown spec {name!r}; canonical names: {sorted(CANONICAL_SPECS)}"
        ) from None


def compose_training_set(manifest: list, spec: TrainingSetSpec) -> tuple:
    """(filtered entries, total hours) for one composition spec."""
    selected = [e for e in manifest if spec.matches(e)]
    total_hours = sum(e.duration_sec for e in selected) / 3600.0
    return selected, total_hours


# -- segmentation ------------------------------------------------------------

@dataclass(frozen=True)
class SegmentSpec:
    """Half-open time interval in seconds."""

    start_sec: float
    end_sec: float

    def __post_init__(self):
        if not 0 <= self.start_sec < self.end_sec:
            raise InvalidParameterError(
                f"need 0 <= start < end, got [{self.start_sec}, {self.end_sec}]"
            )


@dataclass(frozen=True)
class VadConfig:
    frame_ms: float = defaults.VAD_FRAME_MS
    energy_floor_dbfs: float = defaults.VAD_ENERGY_FLOOR_DBFS
    min_speech_ms: float = defaults.VAD_MIN_SPEECH_MS
    hangover_ms: float = defaults.VAD_HANGOVER_MS
    min_gap_ms: float = defaults.VAD_MIN_GAP_MS

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not math.isfinite(value):
                raise InvalidParameterError(f"VAD {name} must be finite, got {value}")
        if self.frame_ms <= 0:
            raise InvalidParameterError("VAD frame_ms must be > 0")


def vad_segment(clip: AudioClip, cfg: VadConfig = VadConfig()) -> list:
    """Energy-gate voice activity segmentation.

    Frames whose RMS exceeds the floor are active; inactive gaps shorter
    than the hangover are bridged; segments shorter than min_speech are
    dropped; remaining segments separated by less than min_gap are merged.
    """
    frame = max(1, int(round(clip.sample_rate * cfg.frame_ms / 1000.0)))
    n = clip.samples.size
    if n == 0:
        return []
    n_frames = (n + frame - 1) // frame
    padded = np.zeros(n_frames * frame)
    padded[:n] = clip.samples
    frames = padded.reshape(n_frames, frame)
    # partial tail frame: RMS over real samples only
    counts = np.full(n_frames, frame, dtype=float)
    counts[-1] = n - (n_frames - 1) * frame
    rms = np.sqrt((frames ** 2).sum(axis=1) / counts)
    floor = 10.0 ** (cfg.energy_floor_dbfs / 20.0)
    active = rms > floor

    # bridge short inactive runs between active frames
    hang_frames = int(np.ceil(cfg.hangover_ms / cfg.frame_ms))
    runs = _runs(active)
    for start, stop, value in runs:
        if not value and start > 0 and stop < n_frames \
                and (stop - start) < hang_frames:
            active[start:stop] = True

    frame_sec = frame / clip.sample_rate
    duration = n / clip.sample_rate
    segments = [
        (start * frame_sec, min(stop * frame_sec, duration))
        for start, stop, value in _runs(active) if value
    ]
    segments = [
        (a, b) for a, b in segments if (b - a) * 1000.0 >= cfg.min_speech_ms
    ]
    merged = []
    for a, b in segments:
        if merged and (a - merged[-1][1]) * 1000.0 < cfg.min_gap_ms:
            merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return [SegmentSpec(a, b) for a, b in merged]


def _runs(mask: np.ndarray) -> list:
    """(start, stop, value) runs of a boolean vector."""
    out = []
    start = 0
    for i in range(1, len(mask) + 1):
        if i == len(mask) or mask[i] != mask[start]:
            out.append((start, i, bool(mask[start])))
            start = i
    return out


@dataclass(frozen=True)
class NoteEvent:
    """A score note, or a rest when pitch is None. Times in seconds."""

    onset_sec: float
    offset_sec: float
    pitch: int | None = None

    def __post_init__(self):
        if not self.onset_sec < self.offset_sec:
            raise InvalidParameterError("note onset must precede offset")

    @property
    def is_rest(self) -> bool:
        return self.pitch is None

    @classmethod
    def from_json(cls, doc: dict) -> "NoteEvent":
        try:
            pitch = doc.get("pitch")
            if isinstance(pitch, str):
                if pitch.lower() != "rest":
                    raise ManifestFormatError(f"bad pitch value {pitch!r}")
                pitch = None
            return cls(onset_sec=float(doc["onset_sec"]),
                       offset_sec=float(doc["offset_sec"]),
                       pitch=int(pitch) if pitch is not None else None)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ManifestFormatError(f"bad note event: {exc}") from exc


def read_notes(path: str | os.PathLike) -> list:
    docs = read_json(path, "notes file")
    if not isinstance(docs, list):
        raise ManifestFormatError(f"{path}: notes file must hold a JSON array")
    return [NoteEvent.from_json(d) for d in docs]


def rest_note_segment(notes: list, min_rest_sec: float = defaults.MIN_REST_SEC,
                      clip_duration: float = float("inf")) -> list:
    """Split at every rest of at least min_rest_sec.

    Rests arise from gaps between consecutive sounding notes and from
    explicit rest events. Each segment runs from a note onset to a note
    offset, so no boundary ever lands inside a note. `clip_duration` may
    be infinite (no clamp) but not NaN.
    """
    if not 0 <= min_rest_sec < math.inf:
        raise InvalidParameterError(
            f"min_rest_sec must be finite and >= 0, got {min_rest_sec}")
    if math.isnan(clip_duration):
        raise InvalidParameterError("clip_duration must not be NaN")
    for prev, cur in zip(notes, notes[1:]):
        if cur.onset_sec < prev.offset_sec - 1e-9 or cur.onset_sec < prev.onset_sec:
            raise OverlappingNotesError(
                f"events overlap near {cur.onset_sec:.3f} s"
            )
    sounding = [note for note in notes if not note.is_rest]
    if not sounding:
        return []
    segments = []
    start = sounding[0].onset_sec
    for prev, cur in zip(sounding, sounding[1:]):
        if cur.onset_sec - prev.offset_sec >= min_rest_sec:
            segments.append((start, prev.offset_sec))
            start = cur.onset_sec
    segments.append((start, sounding[-1].offset_sec))
    out = []
    for a, b in segments:
        a = max(0.0, a)
        b = min(clip_duration, b)
        if b > a:
            out.append(SegmentSpec(a, b))
    return out
