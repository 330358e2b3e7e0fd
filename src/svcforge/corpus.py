"""Corpus manifests, training-set composition, and audio segmentation.

A reference manifest mirroring the training-data table (per-dataset hours,
languages, kinds, and the four conversion-target speakers) ships with the
package; the composition predicates reproduce the four canonical training
sets from it. Actual audio is always user-supplied.
"""

import math
import os
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import defaults
from .audio import AudioClip
from .errors import FormatError, InvalidParameterError
from .svcf import json_record, read_json, read_jsonl

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
        if self.sample_rate <= 0:
            raise InvalidParameterError(f"{self.id}: sample rate must be positive")
        if self.kind not in _KINDS:
            raise InvalidParameterError(
                f"{self.id}: kind must be one of {_KINDS}, got {self.kind!r}"
            )


def read_manifest(path: str | os.PathLike) -> list:
    """Entries of a UTF-8 JSONL manifest; blank lines are skipped."""
    return [json_record(ManifestEntry, d, place) for place, d in read_jsonl(path, "manifest")]


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
        raise InvalidParameterError(
            f"unknown spec {name!r}; canonical names: {sorted(CANONICAL_SPECS)}"
        ) from None


def compose_training_set(manifest: list, spec: TrainingSetSpec) -> tuple:
    """(filtered entries, total hours) for one composition spec."""
    selected = [e for e in manifest if spec.matches(e)]
    total_hours = sum(e.duration_sec for e in selected) / 3600.0
    if not math.isfinite(total_hours):
        raise InvalidParameterError(f"total duration of spec {spec.name!r} overflows")
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
        for name in ("min_speech_ms", "hangover_ms", "min_gap_ms"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"VAD {name} must be >= 0, got {getattr(self, name)}")


def vad_segment(clip: AudioClip, cfg: VadConfig = VadConfig()) -> list:
    """Energy-gate voice activity segmentation.

    Frames whose RMS exceeds the floor are active; inactive gaps shorter
    than the hangover are bridged; segments shorter than min_speech are
    dropped; remaining segments separated by less than min_gap are merged.
    """
    n = clip.samples.size
    if n == 0:
        return []
    # a frame longer than the clip covers the clip
    frame = max(1, round(min(n, clip.sample_rate * cfg.frame_ms / 1000.0)))
    n_frames = (n + frame - 1) // frame
    padded = np.zeros(n_frames * frame)
    padded[:n] = clip.samples
    frames = padded.reshape(n_frames, frame)
    # partial tail frame: RMS over real samples only
    counts = np.full(n_frames, frame, dtype=float)
    counts[-1] = n - (n_frames - 1) * frame
    rms = np.sqrt((frames ** 2).sum(axis=1) / counts)
    with np.errstate(over="ignore"):  # a floor beyond the double range marks nothing active
        floor = np.float64(10.0) ** (cfg.energy_floor_dbfs / 20.0)
    edges = np.flatnonzero(np.diff(np.concatenate(([False], rms > floor, [False]))))
    # active frame runs, bridged across inactive gaps shorter than the hangover
    # in the frames as cut (a float: a hangover too long for an int bridges every gap)
    hang_frames = np.ceil(cfg.hangover_ms * clip.sample_rate / (1000.0 * frame))
    runs = _join(edges.reshape(-1, 2).tolist(), lambda gap: gap < hang_frames)

    frame_sec = frame / clip.sample_rate
    duration = n / clip.sample_rate
    segments = [(a * frame_sec, min(b * frame_sec, duration)) for a, b in runs]
    segments = _join([(a, b) for a, b in segments if (b - a) * 1000.0 >= cfg.min_speech_ms],
                     lambda gap: gap * 1000.0 < cfg.min_gap_ms)
    return [SegmentSpec(a, b) for a, b in segments]


def _join(spans, close) -> list:
    """Sorted (start, end) spans, each joined to the previous one when
    `close(gap)` holds for the gap between them."""
    out = []
    for a, b in spans:
        if out and close(a - out[-1][1]):
            out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
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


def read_notes(path: str | os.PathLike) -> list:
    docs = read_json(path, "notes file")
    if not isinstance(docs, list):
        raise FormatError(f"{path}: notes file must hold a JSON array")
    for d in docs:  # a pitch of "rest", in any case, is a rest like null
        if isinstance(d, dict) and isinstance(d.get("pitch"), str) and d["pitch"].lower() == "rest":
            d["pitch"] = None
    return [json_record(NoteEvent, d, f"note event {path}[{i}]") for i, d in enumerate(docs)]


def rest_note_segment(notes: list, min_rest_sec: float = defaults.MIN_REST_SEC,
                      clip_duration: float = float("inf")) -> list:
    """Split at every rest of at least min_rest_sec.

    Rests arise from gaps between consecutive sounding notes and from
    explicit rest events. Each segment runs from a note onset to a note
    offset, so no boundary ever lands inside a note. `clip_duration` must
    be > 0, and may be infinite (no clamp).
    """
    if not 0 <= min_rest_sec < math.inf:
        raise InvalidParameterError(
            f"min_rest_sec must be finite and >= 0, got {min_rest_sec}")
    if not clip_duration > 0:
        raise InvalidParameterError(f"clip_duration must be > 0, got {clip_duration}")
    for prev, cur in zip(notes, notes[1:]):
        if cur.onset_sec < prev.offset_sec - 1e-9 or cur.onset_sec < prev.onset_sec:
            raise InvalidParameterError(
                f"events overlap near {cur.onset_sec:.3f} s"
            )
    sounding = [(note.onset_sec, note.offset_sec) for note in notes if not note.is_rest]
    segments = [(max(0.0, a), min(clip_duration, b))
                for a, b in _join(sounding, lambda gap: gap < min_rest_sec)]
    return [SegmentSpec(a, b) for a, b in segments if b > a]
