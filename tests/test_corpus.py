import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from svcforge import defaults
from svcforge.audio import AudioClip
from svcforge.corpus import (
    CANONICAL_SPECS,
    ManifestEntry,
    NoteEvent,
    SVCC_TARGET_SPEAKERS,
    SegmentSpec,
    TrainingSetSpec,
    VadConfig,
    canonical_spec,
    compose_training_set,
    read_manifest,
    reference_manifest_path,
    rest_note_segment,
    vad_segment,
)
from svcforge.errors import FormatError, InvalidParameterError
from svcforge.svcf import json_record, jsonl_bytes
from synth import sine

EXPECTED_HOURS = {
    "v1_sing_en": 4.21,
    "v2_ssmix_en": 631.79,
    "v3_sing_langmix": 122.56,
    "final": 750.14,
}


@pytest.fixture(scope="module")
def reference():
    return read_manifest(reference_manifest_path())


def test_reference_manifest_loads(reference):
    assert len(reference) == 19
    assert {e.kind for e in reference} == {"speech", "singing"}


@pytest.mark.parametrize("name", sorted(EXPECTED_HOURS))
def test_canonical_totals(reference, name):
    selected, hours = compose_training_set(reference, canonical_spec(name))
    assert hours == pytest.approx(EXPECTED_HOURS[name], abs=0.01)
    speakers = {e.speaker for e in selected}
    for target in SVCC_TARGET_SPEAKERS:
        assert target in speakers


def test_entries_unique_per_spec(reference):
    for spec in CANONICAL_SPECS.values():
        selected, _ = compose_training_set(reference, spec)
        ids = [e.id for e in selected]
        assert len(ids) == len(set(ids))


def test_unknown_spec():
    with pytest.raises(InvalidParameterError, match="unknown spec"):
        canonical_spec("v9_everything")


def test_spec_json_roundtrip():
    spec = canonical_spec("v2_ssmix_en")
    back = json_record(TrainingSetSpec, json.loads(
        '{"name": "v2_ssmix_en", "languages": ["en"], "kinds": null,'
        ' "always_include_datasets": ["svcc2023"]}'), "training-set spec")
    assert back == spec


def test_manifest_roundtrip(tmp_path, reference):
    p = tmp_path / "m.jsonl"
    p.write_bytes(jsonl_bytes(asdict(e) for e in reference))
    assert read_manifest(p) == reference


def test_manifest_bad_line(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id": "x"}\nnot json\n')
    with pytest.raises(FormatError, match=r"bad manifest .*bad\.jsonl:2"):
        read_manifest(p)


def test_entry_validation():
    with pytest.raises(InvalidParameterError):
        ManifestEntry("x", "p", "d", "en", "humming", "s", 10.0, 24000)
    with pytest.raises(InvalidParameterError):
        ManifestEntry("x", "p", "d", "en", "speech", "s", 0.0, 24000)
    for start, end in ((2.0, 1.0), (1.0, 1.0), (-0.5, 1.0)):
        with pytest.raises(InvalidParameterError, match="start < end"):
            SegmentSpec(start, end)


# -- VAD ----------------------------------------------------------------------

def test_vad_silence():
    assert vad_segment(AudioClip(np.zeros(24000), 24000)) == []


def test_vad_floor_beyond_the_double_range_marks_nothing_active():
    assert vad_segment(sine(440, 0.5), VadConfig(energy_floor_dbfs=6166.0)) == []


def test_vad_single_tone():
    tone = sine(440, 1.0, amplitude=0.1)  # -20 dBFS peak
    segments = vad_segment(tone)
    assert len(segments) == 1
    covered = segments[0].end_sec - segments[0].start_sec
    assert covered >= 0.95 * tone.duration_sec


def test_vad_tone_silence_tone_edges():
    sr = 24000
    tone = sine(440, 1.0, amplitude=0.2).samples
    x = np.concatenate([tone, np.zeros(sr), tone])
    segments = vad_segment(AudioClip(x, sr))
    assert len(segments) == 2
    (a, b), (c, d) = [(s.start_sec, s.end_sec) for s in segments]
    for got, want in [(a, 0.0), (b, 1.0), (c, 2.0), (d, 3.0)]:
        assert abs(got - want) <= 0.06


def test_vad_bridges_short_dips():
    sr = 24000
    tone = sine(440, 0.5, amplitude=0.2).samples
    # 120 ms dip, shorter than the 300 ms hangover: one segment
    x = np.concatenate([tone, np.zeros(int(0.12 * sr)), tone])
    segments = vad_segment(AudioClip(x, sr))
    assert len(segments) == 1


@pytest.mark.parametrize("frame_ms", [0.01, 0.03, 0.1, 1.0, 30.0])
def test_vad_hangover_counts_the_frames_it_uses(frame_ms):
    # at 0.01 ms a frame rounds to one sample, 2.4 times the nominal frame;
    # the 300 ms hangover still bridges 300 ms, not 0.5 s gaps
    sr = 24000
    burst = sine(440, 0.6, amplitude=0.2).samples
    x = np.concatenate([burst, np.zeros(sr // 2), burst])
    segments = vad_segment(AudioClip(x, sr), VadConfig(frame_ms=frame_ms))
    assert len(segments) == 2
    (a, b), (c, d) = [(s.start_sec, s.end_sec) for s in segments]
    for got, want in [(a, 0.0), (b, 0.6), (c, 1.1), (d, 1.7)]:
        assert abs(got - want) <= 0.03


def test_vad_drops_short_blips():
    sr = 24000
    blip = sine(440, 0.1, amplitude=0.2).samples  # 100 ms < 200 ms minimum
    x = np.concatenate([np.zeros(sr), blip, np.zeros(sr)])
    assert vad_segment(AudioClip(x, sr)) == []


def test_vad_merges_close_segments():
    sr = 24000
    tone = sine(440, 0.5, amplitude=0.2).samples
    # 400 ms gap: survives the 300 ms hangover bridge as two active runs,
    # then min_gap=500 ms merges them back into one segment
    x = np.concatenate([tone, np.zeros(int(0.4 * sr)), tone])
    cfg = VadConfig(min_gap_ms=500.0)
    segments = vad_segment(AudioClip(x, sr), cfg)
    assert len(segments) == 1


def test_vad_sorted_nonoverlapping_bounded():
    rng = np.random.default_rng(0)
    x = rng.normal(scale=0.05, size=48000) * (rng.random(48000) > 0.5)
    clip = AudioClip(np.clip(x, -1, 1), 24000)
    segments = vad_segment(clip)
    for seg in segments:
        assert 0 <= seg.start_sec < seg.end_sec <= clip.duration_sec
    for first, second in zip(segments, segments[1:]):
        assert first.end_sec <= second.start_sec


# -- rest-note segmentation -----------------------------------------------------

def _note(onset, offset, pitch=60):
    return NoteEvent(onset, offset, pitch)


def test_rest_segment_no_rests():
    notes = [_note(0.5, 1.0), _note(1.2, 2.0), _note(2.1, 3.0)]
    segments = rest_note_segment(notes, min_rest_sec=0.5, clip_duration=4.0)
    assert len(segments) == 1
    assert segments[0].start_sec == 0.5
    assert segments[0].end_sec == 3.0


def test_rest_segment_splits_on_long_rest():
    notes = [_note(0.0, 1.0), _note(2.0, 3.0)]
    segments = rest_note_segment(notes, min_rest_sec=0.5, clip_duration=3.0)
    assert [(s.start_sec, s.end_sec) for s in segments] == [(0.0, 1.0), (2.0, 3.0)]


def test_rest_segment_threshold_enumeration():
    # gaps of 0.4 s and 0.6 s: only the 0.6 s gap splits
    notes = [_note(0.0, 1.0), _note(1.4, 2.0), _note(2.6, 3.0)]
    segments = rest_note_segment(notes, min_rest_sec=0.5, clip_duration=3.0)
    assert [(s.start_sec, s.end_sec) for s in segments] == [(0.0, 2.0), (2.6, 3.0)]


def test_rest_segment_explicit_rest_event():
    notes = [_note(0.0, 1.0), NoteEvent(1.0, 1.8, None), _note(1.8, 2.5)]
    segments = rest_note_segment(notes, min_rest_sec=0.5, clip_duration=2.5)
    assert [(s.start_sec, s.end_sec) for s in segments] == [(0.0, 1.0), (1.8, 2.5)]


def test_rest_segment_overlap_rejected():
    with pytest.raises(InvalidParameterError, match="events overlap"):
        rest_note_segment([_note(0.0, 1.0), _note(0.5, 2.0)], clip_duration=3.0)


@pytest.mark.parametrize("min_rest_sec, clip_duration", [
    (float("nan"), 3.0), (float("inf"), 3.0), (-0.5, 3.0), (0.5, float("nan")),
    (0.5, 0.0), (0.5, -1.0), (0.5, -float("inf")),
])
def test_rest_segment_rejects_bad_parameters(min_rest_sec, clip_duration):
    with pytest.raises(InvalidParameterError):
        rest_note_segment([_note(0.0, 1.0), _note(2.0, 3.0)], min_rest_sec, clip_duration)


@pytest.mark.parametrize("field", ["frame_ms", "energy_floor_dbfs", "min_speech_ms",
                                   "hangover_ms", "min_gap_ms"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_vad_config_rejects_non_finite_fields(field, value):
    with pytest.raises(InvalidParameterError):
        VadConfig(**{field: value})


@pytest.mark.parametrize("frame_ms", [0.0, -10.0])
def test_vad_config_rejects_nonpositive_frame(frame_ms):
    with pytest.raises(InvalidParameterError):
        VadConfig(frame_ms=frame_ms)


@pytest.mark.parametrize("field", ["min_speech_ms", "hangover_ms", "min_gap_ms"])
def test_vad_config_rejects_negative_durations(field):
    with pytest.raises(InvalidParameterError, match=f"VAD {field} must be >= 0"):
        VadConfig(**{field: -5.0})
    assert getattr(VadConfig(**{field: 0.0}), field) == 0.0


def test_rest_segment_clamps_to_clip():
    notes = [_note(0.0, 1.0), _note(2.0, 5.0)]
    segments = rest_note_segment(notes, min_rest_sec=0.5, clip_duration=3.0)
    assert segments[-1].end_sec == 3.0


def test_rest_segment_boundaries_never_inside_notes():
    notes = [_note(0.0, 1.0), _note(1.7, 2.4), _note(3.5, 4.0)]
    segments = rest_note_segment(notes, min_rest_sec=0.5, clip_duration=5.0)
    edges = [x for s in segments for x in (s.start_sec, s.end_sec)]
    for edge in edges:
        for note in notes:
            assert not (note.onset_sec < edge < note.offset_sec)


def test_compose_rejects_an_overflowing_total():
    entry = dict(id="x", path="x.wav", dataset="d", language="en", kind="singing",
                 speaker="s", duration_sec=1.7e308, sample_rate=24000)
    manifest = [ManifestEntry(**entry), ManifestEntry(**dict(entry, id="y"))]
    with pytest.raises(InvalidParameterError):
        compose_training_set(manifest, canonical_spec("final"))


def test_vad_frame_longer_than_the_clip_covers_the_clip():
    tone = sine(440, 0.5, amplitude=0.2)
    for frame_ms in (600.0, 1e6, 1e300):
        segments = vad_segment(tone, VadConfig(frame_ms=frame_ms))
        assert [(s.start_sec, s.end_sec) for s in segments] == [(0.0, 0.5)]


# -- the parent's segmenters, kept verbatim as references for `_join` ----------

def _reference_vad_segment(clip, cfg=VadConfig()):
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
    hang_frames = int(np.ceil(cfg.hangover_ms * clip.sample_rate / (1000.0 * frame)))
    runs = _reference_runs(active)
    for start, stop, value in runs:
        if not value and start > 0 and stop < n_frames \
                and (stop - start) < hang_frames:
            active[start:stop] = True

    frame_sec = frame / clip.sample_rate
    duration = n / clip.sample_rate
    segments = [
        (start * frame_sec, min(stop * frame_sec, duration))
        for start, stop, value in _reference_runs(active) if value
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


def _reference_runs(mask):
    out = []
    start = 0
    for i in range(1, len(mask) + 1):
        if i == len(mask) or mask[i] != mask[start]:
            out.append((start, i, bool(mask[start])))
            start = i
    return out


def _reference_rest_note_segment(notes, min_rest_sec=defaults.MIN_REST_SEC,
                                 clip_duration=float("inf")):
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


def _spans(segments):
    return [(s.start_sec, s.end_sec) for s in segments]


def _random_clip(rng):
    """Silences alternating with bursts of tone or noise at random levels."""
    rate = int(rng.choice([8000, 16000, 24000]))
    parts = []
    for k in range(int(rng.integers(0, 10))):
        n = int(rng.integers(1, rate))
        level = 10.0 ** rng.uniform(-2, -0.3)
        if k % 2 == 0:
            parts.append(np.zeros(n // 3))
        elif rng.random() < 0.5:
            parts.append(level * np.sin(2 * np.pi * rng.uniform(80, 900) * np.arange(n) / rate))
        else:
            parts.append(level * rng.standard_normal(n).clip(-3, 3) / 3)
    return AudioClip(np.concatenate(parts) if parts else np.zeros(0), rate)


def _random_vad_config(rng):
    if rng.random() < 0.5:  # round numbers, so gaps can land exactly on a threshold
        return VadConfig(frame_ms=float(rng.choice([10.0, 20.0, 30.0])),
                         energy_floor_dbfs=float(rng.choice([-50.0, -40.0, -30.0])),
                         min_speech_ms=float(rng.choice([0.0, 30.0, 60.0, 200.0])),
                         hangover_ms=float(rng.choice([10.0, 0.0, 30.0, 60.0, 300.0])),
                         min_gap_ms=float(rng.choice([0.0, 30.0, 60.0, 300.0])))
    return VadConfig(frame_ms=float(10.0 ** rng.uniform(0, 6)),
                     energy_floor_dbfs=float(rng.uniform(-70, -10)),
                     min_speech_ms=float(rng.uniform(0, 200)),
                     hangover_ms=float(rng.uniform(0, 300)),
                     min_gap_ms=float(rng.uniform(0, 500)))


def test_vad_matches_the_reference_segmenter():
    rng = np.random.default_rng(2024)
    split = 0
    for _ in range(300):
        clip, cfg = _random_clip(rng), _random_vad_config(rng)
        got = _spans(vad_segment(clip, cfg))
        assert got == _spans(_reference_vad_segment(clip, cfg)), cfg
        split += len(got) > 1
    assert split >= 40  # the sweep splits clips, not only finds silence


def _random_notes(rng):
    notes, t = [], float(rng.uniform(-0.3, 0.5))
    for _ in range(int(rng.integers(0, 12))):
        dur = float(rng.choice([0.1, 0.25, rng.uniform(0.01, 1.0)]))
        pitch = None if rng.random() < 0.2 else int(rng.integers(40, 90))
        notes.append(NoteEvent(t, t + dur, pitch))
        t += dur + float(rng.choice([0.0, -5e-10, 0.1, 0.25, 0.5, rng.uniform(0, 1)]))
    return notes


def test_rest_segmenter_matches_the_reference():
    rng = np.random.default_rng(2025)
    for _ in range(300):
        notes = _random_notes(rng)
        min_rest = float(rng.choice([0.0, 0.1, 0.25, 0.5, rng.uniform(0, 1)]))
        end = notes[-1].offset_sec if notes else 1.0
        clip = float(rng.choice([math.inf, end, end * rng.uniform(0.2, 1.2)]))
        assert _spans(rest_note_segment(notes, min_rest, clip)) == \
            _spans(_reference_rest_note_segment(notes, min_rest, clip))
