"""The seeded input generator: determinism, layout and oracle consistency."""

import hashlib
import json

import numpy as np
import pytest

import gen


def _snapshot(directory):
    """File name -> sha256, with the output directory masked in manifests."""
    out = {}
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = data.replace(str(directory).encode(), b"<dir>")
        out[path.name] = hashlib.sha256(data).hexdigest()
    return out


@pytest.fixture
def one_round(monkeypatch):
    monkeypatch.setattr(gen, "N_ROUNDS", 1)


@pytest.mark.parametrize("workload", sorted(gen.MAKERS))
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path, one_round):
    gen.generate(workload, 5, tmp_path / "a")
    gen.generate(workload, 5, tmp_path / "b")
    gen.generate(workload, 6, tmp_path / "c")
    a, b, c = (_snapshot(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_layout_is_fixed_and_content_follows_the_seed(tmp_path, one_round):
    m5 = gen.generate("preprocess", 5, tmp_path / "a")
    m6 = gen.generate("preprocess", 6, tmp_path / "b")
    layout = [(t["id"], t["rate"], t["bits"], t["channels"], t["seconds"])
              for t in m5["rounds"][0]["takes"]]
    assert layout == [(t["id"], t["rate"], t["bits"], t["channels"], t["seconds"])
                      for t in m6["rounds"][0]["takes"]]
    assert [x[0] for x in layout] == [row[0] for row in gen.ROUND_LAYOUT]
    assert m5["audio_seconds"] == pytest.approx(80.0)

    p5 = gen.generate("perturb", 5, tmp_path / "c")
    p6 = gen.generate("perturb", 6, tmp_path / "d")
    assert sorted(p5["pair_seeds"]) == sorted(p6["pair_seeds"]) == sorted(gen.PAIR_SEED_POOL)
    segs = np.load(p5["segments"])
    assert segs.shape == (gen.PERTURB_SEGMENTS, int(gen.PERTURB_SECONDS * gen.CANON_RATE))
    assert not np.array_equal(segs, np.load(p6["segments"]))


def test_takes_read_back_and_truth_matches_the_canonical_grid(tmp_path, one_round):
    from svcforge.audio import read_wav, resample
    from svcforge.features import CANONICAL_FRAME_CONFIG
    from svcforge.svcf import read_tensor

    manifest = gen.generate("preprocess", 9, tmp_path)
    for take in manifest["rounds"][0]["takes"]:
        clip = read_wav(take["wav"])
        assert clip.sample_rate == take["rate"]
        assert clip.duration_sec == pytest.approx(take["seconds"])
        assert np.max(np.abs(clip.samples)) <= 0.8
        truth = read_tensor(take["truth"])
        frames = CANONICAL_FRAME_CONFIG.num_frames(resample(clip, 24000).samples.size)
        assert truth.shape == (frames, 2)
        voiced = truth[:, 1] > 0.5
        assert 0.4 < voiced.mean() < 0.95
        lo, hi = gen.SPEAKER_RANGE[take["speaker"]]
        assert np.all((truth[voiced, 0] >= lo - 1e-3) & (truth[voiced, 0] <= hi + 1e-3))
        assert np.all(truth[~voiced, 0] == 0)
    stats = json.loads(open(manifest["rounds"][0]["src_stats"]).read())
    assert set(stats) == {"speaker_id", "mean_log_f0", "std_log_f0", "n_voiced_frames"}


@pytest.mark.parametrize("bits", [16, 24])
@pytest.mark.parametrize("channels", [1, 2])
def test_wav_writer_round_trips_through_the_reader(tmp_path, bits, channels):
    from svcforge.audio import read_wav

    rng = np.random.default_rng(0)
    x = rng.uniform(-0.9, 0.9, size=(1000, channels))
    path = tmp_path / "x.wav"
    path.write_bytes(gen.wav_bytes(x, 44100, bits))
    clip = read_wav(path)
    assert clip.sample_rate == 44100
    np.testing.assert_allclose(clip.samples, x.mean(axis=1), atol=2.0 ** (1 - bits))


def test_glottal_pulses_carry_the_requested_pitch():
    rate = 24000
    f0 = np.full(rate, 440.0)
    x = gen.glottal_vowel(f0, rate, ((700.0, 160.0),))
    spec = np.abs(np.fft.rfft(x[rate // 4:] * np.hanning(x.size - rate // 4)))
    freqs = np.fft.rfftfreq(x.size - rate // 4, 1.0 / rate)
    band = (freqs > 300) & (freqs < 1000)
    peaks = freqs[band][np.argsort(spec[band])[-2:]]
    assert np.min(np.abs(peaks[:, None] - np.array([440.0, 880.0])[None, :]), axis=1).max() < 3.0
