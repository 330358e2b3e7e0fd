"""Versioned table of the toolkit's numeric defaults.

`svcforge config show` prints this table, and releases diff it. Flags
override F0_FLOOR_HZ and F0_CEIL_HZ (`extract`, `f0-stats`), VAD_* and
MIN_REST_SEC (`segment`), QUANTIZE_CENTS (`convert-pitch`), and
DIFFUSION_STEPS, GUIDANCE_SCALE, P_UNCOND and FINETUNE_ITERATIONS (`ddpm`).
Every other entry, CROSS_DOMAIN_OFFSET_SEMITONES and F0_MEDIAN_WIDTH among
them, is read from the table when used, so `config show` prints the value in
use; only HOP, WIN_LENGTH and FFT_SIZE are bound at import, into the one frame
grid `features.CANONICAL_FRAME_CONFIG`. The toy denoiser's literals (lr 1e-3,
500 steps, hidden 32, dim 8, speaker_dim 4, `toy_dataset`'s 8 items, 200
`evaluate_l2` draws from seed 12345) are not here.
"""

DEFAULTS_VERSION = "2"

# Canonical pipeline rate and frame grid (10 ms hop, 40 ms window).
SAMPLE_RATE = 24000
HOP = 240
WIN_LENGTH = 960
FFT_SIZE = 1024

# Mel / loudness
N_MELS = 80
MEL_FMIN_HZ = 0.0
MEL_FMAX_HZ = 12000.0
POWER_FLOOR = 1e-10
A_WEIGHT_FLOOR_DB = -200.0

# Resampler: polyphase windowed sinc
RESAMPLE_TAPS_PER_PHASE = 64
RESAMPLE_KAISER_BETA = 8.6

# F0 tracker
F0_FLOOR_HZ = 50.0
F0_CEIL_HZ = 1100.0
VUV_PEAK_THRESHOLD = 0.3
VUV_ENERGY_FLOOR_DBFS = -60.0
F0_MEDIAN_WIDTH = 5

# Information perturbation
FORMANT_RATIO_LO = 1.0 / 1.4
FORMANT_RATIO_HI = 1.4
PITCH_SEMITONE_LO = -12.0
PITCH_SEMITONE_HI = 12.0
EQ_BANDS = 8
EQ_GAIN_LO_DB = -12.0
EQ_GAIN_HI_DB = 12.0
EQ_Q_LO = 0.5
EQ_Q_HI = 5.0
EQ_FC_LO_HZ = 60.0
EQ_FC_HI_HZ = 10000.0
FORMANT_QUEFRENCY_CUTOFF_SEC = 0.00125
WSOLA_SEGMENT_SEC = 0.025
WSOLA_SEARCH_SEC = 0.0075
PITCH_INNER_RATE_STEP_HZ = 100

# Pitch conversion
QUANTIZE_CENTS = 100
CROSS_DOMAIN_OFFSET_SEMITONES = 6.0

# Diffusion
DIFFUSION_STEPS = 100
BETA_START = 1e-4
BETA_END = 0.02
GUIDANCE_SCALE = 1.0
P_UNCOND = 0.1
FINETUNE_ITERATIONS = 500

# Contrastive objective
CONTRASTIVE_TAU = 0.1
RAMP_RATE = 1e-5
RAMP_CAP = 1.0

# Segmentation
VAD_FRAME_MS = 30.0
VAD_ENERGY_FLOOR_DBFS = -45.0
VAD_MIN_SPEECH_MS = 200.0
VAD_HANGOVER_MS = 300.0
VAD_MIN_GAP_MS = 300.0
MIN_REST_SEC = 0.5


def as_dict() -> dict:
    """The full defaults table as a plain dict (for `config show`)."""
    table = {
        name: value
        for name, value in sorted(globals().items())
        if name.isupper()
    }
    return {"defaults_version": DEFAULTS_VERSION, "values": table}
