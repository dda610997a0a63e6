"""wavemux: multiresolution multiplexing of tributary channels.

Many tributaries, at the basic rate or power-of-two multiples of it, are
combined into a single discrete signal by placing their samples as
wavelet coefficients and running orthonormal synthesis; pyramid analysis
at the receiver separates them again. The package bundles the filter
bank, the transform core, the rate-plan algebra with its deterministic
band allocator, the frame codec, and a spectrum comparator against plain
time-division framing.
"""

from .errors import (
    BadDepth,
    BadLength,
    BadResolution,
    CapacityMismatch,
    ConfigError,
    DataError,
    DepthExceedsBlocklength,
    DuplicateChannel,
    DuplicatePayload,
    IllegalRate,
    JTooLarge,
    MissingChannel,
    NonFiniteSample,
    NotOrthonormal,
    NotPowerOfTwoN,
    NTooLarge,
    OddLength,
    OffGrid,
    PayloadLengthMismatch,
    RateInconsistentWithFm,
    ShapeMismatch,
    UnknownWavelet,
    WavemuxError,
)
from .framing import (
    MuxedSignal,
    TributaryPayload,
    demux,
    demux_frames,
    dequantize_samples,
    mux,
    mux_frames,
    quantize_words,
    tdm_row,
)
from .mra import analyze, synthesize
from .rateplan import (
    Allocation,
    Channel,
    Composition,
    FrameLayout,
    RatePlan,
    Slot,
    aggregate_rate,
    allocate_bands,
    channel_units,
    count_compositions,
    enumerate_compositions,
    frame_time,
    load_plan,
    plan_digest,
    plan_from_dict,
    plan_to_dict,
    samples_per_frame,
    tree_depth,
    tributary_rates,
    validate_plan,
)
from .spectrum import (
    SpectrumReport,
    compare_spectra,
    dft_magnitude,
    random_payloads,
    tdm_reference,
    write_report_csv,
)
from .wavelets import (
    ConstraintViolation,
    FilterPair,
    builtin_names,
    check_orthonormality,
    derive_wavelet_filter,
    format_coefficients_csv,
    make_wavelet_system,
    parse_coefficients_csv,
)

__version__ = "0.1.0"
