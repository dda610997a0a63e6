"""Exception hierarchy shared by every wavemux module.

Two intermediate bases group the errors by how the command line maps them
to exit codes: ``ConfigError`` for invalid plans or wavelet definitions
(exit 2) and ``DataError`` for malformed payloads, frames, or signals
(exit 3). ``OffGrid`` stands alone because it signals a demux integrity
failure (exit 4) rather than a caller mistake.
"""


class WavemuxError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(WavemuxError):
    """A plan, wavelet, or parameter fails validation."""


class DataError(WavemuxError):
    """Payload, frame, or signal data has the wrong shape or content."""


# ---------------------------------------------------------------- wavelets

class UnknownWavelet(ConfigError):
    """Requested builtin wavelet name is not registered."""


class NotOrthonormal(ConfigError):
    """Scaling coefficients violate the orthonormality conditions."""


class OddLength(ConfigError):
    """A filter that must have even length does not."""


# ------------------------------------------------------------- transforms

class BadDepth(ConfigError):
    """Decomposition depth is not compatible with the signal length."""


# -------------------------------------------------------------- rate plans

class JTooLarge(ConfigError):
    """J is above the supported maximum, or its compositions exceed the enumeration cap."""


class NotPowerOfTwoN(ConfigError):
    """Frame blocklength is not a power of two."""


class NTooLarge(ConfigError):
    """Frame blocklength exceeds the supported maximum."""


class DepthExceedsBlocklength(ConfigError):
    """The number of scales does not fit the frame blocklength."""


class IllegalRate(ConfigError):
    """A channel rate is outside the admissible tributary rate set."""


class DuplicateChannel(ConfigError):
    """A plan declares the same channel id more than once."""


class CapacityMismatch(ConfigError):
    """Declared channel rates do not add up to the aggregate rate."""


class RateInconsistentWithFm(ConfigError):
    """A channel's rate disagrees with its declared analog bandwidth."""


# ----------------------------------------------------------------- framing

class BadLength(DataError):
    """Bit string length is not a multiple of the converter resolution."""


class BadResolution(ConfigError):
    """Converter resolution outside the supported 1..24 bit range."""


class MissingChannel(DataError):
    """A declared channel has no payload."""


class DuplicatePayload(DataError):
    """A channel's payload is given more than once."""


class PayloadLengthMismatch(DataError):
    """A payload does not yield exactly its per-frame sample count."""


class ShapeMismatch(DataError):
    """Signal or frame shape does not match the plan or allocation."""


class NonFiniteSample(DataError):
    """A sample payload holds NaN or an infinity, which synthesis would
    spread over every channel of its frame.

    ``channel`` is the id of the channel that holds the first such
    sample, frames taken in line order and channels in declaration order.
    """

    def __init__(self, message: str, channel: str) -> None:
        super().__init__(message)
        self.channel = channel


class OffGrid(WavemuxError):
    """A recovered sample lies farther than the guard band from every
    quantizer level, indicating corrupted input or a wrong resolution.

    ``index`` is the position of the first off-grid sample in the decoded
    array, or None when not known.
    """

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index
