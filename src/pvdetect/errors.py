"""Exception hierarchy shared by all pvdetect modules.

Three broad classes map onto the CLI exit codes: ConfigError (bad
parameters or config files, exit 2), InputError (missing or unreadable
input, exit 3, as does any OSError, reported as a file error) and
DataError (well-located but malformed content, exit 4).
"""


class PVDetectError(Exception):
    """Base class for all pvdetect errors."""


class ConfigError(PVDetectError):
    """Invalid parameter value or unparsable configuration."""


class InputError(PVDetectError):
    """A required input file or directory is missing or unreadable."""


class DataError(PVDetectError):
    """Input exists but its content violates the expected format."""


class RasterFormatError(DataError):
    """Raster file header is malformed or uses an unsupported variant."""


class TruncatedRasterError(DataError):
    """Raster file declares more pixel data than it contains."""


class ChannelCountError(DataError):
    """Raster file does not carry exactly three channels."""


class AnnotationError(DataError):
    """Polygon annotation record is malformed or geometrically invalid."""


class ModelFormatError(DataError):
    """Serialized forest file is structurally invalid."""


class ModelVersionError(ModelFormatError):
    """Serialized forest file carries an unsupported version tag."""


class ModelChecksumError(ModelFormatError):
    """Serialized forest file fails its integrity checksum."""
