"""Patent-corpus classification, technology metrics, and synthetic corpora."""

from .errors import (
    ConfigError,
    CpcParseError,
    DataError,
    DegenerateSampleError,
    InsufficientDataError,
    PatmetricsError,
)
from .io import parse_cpc

__version__ = "0.1.0"

__all__ = [
    "parse_cpc",
    "PatmetricsError",
    "ConfigError",
    "DataError",
    "CpcParseError",
    "DegenerateSampleError",
    "InsufficientDataError",
    "__version__",
]
