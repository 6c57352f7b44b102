"""Patent-corpus classification, technology metrics, and synthetic corpora."""

from .corpus import Corpus, parse_cpc
from .errors import (
    ConfigError,
    CpcParseError,
    DataError,
    DegenerateSampleError,
    InsufficientDataError,
    PatmetricsError,
)

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "parse_cpc",
    "PatmetricsError",
    "ConfigError",
    "DataError",
    "CpcParseError",
    "DegenerateSampleError",
    "InsufficientDataError",
    "__version__",
]
