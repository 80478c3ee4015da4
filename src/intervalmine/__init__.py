"""High-utility pattern mining over interval-based event sequences."""

from .model import CSequenceDataset, DataError, ESequenceDataset, UtilityTable
from .transform import transform_dataset
from .miner import MiningConfig, MiningStats, Pattern, mine
from .io import parse_dataset, parse_utilities, read_intervals
from .encoding import encode_intervals

__version__ = "0.1.0"

__all__ = [
    "CSequenceDataset",
    "DataError",
    "ESequenceDataset",
    "MiningConfig",
    "MiningStats",
    "Pattern",
    "UtilityTable",
    "encode_intervals",
    "mine",
    "parse_dataset",
    "parse_utilities",
    "read_intervals",
    "transform_dataset",
]
