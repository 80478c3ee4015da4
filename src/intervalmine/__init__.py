"""High-utility pattern mining over interval-based event sequences."""

from .model import CSequenceDataset, DataError, ESequenceDataset, UtilityTable
from .transform import transform_dataset
from .miner import MiningConfig, MiningStats, Pattern, mine
from .io import parse_dataset, parse_utilities

__version__ = "0.1.0"

__all__ = [
    "CSequenceDataset",
    "DataError",
    "ESequenceDataset",
    "MiningConfig",
    "MiningStats",
    "Pattern",
    "UtilityTable",
    "mine",
    "parse_dataset",
    "parse_utilities",
    "transform_dataset",
]
