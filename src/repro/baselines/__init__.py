"""Comparison partitioners: ParMetis-like, PT-Scotch-like, hash, random."""

from .common import CostLedger
from .parmetis_like import parmetis_partition
from .recursive_bisection import scotch_partition
from .trivial import hash_partition, random_partition

__all__ = [
    "CostLedger",
    "hash_partition",
    "parmetis_partition",
    "random_partition",
    "scotch_partition",
]
