"""CPU executors: the multicore baseline."""

from .nagasaka import balanced_row_ranges, spgemm_nagasaka

__all__ = [
    "balanced_row_ranges",
    "spgemm_nagasaka",
]
