"""The one exception every correctness check of the benchmark raises."""


class CheckFailed(Exception):
    """A correctness check failed: the run reports ``correct: false``."""
