"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """An operation was called with arguments that break its preconditions
    (shape mismatch, overlapping id ranges, inconsistent mapping, ...)."""


class ConfigError(ValueError):
    """Invalid configuration value (bad capacity, unknown config key, ...)."""


class DataFormatError(ValueError):
    """A data file is malformed: bad magic, truncation, out-of-range channel."""


class CorruptionError(ValueError):
    """A sparse batch or trace contains internally inconsistent data."""


class NonFiniteStep(ArithmeticError):
    """A training step produced a non-finite loss or weight gradient."""


class OutOfTileMemory(RuntimeError):
    """The per-tile memory estimate exceeds the tile's SRAM budget."""

    def __init__(self, tile: int, needed: int, budget: int):
        self.tile = tile
        self.needed = needed
        self.budget = budget
        super().__init__(
            f"tile {tile} needs {needed} bytes but only {budget} are available"
        )
