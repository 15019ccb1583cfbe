"""Exception types shared across the package.

Each class maps to one failure mode named in the module contracts, so the
CLI can translate them into stable exit codes (usage=1, data=2, numeric=3).
"""


class PedintentError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(PedintentError, ValueError):
    """Tensor shapes are incompatible for the requested operation."""


class ContractError(PedintentError, ValueError):
    """An operation was called outside its documented contract."""


class NumericalError(PedintentError, ArithmeticError):
    """A non-finite value (NaN/Inf) appeared where finite floats are required."""


class DeterminismError(PedintentError, RuntimeError):
    """Two forward evaluations of a supposedly deterministic function differ."""


class DegenerateMaskError(PedintentError, ValueError):
    """A softmax/attention slice is fully masked out."""


class ConfigError(PedintentError, ValueError):
    """A model/training/run configuration violates its invariants."""


class WindowError(PedintentError, ValueError):
    """A feature sequence is too short or misaligned for windowing."""


class DegenerateCropError(PedintentError, ValueError):
    """A crop region is empty after enlargement and clipping to the frame."""


class ParseError(PedintentError, ValueError):
    """An annotation or container file is malformed."""


class IntegrityError(PedintentError, ValueError):
    """Parsed data violates a domain invariant (ordering, ranges, consistency)."""


class BalanceError(PedintentError, ValueError):
    """Class rebalancing or class weighting needs both classes present."""


class InputError(PedintentError, ValueError):
    """An observation window lacks a channel the model configuration enables."""


class CheckpointError(PedintentError, ValueError):
    """A weight checkpoint cannot be read or does not match the model."""
