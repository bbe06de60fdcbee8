"""Exception hierarchy shared across the toolkit.

The CLI maps these onto distinct exit codes, so callers embedding the
library in pipelines can tell bad input (1) from problems that are simply
too large for the requested strategy (2) and from mathematical
verification failures (3).
"""


class InputError(ValueError):
    """Malformed or inconsistent user input (bad edge, length mismatch, ...)."""


class KindError(InputError):
    """Structurally valid input of the wrong kind (cyclic part, non-tree subgraph)."""


class FloatRangeError(InputError):
    """A value the toolkit computes in floats (a denominator, a part cost) overflows a double."""


class DegenerateProfileError(InputError):
    """An all-zero Lipschitz profile where a positive denominator is required."""


class ScaleError(RuntimeError):
    """Instance exceeds the enumeration / verification limits of the chosen strategy."""


class VerificationError(RuntimeError):
    """An exact check that should hold by construction failed (internal defect signal)."""
