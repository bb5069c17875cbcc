"""Exception hierarchy for the planning stack.

Every error raised on a contract violation derives from ``IxbspError`` so
callers can catch the whole family at the CLI boundary.
"""

from __future__ import annotations


class IxbspError(Exception):
    """Base class for all package-specific errors."""


class InvalidBelief(IxbspError):
    """Covariance not symmetric positive definite, or index inconsistent."""


class UnknownLandmark(IxbspError):
    """A data association references a landmark absent from the belief."""


class UnknownVariable(IxbspError):
    """A variable id is not part of the belief's index."""


class DegenerateUpdate(IxbspError):
    """A measurement update produced a non-PD information matrix."""


class DaMismatch(IxbspError):
    """Measurement entries disagree with the supplied data association."""


class UnsupportedModel(IxbspError):
    """A model kind outside the supported set was requested."""


class NumericalError(IxbspError):
    """A numeric routine left its supported domain (singular solve, ...)."""


class InvalidInput(IxbspError):
    """Malformed argument: wrong shape, negative count, bad enum value."""


class UnknownSequence(IxbspError):
    """A candidate action sequence is not part of the planner tree."""


class EmptyCandidates(IxbspError):
    """A selection routine received an empty candidate set."""


class IncompatibleStates(IxbspError):
    """State vectors or samples disagree in dimension or variable layout."""


class IncompatibleHorizon(IxbspError):
    """Archive and current session horizons cannot overlap as requested."""


class IncompleteRecord(IxbspError):
    """A reuse record lacks cached densities or samples it should carry."""


class IncompatibleTrees(IxbspError):
    """Two belief trees cannot be compared node-for-node."""


class ConfigError(IxbspError):
    """Scenario configuration failed validation."""
