"""Exception taxonomy shared by all lsqflow modules.

Every failure that callers are expected to handle is a subclass of
:class:`LsqflowError`, so ``except LsqflowError`` at a CLI or script
boundary catches exactly the library's own diagnostics and nothing else.
"""

from __future__ import annotations


class LsqflowError(Exception):
    """Base class for all errors raised by this package."""


class RankDeficientError(LsqflowError):
    """Measurement matrix does not have full column rank.

    ``numerical_rank`` records H's numerical rank at ``RANK_RTOL``.
    """

    def __init__(self, message: str, numerical_rank: int):
        super().__init__(message)
        self.numerical_rank = numerical_rank


class InvalidNodeError(LsqflowError):
    """Node index outside the 1..N range."""


class TooSmallError(LsqflowError):
    """Requested graph family needs more nodes than given."""


class NumericalFailureError(LsqflowError):
    """A dense linear-algebra routine failed to converge."""


class DimensionMismatchError(LsqflowError):
    """Problem and graph (or state vectors) disagree on sizes."""


class InternalInconsistencyError(LsqflowError):
    """Two independent computations that must agree did not.

    Raised instead of returning a silently wrong answer; treat as a bug
    signal, not as a recoverable condition.
    """


class NoStableModesError(LsqflowError):
    """System matrix has no eigenvalue with nonzero real part."""


class ConditionViolatedError(LsqflowError):
    """Operation requires the spanning condition, which fails here."""


class EquilibriumInfeasibleError(LsqflowError):
    """No dual equilibrium solves the stationarity system."""


class NotCharacterizedError(LsqflowError):
    """(family, n) pair has no catalogued closed-form minimum support."""


class DivergedError(LsqflowError):
    """State left the finite range during integration.

    Attributes
    ----------
    t_or_k : float | int
        Time (continuous) or step index (discrete) of first detection.
    trajectory : Trajectory
        Everything recorded before the blow-up, including the offending
        state, so callers can still serialize a partial run.
    bad_components : list[str]
        Names (``x_i_j`` / ``v_i_j``, 1-based) of the components that
        were non-finite or exceeded the divergence bound.
    """

    def __init__(self, message: str, t_or_k, trajectory, bad_components):
        super().__init__(message)
        self.t_or_k = t_or_k
        self.trajectory = trajectory
        self.bad_components = list(bad_components)


class StepAlignmentError(LsqflowError, ValueError):
    """A run's end or switch instants do not lie on its step grid.

    ``key`` names the parameter to blame: the numerator of the ratio that
    is not a whole number (``t_end`` or ``period_T``).
    """

    def __init__(self, message: str, key: str):
        super().__init__(message)
        self.key = key


class ConfigParseError(LsqflowError):
    """Configuration text is not valid JSON."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(message)
        self.line = line
        self.col = col


class SchemaError(LsqflowError):
    """Configuration JSON violates the run-config schema.

    Collects every violation, not just the first; ``path`` and
    ``reason`` expose the first one for quick access.
    """

    def __init__(self, violations):
        self.violations = [(str(p), str(r)) for p, r in violations]
        if not self.violations:
            raise ValueError("SchemaError needs at least one violation")
        lines = "; ".join(f"{p}: {r}" for p, r in self.violations)
        super().__init__(f"invalid config ({lines})")

    @property
    def path(self) -> str:
        return self.violations[0][0]

    @property
    def reason(self) -> str:
        return self.violations[0][1]


class NothingToPlotError(LsqflowError):
    """Plot spec selected no series."""

