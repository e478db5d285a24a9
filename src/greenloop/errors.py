"""Exception hierarchy shared by all greenloop modules.

Every error raised by the library derives from GreenloopError so callers
(and the CLI exit-code mapping) can catch by family.
"""

from __future__ import annotations

from dataclasses import dataclass


class GreenloopError(Exception):
    """Base class for all library errors."""


# --- scenario loading / validation ---------------------------------------

class ParseError(GreenloopError):
    """Scenario document is malformed (bad JSON, wrong type, unknown field).

    Carries a locus string ("line 12" or a field path) when one is known.
    """

    def __init__(self, message: str, locus: str | None = None):
        self.locus = locus
        super().__init__(f"{message} (at {locus})" if locus else message)


class ValidationError(GreenloopError):
    """A scenario violates a type invariant; names the offending field."""

    def __init__(self, message: str, locus: str | None = None):
        self.locus = locus
        super().__init__(f"{message} (at {locus})" if locus else message)


class CompileError(GreenloopError):
    """Scenario cannot be compiled to a linear program."""


# --- solver ----------------------------------------------------------------

class SolverError(GreenloopError):
    """Instance violates a solver precondition (e.g. unbounded integer var)."""


# --- routing ---------------------------------------------------------------

class RoutingError(GreenloopError):
    pass


class StateSpaceTooLarge(RoutingError):
    """More service bins than the tabular state space supports."""


class DisconnectedGraph(RoutingError):
    """A bin requiring service cannot be reached (or left) along graph edges."""


class MissingEdge(RoutingError):
    """A route traverses a leg with no edge in the graph."""


# --- carbon accounting -------------------------------------------------------

class CarbonError(GreenloopError):
    pass


class MissingFactor(CarbonError):
    """Activity ledger references a process with no emission factor."""


class DuplicateFactor(CarbonError):
    """Two emission factors registered for the same process."""


class InconsistentReport(CarbonError):
    """Carbon report stage/process totals disagree beyond tolerance."""


# --- digital twin ------------------------------------------------------------

class TwinError(GreenloopError):
    pass


class NoGraph(TwinError):
    """Bin simulation requested on a scenario without a collection graph."""


class StepBudgetExceeded(TwinError):
    """A facility run would take more throughput-sized steps than the twin allows."""


# --- classifier ----------------------------------------------------------------

class ClassifierError(GreenloopError):
    pass


class MissingFeature(ClassifierError):
    """Sensor record lacks a required feature token."""


class ZeroVariance(ClassifierError):
    """A feature has zero spread; z-score normalization undefined."""


class SingleClassData(ClassifierError):
    """Training data carries fewer than two distinct labels."""


class NonFiniteLoss(ClassifierError):
    """Training diverged (learning rate too large)."""


class DimensionMismatch(ClassifierError):
    """Feature vector length does not match the model input dimension."""


class EmptyDataset(ClassifierError):
    """Evaluation requested on an empty labeled set."""


# --- pipeline / reporting -----------------------------------------------------

class PipelineError(GreenloopError):
    pass


class ModeUnsupported(PipelineError):
    """Scenario lacks the components the requested run mode needs."""


class StageError(PipelineError):
    """A pipeline stage failed; wraps the cause and names the stage."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause}")


class MissingArtifacts(PipelineError):
    """Feedback update requested without the prior run's model artifacts."""


class ModeMismatch(PipelineError):
    """Comparison requires one baseline run and one framework run."""


class ManifestUnreadable(GreenloopError):
    """Run manifest file missing, malformed, or pointing at absent artifacts."""


class MissingMetric(GreenloopError):
    """Chart or report requested a metric the run did not produce."""


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding: where (a field path) plus what went wrong."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"
