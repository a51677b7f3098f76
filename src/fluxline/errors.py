"""Exception types shared across the library."""


class FluxlineError(Exception):
    """Base class for all library-specific errors."""


# --- network -----------------------------------------------------------------

class HalfFluxDivergence(FluxlineError):
    """SQUID inductance diverges: |cos(pi*flux)| below clamp_epsilon in strict mode."""


class TangentPole(FluxlineError):
    """A line-section tangent was evaluated too close to one of its poles.

    The caller should perturb the evaluation frequency.
    """


class NoRootFound(FluxlineError):
    """The filter-frequency scan window contains no root."""

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


# --- dynamics ----------------------------------------------------------------

class DegenerateUnhandled(FluxlineError):
    """Closed-form evaluation overflowed even through the series fallback."""


class FitDiverged(FluxlineError):
    """A nonlinear least-squares fit failed to converge."""


class RankDeficient(FluxlineError):
    """The fit Jacobian is rank deficient; uncertainties are undefined."""


# --- thermometry -------------------------------------------------------------

class InvalidPopulations(FluxlineError):
    """Population vector is negative or not normalized beyond tolerance."""


class TooFewWindows(FluxlineError):
    """Window statistics need at least two windows."""


class BoundMismatch(FluxlineError, ArithmeticError):
    """The explicit and energy-variance QCRB routes disagree beyond tolerance."""


# --- classify ----------------------------------------------------------------

class SingularComponent(FluxlineError):
    """A mixture component collapsed (weight below 1e-6) during EM."""


class NotConverged(FluxlineError):
    """EM hit the iteration cap before meeting the likelihood tolerance."""

    def __init__(self, message, log_likelihood):
        super().__init__(message)
        self.log_likelihood = log_likelihood


class SingularCovariance(FluxlineError):
    """Pooled covariance is singular; Mahalanobis distance undefined."""


class EmptyRow(FluxlineError):
    """An assignment-matrix row has no shots."""


class AllOverflow(FluxlineError):
    """All counts fell in the overflow cluster; nothing to renormalize."""


# --- fits --------------------------------------------------------------------

class NoOscillation(FluxlineError):
    """Spectral seeding found no oscillation above the noise floor."""
