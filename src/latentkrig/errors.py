"""Exception hierarchy.

Every package-specific failure derives from LatentKrigError. The CLI maps
errors onto exit codes via the ``exit_code`` class attribute: problems a
user can fix by correcting inputs or flags exit with 2, failures that
surface mid-computation (singular systems, empty kernel windows, panels
that cannot support the requested estimate) exit with 3.
"""

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class LatentKrigError(Exception):
    """Base class for all package errors."""

    exit_code = EXIT_VALIDATION


# ---- input and contract violations (exit 2) ----

class ParseError(LatentKrigError):
    """Malformed input: CSV header, field or timestamp, or model document."""


class DuplicateCell(LatentKrigError):
    """Two rows address the same (time, location) cell."""


class UnknownLocation(LatentKrigError):
    """Observation references a location id absent from the location table."""


class InvalidCoordinate(LatentKrigError):
    """Non-finite coordinate, or latitude outside [-90, 90] on the sphere."""


class TooFewLocations(LatentKrigError):
    """Operation needs more locations than the panel provides."""


class TooFewEigenvalues(LatentKrigError):
    """Ratio estimator asked to scan more eigenvalues than exist."""


class BlockTooLarge(LatentKrigError):
    """Divide-and-conquer block size exceeds half the panel."""


class PeriodTooLarge(LatentKrigError):
    """Deseasonalisation period too long for the panel length."""


class LagTooLarge(LatentKrigError):
    """Requested lag depth is not identifiable from n time points."""


class MissingDataError(LatentKrigError):
    """Operation requires complete columns; impute or drop first."""


class ConfigError(LatentKrigError):
    """Environment setting out of range, e.g. LATENT_KRIG_THREADS=abc."""


# ---- numerical failures (exit 3) ----

class NumericalError(LatentKrigError):
    exit_code = EXIT_NUMERICAL


class InsufficientOverlap(NumericalError):
    """Fewer than two jointly observed time points for some pair."""


class NotSymmetric(NumericalError):
    """Matrix expected symmetric beyond the roundoff allowance."""


class RankDeficient(NumericalError):
    """Loading matrix lost full column rank."""


class SingularDesign(NumericalError):
    """Regression design with no usable inverse at some location."""


class EmptyKernelWindow(NumericalError):
    """All kernel weights vanished at the prediction site."""


class NotPositiveDefinite(NumericalError):
    """Covariance block fails the positive-definiteness check."""


class SingularInnovation(NumericalError):
    """Innovation (Schur) block in the Toeplitz recursion is singular."""
