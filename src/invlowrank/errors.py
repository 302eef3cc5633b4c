"""Exception hierarchy shared by all modules.

Two families matter for the CLI exit-code contract: ``ConfigError`` maps to
exit code 1 (usage, I/O, malformed input), ``NumericalError`` maps to exit
code 2 (a computation that cannot proceed or failed its own checks).
"""


class HarnessError(Exception):
    """Base class for all package errors."""


class ConfigError(HarnessError):
    """Bad usage, configuration, or input data."""


class NumericalError(HarnessError):
    """A numerical precondition failed or a computation broke down."""


# --- configuration / input validation -------------------------------------

class InvalidConfig(ConfigError):
    """A config key is missing, unknown, or has an out-of-range value."""


class InvalidArgument(ConfigError, ValueError):
    """A function argument is out of range or unknown; also a ValueError."""


class InvalidGrid(ConfigError):
    """A lambda grid is empty, unsorted, or contains nonpositive values."""


class MatrixFormatError(ConfigError):
    """A matrix file does not follow the 'rows cols' + rows-of-floats format."""


class ShapeMismatch(ConfigError):
    """Operands have incompatible shapes."""


class NonOneHotTargets(ConfigError):
    """Cross-entropy targets must be one-hot columns."""


class NonSquare(ConfigError):
    """A group generator must be a square matrix."""


class NotARepresentation(ConfigError):
    """generator**order is not the identity within tolerance."""


class OrderMismatch(ConfigError):
    """Input and output representations must have matching group orders."""


class IndexOutOfRange(ConfigError):
    """Group element index outside [0, order)."""


class RankOutOfRange(ConfigError):
    """Requested rank outside [0, min(rows, cols)]."""


class DimensionMismatch(ConfigError):
    """Vectors fed to a kernel have different dimensions."""


# --- numerical breakdown ---------------------------------------------------

class NoConvergence(NumericalError):
    """The SVD iteration failed to converge."""


class NotSymmetric(NumericalError):
    """A symmetric matrix was expected."""


class NotPositiveDefinite(NumericalError):
    """A positive definite matrix was expected (e.g. rank-deficient XX^T)."""


class SingularData(NumericalError):
    """XX^T (or its group-averaged analogue) is not positive definite."""


class DegenerateSpectrum(NumericalError):
    """Repeated nonzero singular values: the critical set is not finite."""


class TooManySubsets(NumericalError):
    """Critical-point enumeration would exceed the subset-count guard."""


class DivergenceDetected(NumericalError):
    """Training objective exceeded 1e6 times its initial value."""


class EmptyNullSpace(NumericalError):
    """The constraint has no left null space (no invariant maps)."""


class ZeroVector(NumericalError):
    """Kernel inputs must be nonzero vectors."""


class NotUnitary(NumericalError):
    """The representation must be unitary for this operation."""


class SingularKernel(NumericalError):
    """The (jittered) kernel solve did not reach the residual tolerance."""


class OrbitMeanZero(NumericalError):
    """Orbit-averaged output is numerically zero; relative deviation undefined."""
