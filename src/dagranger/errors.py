"""Exception hierarchy shared across the package.

Two broad families map onto CLI exit codes: ConfigError (2) and DataError
(3). Everything else derives from one of them so the CLI can classify
failures without knowing each concrete type; ``cli.main`` maps any other
exception to exit code 4.
"""


class DagrangerError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DagrangerError):
    """Invalid configuration or option combination."""


class DataError(DagrangerError):
    """Malformed, inconsistent or degenerate input data."""


# --- graph construction -----------------------------------------------------

class CycleDetected(DataError):
    """Edge set contains a directed cycle."""


class SelfLoop(DataError):
    """Edge with identical endpoints."""


class DuplicateEdge(DataError):
    """The same directed edge appears more than once."""


class NodeIdOutOfRange(DataError):
    """Edge references a node id outside [0, n_nodes)."""


class DimensionMismatch(DataError):
    """Operator and operand shapes are incompatible."""


# --- preprocessing ----------------------------------------------------------

class NonFiniteInput(DataError):
    """Input matrix contains NaN or infinity."""


class KTooLarge(ConfigError):
    """Requested more neighbors than there are other nodes."""


class ParseError(DataError):
    """A data file could not be parsed; message carries path and line."""


# --- statistics -------------------------------------------------------------

class DegenerateSampleSize(DataError):
    """Too few observations for the requested degrees of freedom."""


class DomainError(DataError):
    """Argument outside the mathematical domain of a special function."""


class AllOneBin(DataError):
    """Pseudotime range is degenerate; every node falls in one bin."""


# --- evaluation -------------------------------------------------------------

class OneClassOnly(DataError):
    """Ranking metrics need at least one positive and one negative label."""


class NoLabeledPairs(DataError):
    """No candidate pair survived the labeling thresholds."""
