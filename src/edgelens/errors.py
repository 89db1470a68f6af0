"""Exception types shared across the library."""


class EdgeLensError(Exception):
    """Base class for all library errors."""


class InvalidSelectionError(EdgeLensError):
    """A node or edge selection references ids not present in the graph."""


class UndefinedMetricError(EdgeLensError):
    """A metric was requested on a degenerate input (empty subgraph, etc.)."""


class EnumerationTooLargeError(EdgeLensError):
    """The graph exceeds the edge cap for exhaustive enumeration."""


class ModelFormatError(EdgeLensError):
    """A model file is malformed, has a bad version, or inconsistent shapes."""


class DataFormatError(EdgeLensError, ValueError):
    """A graph, dataset or dataset file is malformed or contains invalid values."""


class NumericalFailureError(EdgeLensError):
    """A forward pass or training run produced non-finite values."""
