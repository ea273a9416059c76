"""Exception types raised by the indmatch package."""


class IndmatchError(Exception):
    """Base class for all errors raised by this package."""


class SelfLoop(IndmatchError):
    """An input edge has identical endpoints."""


class DuplicateEdge(IndmatchError):
    """The same endpoint pair appears twice in the input (either orientation)."""


class EdgeNotAlive(IndmatchError):
    """Operation on an edge that is currently removed or out of range."""


class StaleMark(IndmatchError):
    """Rollback requested past a mark that was already consumed."""


class UnknownEdge(IndmatchError):
    """A matching refers to an edge id the graph does not contain."""


class ZeroDegreePivot(IndmatchError):
    """Neighborhood classification requested for a degree-0 pivot."""


class EdgeNotInPivotStar(IndmatchError):
    """Sector lookup for an edge that is not a pivot-incident 0-1 edge."""


class NotC4Free(IndmatchError):
    """Assertion mode detected a structural violation of C4-freeness."""


class BackendUnavailable(IndmatchError, RuntimeError):
    """The requested backend cannot run: the native kernel is not built, or
    assertion mode, which only the Python engine checks, was asked of it."""


class TooLargeForOracle(IndmatchError):
    """The brute-force oracle refuses graphs beyond its subset-iteration guard."""


class InfeasibleSpec(IndmatchError):
    """A generator spec names no graph: an unknown family, a size out of range,
    or a random generator that exhausted its proposal budget."""


class ParseError(IndmatchError):
    """Malformed edge-list or benchmark-spec input."""
