"""Exception hierarchy shared across the package, and the default caps its errors report."""

DEFAULT_MAX_RELATORS = 5_000_000  # relators a presentation may emit (ResourceLimit)
DEFAULT_MAX_COSETS = 1_000_000  # cosets an enumeration may define (Capped)


class GactError(Exception):
    """Base class for all library errors."""


class TableNotGroup(GactError):
    """A multiplication table fails the group axioms."""


class ParseError(GactError):
    """A text form (table file, map grammar, presentation file) is malformed."""


class IndexOutOfRange(GactError):
    """An element index is outside 0..order-1."""


class RankMismatch(GactError):
    """Two maps over incompatible act ranks or groups were combined."""


class NotInH(GactError):
    """An endomorphism is outside the distinguished group H-class."""


class BadRank(GactError):
    """A rank parameter is outside 1..n."""


class ResourceLimit(GactError):
    """A configurable size cap was exceeded."""

    def __init__(self, what, limit):
        super().__init__(f"{what} exceeds the cap {limit}")
        self.what = what
        self.limit = limit


class NotDecomposable(GactError):
    """The element's rising point is too low to split off a simple form."""


class ZeroEntry(GactError):
    """A sandwich-matrix entry required to be a group element is zero."""


class WitnessNotFound(GactError):
    """A certifying singular quadruple could not be located by search."""


class Capped(GactError):
    """Coset enumeration hit its coset cap before completing."""

    def __init__(self, max_cosets):
        super().__init__(
            f"coset enumeration capped at {max_cosets} cosets; "
            "increase max_cosets or simplify first"
        )
        self.max_cosets = max_cosets


class IncompleteTable(GactError):
    """An operation needs a complete coset table."""
