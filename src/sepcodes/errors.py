"""Exception types shared across the package."""


class FormatError(ValueError):
    """Malformed graph6, edge-list, or blueprint text."""


class BlueprintError(ValueError):
    """A construction blueprint violates one of its preconditions."""


class GuardError(ValueError):
    """An input exceeds a size guard meant to prevent runaway computation."""


class BudgetError(GuardError):
    """The solver exhausted its search-node budget before finishing.

    subsets_tested is the number of search nodes visited."""

    def __init__(self, message: str, subsets_tested: int = 0):
        super().__init__(message)
        self.subsets_tested = subsets_tested
