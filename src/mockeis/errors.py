"""Exception types shared across the package."""


class ZeroConstantTermError(ValueError):
    """Series inversion and division require a nonzero constant term."""


class ConstantTermError(ValueError):
    """Series exp/log preconditions on the constant term were violated."""


class FractionalExponentError(ValueError):
    """A theta summand produced an exponent outside the non-negative integers."""


class WindowUnderflowError(ValueError):
    """A Laurent-jet operation cannot certify any coefficient window."""


class WindowTooLargeError(ValueError):
    """A brute-force enumeration window exceeds the documented ceiling."""


class ConventionCaseError(ValueError):
    """The crank of the partition (1) is a counting convention, not a statistic value."""


class MissingMemberError(LookupError):
    """A partition trace asked for a family member beyond the computed range."""


class ConfigError(ValueError):
    """Invalid command-line or job configuration."""
