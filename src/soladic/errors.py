"""Exception types shared across the package."""


class SoladicError(Exception):
    """Base class for package-specific failures."""


class CharacterOutsideGroup(SoladicError):
    """A rational was used as a character but lies outside the dual group."""


class SpecMismatch(SoladicError):
    """Two objects built over different multiplicity tables were combined."""


class DepthUnavailable(SoladicError):
    """The defining sequence is too short for the requested depth."""


class DepthInsufficient(SoladicError):
    """Sampled coordinates are too shallow for the requested operation."""


class CharacterTooDeep(SoladicError):
    """An empirical estimate was requested for a character below the sampled depth."""


class BadWeights(SoladicError):
    """Mixture weights must be nonnegative rationals summing to one."""


class TermBudgetExceeded(SoladicError):
    """A symbolic operation produced more terms than the configured cap."""


class PreconditionViolated(SoladicError):
    """A scenario was invoked outside its stated hypotheses."""


class ConfigError(SoladicError):
    """A config document is malformed: bad schema, unknown keys, inexact numbers."""


class SoundnessError(SoladicError):
    """An internal cross-check failed; components disagree where they must not."""


class UndecomposedSolution(SoundnessError):
    """A cf solves the equation where the paper's theorem forces gaussian-times-haar form, yet has none.

    No characteristic function can do that, so for a law's own cf it is a
    defect of this package, and for a function given as such it shows that
    the function is not positive definite.
    """
