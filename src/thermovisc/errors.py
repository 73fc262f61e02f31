"""Exception types shared across the package."""


class NonFiniteInput(ValueError):
    """An input carried NaN or infinity."""


class CertificationFailure(Exception):
    """A constitutive law failed its certification sweep.

    Carries the name of the violated check and the violating sample.
    """

    def __init__(self, message, check=None, sample=None):
        super().__init__(message)
        self.check = check
        self.sample = sample


class DomainExit(RuntimeError):
    """A hardening variable left its declared domain."""


class BadConfig(ValueError):
    """Invalid mesh or run configuration."""


class BadData(ValueError):
    """Field data violates a precondition (wrong sign, non-finite, ...)."""


class DimensionMismatch(ValueError):
    """Array shapes are inconsistent with the mesh or basis."""


class SolverFailure(RuntimeError):
    """A linear or eigenvalue solve did not reach its tolerance."""


class NonlinearSolveFailure(SolverFailure):
    """The implicit step did not converge; keeps the time it was stepping to
    and the residual history."""

    def __init__(self, message, residual_history=(), t=None):
        super().__init__(message)
        self.residual_history = list(residual_history)
        self.t = t


class EmptyComplement(RuntimeError):
    """The requested complement basis does not fit in the strain space."""


class StateCorrupt(RuntimeError):
    """A simulation state violates a structural invariant."""


class ParseError(ValueError):
    """The config file could not be parsed at all."""


class ValidationError(ValueError):
    """Config validation failed; lists every violation, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "config validation failed:\n" + "\n".join(f"  - {v}" for v in self.violations)
        )
