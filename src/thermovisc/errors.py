"""Exception types shared across the package, grouped by exit code.

Every exception the package raises on purpose belongs to one family, which
fixes the command line's exit code and the prefix of its stderr line:
``ConfigError`` (2, "config error"), ``SolverError`` (3, "solver failure")
and ``InvariantError`` (4, "invariant violation").  ``record()`` holds the
fields an error adds to the failure record of its command.
"""

EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_INVARIANT = 0, 2, 3, 4


class Failure(Exception):
    """Base of the three families."""

    def record(self) -> dict:
        """This error's own fields of the failure record."""
        return {}


class ConfigError(Failure):
    exit_code, label = EXIT_CONFIG, "config error"


class SolverError(Failure):
    exit_code, label = EXIT_SOLVER, "solver failure"


class InvariantError(Failure):
    exit_code, label = EXIT_INVARIANT, "invariant violation"


class NonFiniteInput(SolverError, ValueError):
    """An input carried NaN or infinity."""


class CertificationFailure(InvariantError):
    """A constitutive law failed its certification sweep.

    Carries the sweep's report, the names of the violated checks and the
    sample that violates the first of them.
    """

    def __init__(self, message, report, checks=(), sample=None):
        super().__init__(message)
        self.report = report
        self.checks = list(checks)
        self.sample = sample

    def record(self) -> dict:
        return self.report.as_dict()


class DomainExit(SolverError, RuntimeError):
    """A hardening variable left its declared domain."""


class BadConfig(ConfigError, ValueError):
    """Invalid mesh or run configuration."""


class BadData(ConfigError, ValueError):
    """Field data violates a precondition (wrong sign, non-finite, ...)."""


class DimensionMismatch(ConfigError, ValueError):
    """Array shapes are inconsistent with the mesh or basis."""


class SolverFailure(SolverError, RuntimeError):
    """A linear or eigenvalue solve did not reach its tolerance."""


class NonlinearSolveFailure(SolverFailure):
    """The implicit step did not converge; keeps the time it was stepping to
    and the residual history."""

    def __init__(self, message, residual_history=(), t=None):
        super().__init__(message)
        self.residual_history = list(residual_history)
        self.t = t

    def record(self) -> dict:
        return {"t_failed": self.t, "residual_history": self.residual_history}


class EmptyComplement(ConfigError, RuntimeError):
    """The requested complement basis does not fit in the strain space."""


class StateCorrupt(InvariantError, RuntimeError):
    """A simulation state violates a structural invariant."""


class ParseError(ConfigError, ValueError):
    """The config file could not be parsed at all."""


class ValidationError(ConfigError, ValueError):
    """Config validation failed; lists every violation, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "config validation failed:\n" + "\n".join(f"  - {v}" for v in self.violations)
        )
