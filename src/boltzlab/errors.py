"""Exception types shared across the laboratory."""


class BoltzlabError(Exception):
    """Base class for all package errors."""


class DomainError(BoltzlabError, ValueError):
    """Geometric precondition violated (point outside domain, zero velocity, ...)."""


class PreconditionError(BoltzlabError, ValueError):
    """An operation contract was violated by the caller."""


class ConfigurationError(BoltzlabError, ValueError):
    """Bad or inconsistent configuration input."""


class DependencyError(BoltzlabError, RuntimeError):
    """A pipeline stage was requested before the stage it depends on."""

    def __init__(self, stage: str, needs: str, detail: str = ""):
        self.stage = stage
        self.needs = needs
        msg = "stage %r requires artifacts from stage %r" % (stage, needs)
        super().__init__(msg + (": " + detail if detail else ""))


class ConvergenceError(BoltzlabError, RuntimeError):
    """Iteration failed to converge; carries the partial report and, from a
    solve of several sources, the position of the failing one."""

    def __init__(self, message, report=None, index=None):
        super().__init__(message)
        self.report = report
        self.index = index
