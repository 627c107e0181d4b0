"""Exception types shared across the package."""


class PdhypError(Exception):
    """Base class for package errors."""


class DegreeMismatch(PdhypError):
    """Declared homogeneity degree contradicts the symbol's scaling."""


class GridMismatch(PdhypError):
    """Operands live on different spectral grids."""


class CostCapExceeded(PdhypError):
    """Direct pseudoproduct sum would exceed the term-evaluation cap."""


class ExponentMismatch(PdhypError):
    """p or q outside an estimate harness's domain (it derives the rest)."""


class StepRejected(PdhypError):
    """Post-step norm exceeded the blow-up guard."""

    def __init__(self, t, norm, limit):
        super().__init__(f"blow-up guard tripped at t={t:.6g}: "
                         f"H^N norm {norm:.6g} > limit {limit:.6g}")
        self.t = t
        self.norm = norm
        self.limit = limit


class MissingSeries(PdhypError):
    """A norm series required by the bootstrap functional is absent."""


class NonPositiveValues(PdhypError):
    """Log-log fitting requested on a series with values <= 0."""


class UnknownPreset(PdhypError):
    """Initial-data or symbol preset name not recognized."""


class ConfigError(PdhypError):
    """Experiment configuration failed validation."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        super().__init__("; ".join(problems))
        self.problems = list(problems)
