"""Exception types shared across the package."""


class GaahError(Exception):
    """Base class for all package errors."""


class ParameterError(GaahError, ValueError):
    """A value lies outside its physical or numerical domain."""


class ConfigError(GaahError, ValueError):
    """Configuration text could not be parsed or validated."""


class NumericsError(GaahError, RuntimeError):
    """A numerical procedure failed to converge or produced non-finite values."""


class UnstableEvolutionError(NumericsError):
    """Trajectory norm grew beyond the allowed bound during time stepping."""

    def __init__(self, step: int, norm_sq: float):
        self.step = step
        self.norm_sq = norm_sq
        super().__init__(
            f"norm^2 = {norm_sq:.6g} exceeded 1 + 1e-4 at step {step}; "
            "reduce dt or check parameters"
        )

    def __reduce__(self):
        # Rebuilt from its fields, not from ``args`` (the message), so it
        # crosses a process boundary intact.
        return type(self), (self.step, self.norm_sq)


class PrescriptionViolationError(NumericsError):
    """A refined pole converged to a positive imaginary part, which the
    retarded (-i*epsilon) residue choice forbids."""

    def __init__(self, energy: complex):
        self.energy = energy
        super().__init__(
            f"pole converged to Im(E) = {energy.imag:.3e} > 1e-12 at E = {energy}"
        )

    def __reduce__(self):
        return type(self), (self.energy,)


class OracleMismatchError(GaahError):
    """Cross-validation between two independent solvers exceeded tolerance."""
