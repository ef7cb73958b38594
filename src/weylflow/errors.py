"""Exception types shared across the package."""


class WeylflowError(Exception):
    """Base class for all weylflow errors."""


class DegenerateMetricError(WeylflowError):
    """Metric is singular or outside its chart domain at a point."""


class DegeneratePlaneError(WeylflowError):
    """Two vectors fail to span a 2-plane."""


class InvalidEnergyLevelError(WeylflowError):
    """Energy level h does not dominate the potential on the requested domain."""


class KineticFloorError(WeylflowError):
    """Kinetic energy fell below the configured floor (isoenergetic singularity)."""


class NotLocallyPotentialError(WeylflowError):
    """Field is not (locally) a negative gradient of the supplied potential."""


class NonFiniteStateError(WeylflowError):
    """Integration produced NaN or Inf; message carries the step index."""


class InvalidStepError(WeylflowError):
    """Step size dt is not positive or exceeds the integration time T."""


class TooFewSamplesError(WeylflowError):
    """Trajectory has fewer samples than the operation's difference stencil needs."""


class FrameCollapseError(WeylflowError):
    """Transported frame became too ill-conditioned to re-orthonormalize."""


class InvalidStateError(WeylflowError):
    """Phase state violates a precondition (e.g. starts inside a scatterer)."""


class GrazingCollisionError(WeylflowError):
    """Collision is tangential within tolerance; derivative undefined."""


class ZeroFieldError(WeylflowError):
    """Operation requires a nonzero thermostat field."""


class UnsupportedConfigurationError(WeylflowError):
    """Requested configuration is outside what the operation supports."""


class NoOrbitError(WeylflowError):
    """No periodic orbit exists for the requested configuration."""


class ConfigError(WeylflowError):
    """Configuration document failed validation; carries every error found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
