"""Exception types shared across the package."""


class AdsGeoError(Exception):
    """Base class for all package errors."""


class DomainError(AdsGeoError):
    """Input violates a documented precondition (off-quadric point,
    parameter out of range)."""


class DegenerateDataError(AdsGeoError):
    """Induced metric degenerate, non-spacelike, or too ill-conditioned."""


class ConvexityError(AdsGeoError):
    """Operation requires strong convexity (det B bounded away from 0)."""


class FocalPointError(AdsGeoError):
    """Equidistant flow hit a focal point (cos(s) E + sin(s) B singular)."""


class MeshResourceError(AdsGeoError):
    """Requested mesh refinement level exceeds the configured maximum."""


class ConfigError(AdsGeoError):
    """Bad run configuration (unknown key, unknown fixture, value out of
    range).  Mapped to exit code 2 by the CLI."""
