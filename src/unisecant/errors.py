"""Exception hierarchy.

Two broad families matter to callers: ``DomainError`` for mathematically
invalid requests (wrong degree, point off the curve, singular curve where a
smooth one is required, ...) and ``InputError`` for malformed external data
(bad JSON, unparseable rationals).  The CLI maps these to exit codes 1 and 2.
"""


class UnisecantError(Exception):
    """Base class for all package errors."""


class DomainError(UnisecantError):
    """A mathematically invalid request (precondition violation)."""


class InputError(UnisecantError):
    """Malformed external input: files, CLI arguments, serializations."""


class UnsupportedFieldError(DomainError):
    """Data that would require irrational (non-Q) coordinates to process."""


class CommonComponentError(DomainError):
    """Two curves share a component where a proper intersection is required."""


class DegenerateFamilyError(DomainError):
    """A curve family whose parameter derivative is zero or proportional."""


class DegeneratePencilError(DomainError):
    """A pencil whose discriminant vanishes identically."""


class ResolutionDepthError(DomainError):
    """Blow-up resolution exceeded the depth bound (non-reduced input?)."""
