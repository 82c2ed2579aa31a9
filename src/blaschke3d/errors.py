"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every error raised by blaschke3d."""


# -- geometry ---------------------------------------------------------------

class UnboundedRegion(ToolkitError):
    """Directions do not positively span 3-space, so the half-space
    intersection is unbounded; the cut of the half-spaces or the
    deepest-point linear program finds it."""


class DegenerateBody(ToolkitError):
    """The body has empty interior (or fewer than 4 usable points)."""


class LinearProgramFailed(ToolkitError):
    """The deepest-point linear program ran out of pivots."""


class DegenerateAngle(ToolkitError):
    """Two adjacent faces are (anti)parallel within tolerance."""


# -- herisson ---------------------------------------------------------------

class NonPositiveArea(ToolkitError):
    """A face weight is zero or negative."""


class DuplicateDirection(ToolkitError):
    """Two directions coincide within the merge tolerance."""


class RankDeficient(ToolkitError):
    """All directions lie in a single plane through the origin."""


class ClosureViolation(ToolkitError):
    """The weighted direction sum is too far from zero to repair."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class GenerationFailed(ToolkitError):
    """Random herisson generation exhausted its redraw budget."""


class NonPositiveScale(ToolkitError):
    """Scaling factor must be strictly positive."""


# -- solver -----------------------------------------------------------------

class StepSizeUnderflow(ToolkitError):
    """The solve found no step length that reduces the area residual, or
    ran out of steps."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class NewtonDivergence(ToolkitError):
    """A Newton update of the support numbers was not finite."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class OracleFailed(ToolkitError):
    """The minimisation of Minkowski's functional missed the target areas."""


# -- inequalities -----------------------------------------------------------

class PremiseViolated(ToolkitError):
    """A hypothesis of the inequality under test does not hold for the
    given inputs."""

    def __init__(self, message, direction=None):
        super().__init__(message)
        self.direction = direction


# -- io / spherical ---------------------------------------------------------

class ParseError(ToolkitError):
    """Malformed input file."""


class NonConvexInput(ToolkitError):
    """Imported mesh is not a convex polyhedron."""


class InvalidPolygon(ToolkitError):
    """Spherical polygon violates its construction rules."""
