"""Exception hierarchy shared by all hybridfem modules."""


class HybridFEMError(Exception):
    """Base class for all library errors."""


class DegenerateElement(HybridFEMError):
    """Triangle that is not three finite 2D vertices off one line."""


class ParseError(HybridFEMError):
    """Malformed mesh file.  Carries the 1-based offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonConformingMesh(HybridFEMError):
    """The triangles are not (nt, 3) ids of existing vertices, or an edge is
    shared by more than two triangles."""


class UnsupportedDegree(HybridFEMError):
    """Polynomial degree, vector space tag or quadrature size outside the
    supported range."""


class SingularLocalSystem(HybridFEMError):
    """A local projection/lifting system is singular or near-singular (basis bug)."""


class SingularLocalSolver(HybridFEMError):
    """An element-local solver in the hybridization path is singular."""


class SingularSystem(HybridFEMError):
    """The assembled global system is singular (mesh/space bug)."""


class InvalidStabilization(HybridFEMError):
    """Stabilization must be nonnegative and nonzero on every element."""


class NonPositiveDiffusion(HybridFEMError):
    """Diffusion coefficient is not strictly positive at a quadrature point."""


class InvalidProblemData(HybridFEMError):
    """A data callable does not give one value per point; or the source,
    boundary value or reaction coefficient is non-finite, or the reaction
    coefficient is negative, at a quadrature point."""


class ConfigError(HybridFEMError):
    """Invalid convergence-study or mesh-generator configuration."""
