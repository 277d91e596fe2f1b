"""Exception types shared across the package."""

from __future__ import annotations


class LocalcertError(Exception):
    """Base class for all package-specific errors."""


class FormatError(LocalcertError):
    """A text artifact (graph, witness, labeling, ...) violates its format."""


class DegreeExceeded(LocalcertError):
    def __init__(self, vertex: int, degree: int, bound: int):
        super().__init__(f"vertex {vertex} has degree {degree} > bound {bound}")
        self.vertex = vertex
        self.degree = degree
        self.bound = bound


class NonSimple(LocalcertError):
    """Loop or repeated edge."""


class InfeasibleSpec(LocalcertError):
    """Family parameters admit no graph (or generation gave up)."""


class NotUniform(LocalcertError):
    """Witness fails the required uniformity threshold or support condition."""


class InfeasibleAlpha(LocalcertError):
    """Discretization denominator too small for the requested gap."""


class InvalidDistribution(LocalcertError):
    """Separator distribution violates its invariants."""


class MalformedLabeling(LocalcertError):
    """Labeling does not structurally match the graph it is checked against."""


class NotAccepted(LocalcertError):
    """Decoding requested for a labeling the verifier rejects."""


class NoQualifyingSet(LocalcertError):
    """No threshold set meets the boundary bound (cannot happen for valid input)."""


class OutOfRange(LocalcertError):
    """A function value lies outside [0, 1]."""


class WitnessTooRough(LocalcertError):
    """Measured witness irregularity leaves no room below the target eps'."""
