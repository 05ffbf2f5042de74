"""Exception types raised across the package."""


class SgError(Exception):
    """Base class for all sgspectra errors."""


class SelfLoop(SgError):
    pass


class DuplicateEdge(SgError):
    pass


class VertexOutOfRange(SgError):
    pass


class SameVertex(SgError):
    pass


class EmptyGraph(SgError):
    pass


class LengthMismatch(SgError):
    pass


class UnderlyingGraphMismatch(SgError):
    pass


class BadOrder(SgError):
    pass


class NoSuchEdge(SgError, KeyError):
    __str__ = Exception.__str__  # the message as given, not KeyError's quoted repr


class NotAllowable(SgError):
    pass


class NonSymmetric(SgError):
    pass


class NoConvergence(SgError):
    pass


class ZeroVector(SgError):
    pass


class ZeroDenominator(SgError):
    pass


class ConfigInvalid(SgError):
    pass


class ParseError(SgError):
    pass


class ArgMismatch(SgError):
    pass
