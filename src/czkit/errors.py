"""Exception types shared across the toolkit."""


class CzkitError(Exception):
    """Base class for all toolkit errors."""


class EmptyRadiusList(CzkitError):
    pass


class EmptySet(CzkitError):
    pass


class OmegaIsWholeSpace(CzkitError):
    pass


class DegenerateScale(CzkitError):
    pass


class LeafCube(CzkitError):
    pass


class RootTerminal(CzkitError):
    pass


class ZeroMass(CzkitError):
    pass


class NonFiniteKernelValue(CzkitError):
    pass


class ClassificationMissing(CzkitError):
    pass


class HypothesisViolated(CzkitError):
    pass


class UnknownExample(CzkitError):
    pass


class CalibrationExhausted(CzkitError):
    pass
