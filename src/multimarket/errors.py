"""Exception taxonomy shared across the package."""

from __future__ import annotations


class MarketError(Exception):
    """Base class for every domain error raised by this package."""


# --- scenario tree -------------------------------------------------------

class MalformedTopology(MarketError):
    pass


class NonPositiveProbability(MarketError):
    pass


class ProbabilitySumMismatch(MarketError):
    pass


# --- market model --------------------------------------------------------

class SchemaError(MarketError):
    pass


class NonPositiveNumeraire(MarketError):
    pass


class MissingNodeValue(MarketError):
    pass


class UnknownSubmarket(MarketError):
    pass


class DimensionMismatch(MarketError):
    pass


# --- LP engine -----------------------------------------------------------

class NumericBreakdown(MarketError):
    """Float-mode solve failed verification; retry in rational mode."""


# --- arbitrage / pricing -------------------------------------------------

class ArbitrageExists(MarketError):
    def __init__(self, witness, message="arbitrage opportunity found"):
        super().__init__(message)
        self.witness = witness


class SubmarketArbitrage(ArbitrageExists):
    pass


class GlobalArbitrage(ArbitrageExists):
    pass


class CertificateViolation(MarketError):
    def __init__(self, value, message=None):
        super().__init__(message or f"dual certificate is {value}, expected 0")
        self.value = value


def certificate_failure(exact: bool, value, message: str) -> MarketError:
    """The error for a failed certificate check: a CertificateViolation in
    exact mode, where it is a genuine fault, and a NumericBreakdown in float
    mode, where rational mode is the remedy."""
    if exact:
        return CertificateViolation(value, message)
    return NumericBreakdown(message)


class DegenerateDenominator(MarketError):
    """A weighted measure set is empty: the slice E[X Z] = 1 misses the
    deflator cone, which meets the nonnegative orthant only at 0."""


class ConditionNotMet(MarketError):
    """A closed-form identity's hypothesis fails on this model."""


class DimensionNotOne(MarketError):
    pass


class WrongShape(MarketError):
    pass


class NonPositiveWeight(MarketError):
    pass


# --- multicurve ----------------------------------------------------------

class BadMaturities(MarketError):
    pass


class NonPositiveBond(MarketError):
    pass


class NonPositiveAccumulation(MarketError):
    pass


class QuotesEqual(MarketError):
    pass
