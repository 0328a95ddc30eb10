"""Exception and warning types shared across the engine."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for engine failures."""


class WellPosednessViolation(EngineError):
    """The share-cost drag degenerates the diffusion: sigma <= sqrt(2/(pi*dt))*C_S."""


class InvalidSpec(EngineError):
    """A grid specification fails its preconditions."""


class MissingPayoff(EngineError):
    """A custom instrument has no usable terminal payoff samples."""


class NonFiniteValue(EngineError):
    """The explicit march produced a non-finite node value.

    Carries the reporting step ``step`` and node index ``node`` where the
    first non-finite entry appeared.
    """

    def __init__(self, step: int, node: int):
        self.step = step
        self.node = node
        super().__init__(f"non-finite value at time step {step}, node {node}")

    def __reduce__(self):  # copy and pickle rebuild it from (step, node)
        return type(self), (self.step, self.node)


class ConfigError(EngineError):
    """A scenario config is malformed: unknown key, bad type, or bad value."""


class ModelAssumptionWarning(UserWarning):
    """An advisory model condition failed; results may be unreliable."""
