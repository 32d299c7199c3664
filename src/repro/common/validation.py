"""Argument validation helpers.

Configuration objects across the package validate their fields with these
helpers so that error messages are uniform and tests can assert on
:class:`~repro.common.errors.ConfigurationError` regardless of which knob was
wrong.
"""

from __future__ import annotations

from typing import TypeVar

from repro.common.errors import ConfigurationError

T = TypeVar("T", int, float)


def require_positive(name: str, value: T) -> T:
    """Return *value* if strictly positive, else raise ConfigurationError."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def require_non_negative(name: str, value: T) -> T:
    """Return *value* if >= 0, else raise ConfigurationError."""
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return value

