"""Configuration validation helpers.

Every config dataclass in the project validates its fields in ``__post_init__``
through these helpers, so a misconfigured simulation fails loudly at
construction time instead of producing silently wrong numbers.
"""

from __future__ import annotations

from repro.utils.bits import is_power_of_two


def check_positive(name: str, value) -> None:
    """Raise ValueError unless ``value`` > 0."""
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_non_negative(name: str, value) -> None:
    """Raise ValueError unless ``value`` >= 0."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")


def check_power_of_two(name: str, value: int) -> None:
    """Raise ValueError unless ``value`` is a positive power of two."""
    if not isinstance(value, int) or not is_power_of_two(value):
        raise ValueError(f"{name} must be a positive power of two, got {value!r}")


def check_range(name: str, value, low, high) -> None:
    """Raise ValueError unless low <= value <= high."""
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
