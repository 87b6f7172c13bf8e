"""Error taxonomy shared across the library and the CLI exit-code contract.

``InputError`` covers violations detectable from the arguments or input records
alone (bad parameter ranges, malformed rows, impossible prefix configurations).
``DegenerateError`` covers data- or numerics-driven failure in an otherwise
valid call (constant samples where a spread is required, all-zero estimators,
diverged training). The CLI maps them to exit codes 2 and 3 respectively.
Every non-finite result becomes a ``DegenerateError`` in ``check_finite``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class InputError(ValueError):
    """Invalid argument or input record."""


class DegenerateError(ValueError):
    """Computation is degenerate for this data (valid call, no usable result)."""


class PromptRowError(DegenerateError):
    """A ``DegenerateError`` of one prompt row of a matrix.

    ``row`` is the row's index and ``detail`` says what failed without naming
    the row, so a caller that knows the row's prompt can name it instead.
    """

    def __init__(self, message: str, row: int, detail: str):
        super().__init__(message)
        self.row, self.detail = row, detail


def check_at_least(name: str, value: float, least: float) -> None:
    """Raise ``InputError`` ("{name} must be >= {least}, got {value}") unless value >= least; NaN fails."""
    if not value >= least:
        raise InputError(f"{name} must be >= {least}, got {value}")


def check_finite(values: np.ndarray, describe: Callable[..., str | DegenerateError]) -> None:
    """Raise at the first non-finite entry of ``values`` in C order, naming it by its index.

    ``describe(*index)`` gives the error, or its message for a ``DegenerateError``.
    """
    finite = np.isfinite(values)
    if not finite.all():
        found = describe(*map(int, np.unravel_index(np.argmin(finite), finite.shape)))
        raise found if isinstance(found, DegenerateError) else DegenerateError(found)
