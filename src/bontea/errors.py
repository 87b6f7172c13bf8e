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


def check_finite(values: np.ndarray, describe: Callable[..., str]) -> None:
    """Raise ``DegenerateError(describe(*index))`` at the first non-finite entry of ``values`` in C order."""
    finite = np.isfinite(values)
    if not finite.all():
        raise DegenerateError(describe(*map(int, np.unravel_index(np.argmin(finite), finite.shape))))
