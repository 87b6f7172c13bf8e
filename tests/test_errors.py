"""``check_finite``: the one place where a non-finite result becomes a ``DegenerateError``."""

from __future__ import annotations

import numpy as np
import pytest

from bontea import DegenerateError
from bontea.bon_eval import gradient_alignment
from bontea.errors import check_finite


def test_names_the_first_non_finite_entry_in_c_order():
    values = np.array([[1.0, 2.0, np.inf], [-np.inf, np.nan, 3.0]])
    with pytest.raises(DegenerateError, match=r"^row 0, column 2: inf$"):
        check_finite(values, lambda row, col: f"row {row}, column {col}: {values[row, col]}")


def test_finite_values_never_call_describe():
    check_finite(np.zeros((2, 3)), lambda *_: pytest.fail("describe called on finite values"))
    check_finite(np.float64(1.0), lambda: pytest.fail("describe called on a finite scalar"))


@pytest.mark.parametrize("which", ["rule", "oracle"])
def test_gradient_alignment_names_the_gradient_whose_norm_overflows(which):
    big, small = np.array([1e200, 1e200]), np.array([1.0, 0.0])
    advantages, oracle = (big, small) if which == "rule" else (small, big)
    with pytest.raises(DegenerateError, match=f"^gradient alignment overflows: the {which}'s gradient"):
        gradient_alignment(advantages, np.eye(2), oracle)
