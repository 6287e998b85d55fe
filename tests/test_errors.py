import numpy as np
import pytest

from oudiff.errors import DegenerateDrift, UnstableAtTime


@pytest.mark.parametrize(
    "cls, text",
    [
        (DegenerateDrift, "degenerate drift operator at t=0.25"),
        (UnstableAtTime, "reverse drift not confining at t=0.25"),
    ],
)
@pytest.mark.parametrize("t", [0.25, np.float64(0.25), np.float32(0.25)])
def test_message_shows_plain_t(cls, text, t):
    err = cls(t)
    assert str(err) == text
    assert type(err.t) is float


def test_explicit_message_kept():
    assert str(DegenerateDrift(np.float64(1.0), "custom")) == "custom"
