"""Property tests of the moment closed forms, with derandomized examples
so that every run draws the same inputs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
mp = pytest.importorskip("mpmath")

from hypothesis import given, settings, strategies as st  # noqa: E402

from oudiff.moments import _poly_tails  # noqa: E402

# below a ~ 1e-100 the cube of h ~ a^3/6 underflows
TAIL_ARGS = st.floats(min_value=1e-100, max_value=2.0)


def _tails_mp(a: float) -> tuple[float, float]:
    with mp.workdps(50):
        x = mp.mpf(a)
        e = mp.exp(-x)
        return float(1 - e * (1 + x)), float(1 - e * (1 + x + x**2 / 2))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(TAIL_ARGS, min_size=1, max_size=6))
def test_tails_against_mpmath(values):
    # each value alone, as a Python float, and all together as one array
    _, k_arr, h_arr = _poly_tails(np.array(values))
    for a, k_in_array, h_in_array in zip(values, k_arr.tolist(), h_arr.tolist()):
        want_k, want_h = _tails_mp(a)
        _, k, h = _poly_tails(a)
        for got_k, got_h in ((float(k), float(h)), (k_in_array, h_in_array)):
            assert got_k == pytest.approx(want_k, rel=1e-12), a
            assert got_h == pytest.approx(want_h, rel=1e-11), a
