"""Property tests of the moment closed forms, with derandomized examples
so that every run draws the same inputs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
mp = pytest.importorskip("mpmath")

from hypothesis import given, settings, strategies as st  # noqa: E402

from oudiff.moments import (  # noqa: E402
    AngledMeans,
    Anisotropic,
    MixtureInit,
    ModelSpec,
    Symmetric,
    _poly_tails,
    _transition,
)
from test_moments import assert_views_match_block_chain  # noqa: E402

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


# beta past the overflow of beta^3 (~5.6e102) and of beta^2 (~1.3e154);
# gamma = g / beta up to |g| = beta for symmetric coupling, with the last
# doubles below it; s = beta t from 0 past the underflow of e^{-2 beta t}
GAMMA_EDGES = [1.0, -1.0, 1.0 - 2.0**-52, -(1.0 - 2.0**-52)]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    symmetric=st.booleans(),
    beta=st.floats(min_value=1e-3, max_value=1e300),
    gamma=st.one_of(st.sampled_from(GAMMA_EDGES), st.floats(min_value=-1.0, max_value=1.0)),
    g_one_way=st.floats(min_value=-1e3, max_value=1e3),
    s=st.one_of(
        st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.0, max_value=1e3)
    ),
    sw2=st.floats(min_value=1e-2, max_value=1e2),
)
def test_transition_against_block_chain(symmetric, beta, gamma, g_one_way, s, sw2):
    # one-way g is drawn on its own, so that g^2 stays in range past beta^3
    g = gamma * beta if symmetric else g_one_way
    t = s / beta
    spec = ModelSpec(beta, (Symmetric if symmetric else Anisotropic)(g), sw2)
    init = MixtureInit(1.0, 0.4, AngledMeans(1.0, 2.0, 0.7))
    assert_views_match_block_chain(spec, init, t)

    # the float call against the same entry of an array call over g and t
    g_arr = np.array([0.5 * g, g, -g])[:, None]
    t_arr = np.array([0.0, 2.0 * t, t, 0.5 * t])
    phi, q = _transition(symmetric, beta, sw2, g_arr, t_arr)
    phi_1, q_1 = _transition(symmetric, beta, sw2, g, t)
    for got, arr in zip(phi_1 + q_1, phi + q):
        want = np.broadcast_to(arr, (3, 4))[1, 2]
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
