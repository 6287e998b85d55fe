"""Property test of the ``sample`` subcommand's error contract over the
whole double range, with derandomized examples so that every run draws the
same inputs: each run exits 0, 2 or 3, a refusal is one stderr line, and a
result holds only finite numbers."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from cli_contract import run_cli  # noqa: E402

# every double: +-0, subnormals, nan and +-inf included, or the flag left
# out for its default, so that some runs of every mode get to sample
ANY_FLOAT = st.none() | st.floats()


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(
    mode=st.sampled_from(["forward", "reverse", "flow"]),
    coupling=st.sampled_from(["symmetric", "anisotropic"]),
    beta=ANY_FLOAT, g=ANY_FLOAT, sigma_w2=ANY_FLOAT, sigma2=ANY_FLOAT,
    m_plus2=ANY_FLOAT, m_minus2=ANY_FLOAT, horizon=ANY_FLOAT,
    dim=st.integers(1, 3), paths=st.integers(1, 3), steps=st.integers(1, 5),
)
def test_sample_contract(
    mode, coupling, beta, g, sigma_w2, sigma2, m_plus2, m_minus2, horizon, dim, paths, steps
):
    floats = {"beta": beta, "g": g, "sigma-w2": sigma_w2, "sigma2": sigma2,
              "m-plus2": m_plus2, "m-minus2": m_minus2, "horizon": horizon}
    # negative values as --flag=value, which argparse would read as a flag
    argv = ["sample", "--mode", mode, "--coupling", coupling, "--seed", "0",
            f"--dim={dim}", f"--paths={paths}", f"--steps={steps}",
            *(f"--{flag}={value!r}" for flag, value in floats.items() if value is not None)]
    code, out, err = run_cli(argv)
    assert code in (0, 2, 3), (argv, code, err)
    if code != 0:
        assert len(err) == 1, (argv, err)
        return
    assert err == [], (argv, err)
    header, *rows = out.splitlines()
    assert header.startswith("t,") and len(rows) == steps + 1, (argv, out)
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")), (argv, out)
