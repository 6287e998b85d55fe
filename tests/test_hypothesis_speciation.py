"""Property test of the ``speciation`` subcommand's error contract over the
whole double range, with derandomized examples so that every run draws the
same inputs: each run exits 0, 2 or 3, a refusal is one stderr line, and a
result holds only finite numbers or null."""

import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from cli_contract import run_cli  # noqa: E402

# every double: +-0, subnormals, nan and +-inf included
ANY_FLOAT = st.floats()


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(
    coupling=st.sampled_from(["symmetric", "anisotropic"]),
    beta=ANY_FLOAT, g=ANY_FLOAT, sigma_w2=ANY_FLOAT, sigma2=ANY_FLOAT,
    m_plus2=ANY_FLOAT, m_minus2=ANY_FLOAT,
)
def test_speciation_contract(coupling, beta, g, sigma_w2, sigma2, m_plus2, m_minus2):
    # negative values as --flag=value, which argparse would read as a flag
    argv = ["speciation", "--coupling", coupling, f"--beta={beta!r}", f"--g={g!r}",
            f"--sigma-w2={sigma_w2!r}", f"--sigma2={sigma2!r}",
            f"--m-plus2={m_plus2!r}", f"--m-minus2={m_minus2!r}"]
    code, out, err = run_cli(argv)
    assert code in (0, 2, 3), (argv, code, err)
    if code == 2:
        assert len(err) == 1, (argv, err)
        return
    assert err == [], (argv, err)
    payload = json.loads(out)
    assert all(
        v is None or isinstance(v, str) or math.isfinite(v) for v in payload.values()
    ), (argv, payload)
