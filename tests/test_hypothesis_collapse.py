"""Property test of the ``collapse`` subcommand's error contract over the
whole double range, with derandomized examples so that every run draws the
same inputs: each run exits 0 or 2, a refusal is one stderr line, and a
result holds only finite numbers."""

import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from cli_contract import run_cli  # noqa: E402

# every double: +-0, subnormals, nan and +-inf included
ANY_FLOAT = st.floats()


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(
    coupling=st.sampled_from(["symmetric", "anisotropic"]),
    beta=ANY_FLOAT, g=ANY_FLOAT, alpha=ANY_FLOAT, ratio=ANY_FLOAT,
)
def test_collapse_contract(coupling, beta, g, alpha, ratio):
    # negative values as --flag=value, which argparse would read as a flag
    argv = ["collapse", "--coupling", coupling, f"--beta={beta!r}", f"--g={g!r}",
            f"--alpha={alpha!r}", f"--ratio={ratio!r}"]
    code, out, err = run_cli(argv)
    assert code in (0, 2), (argv, code, err)
    if code == 2:
        assert len(err) == 1, (argv, err)
        return
    assert err == [], (argv, err)
    payload = json.loads(out)
    assert all(isinstance(v, float) and math.isfinite(v) for v in payload.values()), (
        argv, payload
    )
