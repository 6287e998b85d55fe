"""Property test of the ``phase-diagram`` subcommand's error contract over
the whole double range, with derandomized examples so that every run draws
the same inputs: each run exits 0, 2 or 3, a refusal is one stderr line,
and a result holds only finite numbers or empty fields, with one stderr
line per failed cell."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from cli_contract import run_cli  # noqa: E402
from oudiff.cli import PHASE_HEADER  # noqa: E402

# every double: +-0, subnormals, nan and +-inf included, or the flag left
# out for its default, so that some runs get to solve their cells
ANY_FLOAT = st.none() | st.floats()
FLOAT_FLAGS = ("beta", "sigma-w2", "sigma2", "m-x2", "m-y2",
               "g-min", "g-max", "theta-min", "theta-max", "t-max-search")
REGIMES = {"speciates", "no-speciation", "unstable", "error"}


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(
    floats=st.fixed_dictionaries({flag: ANY_FLOAT for flag in FLOAT_FLAGS}),
    g_points=st.integers(1, 3), theta_points=st.integers(1, 3),
)
def test_phase_diagram_contract(floats, g_points, theta_points):
    # negative values as --flag=value, which argparse would read as a flag
    argv = ["phase-diagram", f"--g-points={g_points}", f"--theta-points={theta_points}",
            *(f"--{flag}={value!r}" for flag, value in floats.items() if value is not None)]
    code, out, err = run_cli(argv)
    assert code in (0, 2, 3), (argv, code, err)
    if code != 0:
        assert len(err) == 1, (argv, err)
        return
    header, *lines = out.splitlines()
    assert header.split(",") == PHASE_HEADER, (argv, out)
    assert len(lines) == g_points * theta_points, (argv, out)
    rows = [dict(zip(PHASE_HEADER, line.split(","))) for line in lines]
    # the documented per-cell error: one line for each failed cell
    assert len(err) == sum(row["regime"] == "error" for row in rows), (argv, err)
    for row in rows:
        assert row.pop("regime") in REGIMES, (argv, row)
        assert all(v == "" or math.isfinite(float(v)) for v in row.values()), (argv, row)
    assert all(line.startswith("oudiff: phase cell ") for line in err), (argv, err)
