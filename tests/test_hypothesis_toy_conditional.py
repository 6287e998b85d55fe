"""Property test of the ``toy-conditional`` subcommand's error contract over
the whole double range, with derandomized examples so that every run draws
the same inputs: each run exits 0 or 2, a refusal is one stderr line, and
the sweep's rows hold only finite numbers."""

import json
import math
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from cli_contract import run_cli  # noqa: E402
from oudiff.cli import TOY_HEADER  # noqa: E402

# every double: +-0, subnormals, nan and +-inf included, or the field left
# out for its default, so that some runs get to generate
ANY_FLOAT = st.none() | st.floats()
FLOAT_FIELDS = ("beta", "sigma_w2", "sigma2", "m2", "horizon", "t0")
SCHEDULES = ("constant", "late", "early")


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    floats=st.fixed_dictionaries({name: ANY_FLOAT for name in FLOAT_FIELDS}),
    g0_set=st.none() | st.lists(st.floats(), min_size=1, max_size=2),
    schedules=st.none() | st.lists(st.sampled_from(SCHEDULES), max_size=3, unique=True),
    theta_points=st.integers(1, 2), dim_d=st.integers(1, 3),
    trials=st.integers(1, 3), steps=st.integers(1, 5), chunk=st.integers(1, 3),
)
def test_toy_conditional_contract(
    floats, g0_set, schedules, theta_points, dim_d, trials, steps, chunk
):
    config = {name: value for name, value in
              {**floats, "g0_set": g0_set, "schedules": schedules}.items()
              if value is not None}
    config.update(theta_points=theta_points, dim_d=dim_d, trials=trials, steps=steps,
                  chunk=chunk, seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "c.json", Path(tmp) / "o.csv"
        # json writes nan and +-inf as NaN and +-Infinity, which it reads back
        cfg.write_text(json.dumps(config))
        argv = ["toy-conditional", "--config", str(cfg), "--jobs", "1", "--out", str(out)]
        code, stdout, err = run_cli(argv)
        assert code in (0, 2), (config, code, err)
        if code != 0:
            assert len(err) == 1, (config, err)
            return
        assert err == [] and stdout == "", (config, err, stdout)
        header, *lines = out.read_text().splitlines()
    assert header.split(",") == TOY_HEADER, (config, header)
    assert lines, config
    for line in lines:
        row = dict(zip(TOY_HEADER, line.split(",")))
        assert row.pop("schedule") in SCHEDULES, (config, line)
        assert all(math.isfinite(float(v)) for v in row.values()), (config, line)
