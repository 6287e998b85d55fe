"""Property test of the ``clone-speciation`` subcommand's error contract
over the whole double range, with derandomized examples so that every run
draws the same inputs: each run exits 0, 2 or 3, a refusal is one stderr
line, and the curves and the summary hold only finite numbers or null."""

import json
import math
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from cli_contract import run_cli  # noqa: E402
from oudiff.analysis import CloneSweepConfig  # noqa: E402
from oudiff.cli import CLONE_HEADER  # noqa: E402

# every double: +-0, subnormals, nan and +-inf included, or the field left
# out for its default, so that some runs get to clone
ANY_FLOAT = st.none() | st.floats()
FLOAT_FIELDS = ("beta", "sigma_w2", "sigma2", "m_plus2", "m_minus2", "horizon", "threshold")


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    floats=st.fixed_dictionaries({name: ANY_FLOAT for name in FLOAT_FIELDS}),
    g_list=st.none() | st.lists(st.floats(), min_size=1, max_size=2),
    dim_d=st.integers(1, 3), scan_count=st.integers(1, 3), baseline_factor=st.integers(1, 3),
    repeats=st.integers(1, 3), batch=st.integers(1, 3), steps=st.integers(1, 5),
)
def test_clone_speciation_contract(
    floats, g_list, dim_d, scan_count, baseline_factor, repeats, batch, steps
):
    config = {name: value for name, value in {**floats, "g_list": g_list}.items()
              if value is not None}
    config.update(dim_d=dim_d, scan_count=scan_count, baseline_factor=baseline_factor, seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out, summary = (Path(tmp) / name for name in ("c.json", "o.csv", "s.json"))
        # json writes nan and +-inf as NaN and +-Infinity, which it reads back
        cfg.write_text(json.dumps(config))
        argv = ["clone-speciation", "--config", str(cfg), f"--repeats={repeats}",
                f"--batch={batch}", f"--steps={steps}", "--out", str(out),
                "--summary-out", str(summary)]
        code, stdout, err = run_cli(argv)
        assert code in (0, 2, 3), (config, argv, code, err)
        if code != 0:
            assert len(err) == 1, (config, argv, err)
            return
        assert err == [] and stdout == "", (config, argv, err, stdout)
        header, *lines = out.read_text().splitlines()
        text = summary.read_text()
    assert header.split(",") == CLONE_HEADER, (config, header)
    assert all(
        math.isfinite(float(v)) for line in lines for v in line.split(",")
    ), (config, lines)

    def finite_or_null(obj):
        if isinstance(obj, dict):
            return all(map(finite_or_null, obj.values()))
        return obj is None or isinstance(obj, bool) or math.isfinite(obj)

    # the strict parser refuses the NaN and Infinity that json.dumps writes
    def refuse(name):
        raise AssertionError(f"{name} in the summary")

    payload = json.loads(text, parse_constant=refuse)
    assert len(payload) == len(config.get("g_list", CloneSweepConfig.g_list)), (config, payload)
    assert all(map(finite_or_null, payload)), (config, payload)
