"""Time the three acceptance-scale figures quoted in ROADMAP.md "Recent".

Usage, from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/calibrate.py

Times one toy cell (d=32, 2000 trials, 800 steps), one clone cell (g=0.5,
d=16, 5 repeats) and ``oudiff phase-diagram`` at 201 x 91, each once, in
this process.  This is a one-off comparison, not part of the benchmark.
"""

import json
import tempfile
import time
from pathlib import Path

from oudiff import analysis, cli

ROOT = Path(__file__).resolve().parent.parent


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main() -> None:
    toy = analysis.ToyExperimentConfig(dim_d=32, trials=2000, steps=800)
    clone = analysis.CloneSweepConfig(g_list=(0.5,), dim_d=16)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        argv = ["phase-diagram", "--g-points", "201", "--theta-points", "91",
                "--out", str(Path(tmp) / "phase.csv")]
        figures = {
            "toy_cell_s": _timed(lambda: analysis._toy_run_cell(toy, 0, 0.5, "constant")),
            "clone_cell_s": _timed(lambda: analysis._clone_cell(clone, 0)),
            "phase_201x91_s": _timed(lambda: cli.dispatch(argv)),
        }
    print(json.dumps(figures))


if __name__ == "__main__":
    main()
