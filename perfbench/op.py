"""Benchmark operations, run in a fresh interpreter by ``run.py``.

Usage: python3 perfbench/op.py '<job json>'

The job names the workload, the seed, a scratch directory and the mode:

- ``timed``: import the program, prepare the inputs, then run the
  operation repeatedly until the job's ``until`` time (at least once).
  Reports the monotonic time at which set-up ended, the wall and CPU time
  of each operation (CPU time includes pool workers), the peak RSS of this
  process and its pool workers, and the output checks.
- ``traced``: run the operation once to warm up, then traced, then
  untraced, in-process at one job so that every span is captured, and
  report the per-span summary and the tracing overhead.  The spans are written to the
  scratch directory.
- ``micro``: microbenchmarks of the collapse solvers and of normal draws.

The last line of standard output is one JSON object.
"""

import contextlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer
from workloads import CheckFailure

import numpy as np
import scipy
import oudiff
import oudiff.cli
import oudiff.sampler
from oudiff import collapse, moments


def _program_root_ok(root: Path) -> bool:
    return Path(oudiff.__file__).resolve().is_relative_to(root / "src")


class Operation:
    """A prepared workload operation: ``run()`` computes, ``check()`` verifies."""

    def __init__(self, wl, seed: int, out_dir: Path, jobs: int):
        self.wl, self.seed, self.out_dir = wl, seed, out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        if isinstance(wl, workloads.Memorize):
            self._prepare_memorize()
        else:
            config_path = out_dir / "config.json"
            config_path.write_text(json.dumps(wl.config(seed)), encoding="utf-8")
            self.argv = wl.argv(out_dir, config_path, jobs)
            # resolve the command line now so that a bad one fails in set-up
            oudiff.cli.build_parser().parse_args(self.argv)

    def _prepare_memorize(self):
        wl = self.wl
        self.spec = moments.ModelSpec(
            beta=1.0, coupling=moments.Symmetric(wl.g), sigma_w2=2.0, dim_d=wl.dim_d
        )
        init = moments.MixtureInit(
            sigma2_x=1.0, sigma2_y=1.0,
            mean_spec=moments.ModeMeans(1.0, 0.0), dim_d=wl.dim_d,
        )
        data_rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0]))
        self.data = oudiff.sampler.draw_mixture(init, wl.train, data_rng)

    def run(self):
        if isinstance(self.wl, workloads.Memorize):
            wl = self.wl
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1]))
            traj = oudiff.sampler.reverse_sample(
                self.spec, oudiff.sampler.empirical_score_fn(self.data, self.spec),
                wl.steps, rng, horizon=wl.horizon, n_paths=wl.paths,
            )
            self.final = traj.final
            return 0
        return oudiff.cli.dispatch(self.argv)

    def check(self, rc: int) -> tuple[int, list[str]]:
        """(failed cells, messages); a failed run fails every cell."""
        cells = self.wl.cells()
        if rc != 0:
            return cells, [f"exit code {rc}"]
        if isinstance(self.wl, workloads.Memorize):
            final = self.final
            if final.shape != (self.wl.paths, 2 * self.wl.dim_d):
                return cells, [f"final states have shape {final.shape}"]
            bad = int(np.sum(~np.all(np.isfinite(final), axis=1)))
            return bad, [f"{bad} paths end non-finite"] if bad else []
        try:
            errors = self.wl.check(self.out_dir, self.seed)
        except (CheckFailure, OSError, ValueError) as exc:
            return cells, [str(exc)]
        return len(errors), errors


def _cpu_s(*usages) -> float:
    return sum(u.ru_utime + u.ru_stime for u in usages)


def _timed(job: dict) -> dict:
    """Repeat the operation until the monotonic time ``until`` has passed.

    Operation ``i`` uses seed ``seed + i`` and its own output directory,
    which is removed once its outputs are checked.
    """
    wl = workloads.WORKLOADS[job["workload"]]
    out = Path(job["dir"])
    t_ready = None
    ops = []
    failed = 0
    errors = []
    while not ops or time.monotonic() < job["until"]:
        i = len(ops)
        op = Operation(wl, job["seed"] + i, out / str(i), job["jobs"])
        before = _cpu_s(resource.getrusage(resource.RUSAGE_SELF),
                        resource.getrusage(resource.RUSAGE_CHILDREN))
        t0 = time.monotonic()
        t_ready = t_ready or t0
        rc = op.run()
        t1 = time.monotonic()
        after = _cpu_s(resource.getrusage(resource.RUSAGE_SELF),
                       resource.getrusage(resource.RUSAGE_CHILDREN))
        bad, msgs = op.check(rc)
        shutil.rmtree(op.out_dir)
        ops.append({"wall_s": t1 - t0, "cpu_s": after - before})
        failed += bad
        errors += msgs[:5]
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "t_ready": t_ready,
        "ops": ops,
        # ru_maxrss is in KiB on Linux; the larger of this process and any worker
        "peak_rss_mb": max(own.ru_maxrss, workers.ru_maxrss) / 1024.0,
        "attempted": wl.cells() * len(ops),
        "failed": failed,
        "errors": errors[:5],
        "env": _env(),
    }


def _traced(job: dict) -> dict:
    wl = workloads.WORKLOADS[job["workload"]]
    out = Path(job["dir"])
    tracer = Tracer()
    seconds = {}
    attempted = failed = 0
    errors = []
    for i, label in enumerate(workloads.TRACE_PASSES):
        op = Operation(wl, job["seed"], out / f"{i}-{label}", 1)
        t0 = time.perf_counter()
        with tracer if label == "traced" else contextlib.nullcontext():
            rc = op.run()
        seconds[label] = time.perf_counter() - t0
        bad, msgs = op.check(rc)
        shutil.rmtree(op.out_dir)
        attempted += wl.cells()
        failed += bad
        errors += msgs[:5]
    tracer.write(out / "spans.json")
    return {
        "untraced_s": seconds["untraced"],
        "traced_s": seconds["traced"],
        "spans": tracer.summary(),
        "span_count": len(tracer.spans),
        "absent": tracer.absent,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }


def _per_call_us(fn, calls: int, batches: int = 7) -> float:
    fn()
    per_call = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - t0) / calls)
    per_call.sort()
    return per_call[len(per_call) // 2] * 1e6


def _micro(job: dict) -> dict:
    """Collapse solvers at alpha = 1, ratio = 1, g = 0.5, and normal draws."""

    def params(coupling):
        spec = moments.ModelSpec(beta=1.0, coupling=coupling, sigma_w2=1.0)
        init = moments.MixtureInit(1.0, 1.0, moments.ModeMeans(0.0, 0.0))
        return collapse.CollapseParams(alpha=1.0, ratio=1.0, spec=spec, init=init)

    sym = params(moments.Symmetric(0.5))
    aniso = params(moments.Anisotropic(0.5))
    rng = np.random.default_rng(np.random.SeedSequence([job["seed"], 2]))
    shape = (250, 32)
    draw_us = _per_call_us(lambda: rng.standard_normal(shape), 200)
    return {
        "collapse.symmetric_us": _per_call_us(
            lambda: collapse.collapse_time_symmetric(sym), 20),
        "collapse.det_us": _per_call_us(lambda: collapse.collapse_time_det(aniso), 5),
        "collapse.conditional_us": _per_call_us(
            lambda: collapse.collapse_time_conditional(aniso), 5),
        "sampler.rng_ns_per_normal": draw_us * 1e3 / (shape[0] * shape[1]),
    }


def _env() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "oudiff": oudiff.__version__,
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    if not _program_root_ok(Path(job["root"])):
        print(f"oudiff imported from {oudiff.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    mode = {"timed": _timed, "traced": _traced, "micro": _micro}[job["mode"]]
    print(json.dumps(mode(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
