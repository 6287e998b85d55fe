"""oudiff benchmark: end-to-end metrics per workload, or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` splits ``--seconds`` among four fresh interpreters, each of
which sets up once and then repeats the workload's operation until its
share of the time has passed.  It reports the mean wall and CPU time per
operation, and the median set-up time and peak memory of the interpreters.
``--trace 1`` makes one traced pass over every workload instead, since
each per-layer metric belongs to the workload that reaches that layer
(see ``README.md``), and reports the per-layer metrics.

Every operation's outputs are checked.  Standard output ends with a run
record line and then the result line required by ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OUT = ROOT / ".perfbench_out"

# fresh interpreters per timed run: each gives one set-up time and peak RSS
SEGMENTS = 4
# Wall and CPU time are measured per operation and reported as the mean
# over the run: operation times on the shared 2-core host alternate between
# a fast and a slow mode within seconds, and on a 7-minute speed trace the
# mean of 32-second windows spread 0.07 of its median against 0.10 for the
# median.  Set-up time and peak RSS, one per segment, use the median.
PER_OP = ("wall_s", "cpu_s")
OP_TIMEOUT_S = 150.0
RUN_BUDGET_S = 170.0

# per-layer metric -> (workloads it is measured on, span, summary field);
# fields sum over the workloads listed
SPAN_METRICS = {
    "speciation.speciation_time.calls": (("phase-grid",), "speciation.speciation_time", "calls"),
    "speciation.speciation_time.busy_s": (("phase-grid",), "speciation.speciation_time", "busy_s"),
    "speciation.speciation_time.p50_us": (("phase-grid",), "speciation.speciation_time", "p50_s"),
    "speciation.speciation_time.p99_us": (("phase-grid",), "speciation.speciation_time", "p99_s"),
    "speciation.kappa_grid.busy_s": (("phase-grid",), "speciation.kappa_grid", "busy_s"),
    "speciation.bisect_evals": (("phase-grid",), "speciation.kappa_scalar", "calls"),
    "moments.kernel_K.calls": (("phase-grid",), "moments.kernel_K", "calls"),
    "moments.kernel_K.busy_s": (("phase-grid",), "moments.kernel_K", "busy_s"),
    "moments.moments_ode.calls": (("toy-sweep",), "moments.moments_ode", "calls"),
    "moments.moments_ode.busy_s": (("toy-sweep",), "moments.moments_ode", "busy_s"),
    "moments.transition_cov.calls": (("memorize",), "moments.transition_cov", "calls"),
    "blockmat.mat_exp.calls": (("memorize",), "blockmat.mat_exp", "calls"),
    "blockmat.block_inverse.calls": (("phase-grid", "memorize"), "blockmat.block_inverse", "calls"),
    "sampler.conditional_reverse_sample.busy_s": (("toy-sweep",), "sampler.conditional_reverse_sample", "busy_s"),
    "sampler.conditional_score.calls": (("toy-sweep",), "sampler.conditional_score", "calls"),
    "sampler.conditional_score.busy_s": (("toy-sweep",), "sampler.conditional_score", "busy_s"),
    "sampler.empirical_score.calls": (("memorize",), "sampler.empirical_score", "calls"),
    "sampler.empirical_score.busy_s": (("memorize",), "sampler.empirical_score", "busy_s"),
    "analysis.toy_cell.p50_s": (("toy-sweep",), "analysis.toy_cell", "p50_s"),
    "analysis.toy_cell.max_s": (("toy-sweep",), "analysis.toy_cell", "max_s"),
    "analysis.toy_metrics.busy_s": (("toy-sweep",), "analysis.toy_metrics", "busy_s"),
    "analysis.clone_cell.busy_s": (("clone-sweep",), "analysis.clone_cell", "busy_s"),
    "analysis.mode_reverse.calls": (("clone-sweep",), "analysis.mode_reverse", "calls"),
    "analysis.mode_reverse.busy_s": (("clone-sweep",), "analysis.mode_reverse", "busy_s"),
    "analysis.mode_score.busy_s": (("clone-sweep",), "analysis.mode_score", "busy_s"),
    "cli.write_csv.busy_s": (("phase-grid", "toy-sweep", "clone-sweep"), "cli.write_csv", "busy_s"),
}
COMPUTED = {"sampler.rng_normals", "sampler.empirical_score.tensor_bytes"}


def _kind(metric: str) -> str:
    """How a per-layer figure is obtained: computed from sizes, counted, or timed."""
    if metric in COMPUTED:
        return "computed"
    if metric == "speciation.bisect_evals" or metric.endswith(".calls"):
        return "counted"
    return "timed"


def _env_for_children() -> dict:
    env = dict(os.environ)
    # one BLAS thread per process, so jobs x BLAS threads <= nproc = 2
    env["OPENBLAS_NUM_THREADS"] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _launch(job: dict, timeout: float, cpu: int | None = None) -> tuple[float, dict | None, str]:
    """Run op.py in its own session, on ``cpu`` if given.

    Returns (launch time, result, stderr).
    """
    job = {**job, "root": str(ROOT)}
    cmd = [sys.executable, str(HERE / "op.py"), json.dumps(job)]
    t_launch = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_env_for_children(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    if cpu is not None:
        try:
            os.sched_setaffinity(proc.pid, {cpu})
        except ProcessLookupError:  # already exited; communicate() reports it
            pass
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return t_launch, None, f"timed out after {timeout:.0f} s\n{err}"
    except BaseException:
        # interrupted (see _stop): the child's session would outlive us
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return t_launch, None, f"exit code {proc.returncode}\n{err}"
    return t_launch, json.loads(lines[-1]), err


def _op_dir() -> Path:
    OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="op-", dir=OUT))


def _time_workload(wl, seed: int, seconds: float, deadline: float,
                   segments: int = SEGMENTS) -> list[dict]:
    """Split ``seconds`` into ``segments`` fresh interpreters, each of which
    repeats the operation until its share of the time has passed.

    Each segment gives one set-up time and one peak RSS, and a wall and CPU
    time per operation.  The speed of the two cores of the shared host
    drifts independently, so one-job segments alternate between the cores
    instead of leaving the split to the scheduler.
    """
    cpus = sorted(os.sched_getaffinity(0)) if wl.jobs == 1 else [None]
    samples = []
    t_start = time.monotonic()
    for i in range(segments):
        remaining = deadline - time.monotonic()
        if remaining < 5.0:
            break
        op_dir = _op_dir()
        until = t_start + seconds * (i + 1) / segments
        job = {"mode": "timed", "workload": wl.name, "seed": seed * 1000 + 100 * i,
               "dir": str(op_dir), "jobs": wl.jobs, "until": until}
        try:
            t_launch, res, err = _launch(
                job, min(until - time.monotonic() + OP_TIMEOUT_S, remaining),
                cpus[i % len(cpus)],
            )
        finally:
            shutil.rmtree(op_dir, ignore_errors=True)
        if res is None:
            samples.append({"attempted": wl.cells(), "failed": wl.cells(),
                            "errors": [err.strip()[-2000:]]})
            if err.startswith("timed out"):
                break
            continue
        res["setup_s"] = res.pop("t_ready") - t_launch
        samples.append(res)
    return samples


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3,
            "mean": statistics.fmean(values)}


def _take_env(samples: list[dict], record: dict) -> None:
    """Move the program environment the operations report into the record."""
    for sample in samples:
        if "env" in sample:
            record["env"].update(sample.pop("env"))


def _end_to_end(args, deadline: float, record: dict) -> tuple[dict, int, int]:
    wl = workloads.WORKLOADS[args.workload]
    samples = _time_workload(wl, args.seed, args.seconds, deadline)
    _take_env(samples, record)
    good = [s for s in samples if "ops" in s]
    record["samples"] = samples
    values = {}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        if name in PER_OP:
            series = [op[name] for s in good for op in s["ops"]]
        else:
            series = [s[name] for s in good]
        record.setdefault("quartiles", {})[name] = _quartiles(series)
        aggregate = statistics.fmean if name in PER_OP else statistics.median
        values[name] = aggregate(series) if series else None
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    return values, attempted, failed


def _per_layer(args, deadline: float, record: dict) -> tuple[dict, int, int]:
    """One traced pass per workload, the microbenchmarks, and derived ratios."""
    traced = {}
    attempted = failed = 0
    errors = record.setdefault("errors", [])
    trace_dir = OUT / f"trace-{args.workload}-seed{args.seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    # the traced and untraced passes share one core, whose speed they compare
    cpu = min(os.sched_getaffinity(0))
    for name in workloads.WORKLOADS:
        op_dir = trace_dir / name
        job = {"mode": "traced", "workload": name, "seed": args.seed * 1000,
               "dir": str(op_dir), "jobs": 1}
        _, res, err = _launch(
            job, max(5.0, min(OP_TIMEOUT_S, deadline - time.monotonic())), cpu
        )
        wl = workloads.WORKLOADS[name]
        if res is None:
            attempted += len(workloads.TRACE_PASSES) * wl.cells()
            failed += len(workloads.TRACE_PASSES) * wl.cells()
            errors.append(f"{name}: {err.strip()[-2000:]}")
            res = {"spans": {}, "untraced_s": float("nan"), "traced_s": float("nan"),
                   "absent": [], "span_count": 0}
        else:
            attempted += res["attempted"]
            failed += res["failed"]
            errors.extend(res["errors"])
        traced[name] = res

    # the untraced wall time at the workload's own job count, for pool efficiency
    toy = workloads.WORKLOADS["toy-sweep"]
    pool = _time_workload(toy, args.seed, 0.0, deadline, segments=1)
    _take_env(pool, record)
    attempted += sum(s["attempted"] for s in pool)
    failed += sum(s["failed"] for s in pool)
    toy_wall = pool[0]["ops"][0]["wall_s"] if pool and "ops" in pool[0] else float("nan")

    _, micro, err = _launch({"mode": "micro", "workload": "", "seed": args.seed},
                            max(5.0, deadline - time.monotonic()))
    if micro is None:
        errors.append(f"micro: {err.strip()[-2000:]}")
        micro = {}

    def field(names, span, key):
        return sum(traced[n]["spans"].get(span, {}).get(key, 0) for n in names)

    values = {}
    for metric, (names, span, key) in SPAN_METRICS.items():
        scale = 1e6 if metric.endswith("_us") else 1.0
        values[metric] = field(names, span, key) * scale
    memo = workloads.WORKLOADS["memorize"]
    values["sampler.empirical_score.tensor_bytes"] = memo.tensor_bytes()
    calls = field(("memorize",), "sampler.reverse_sample", "calls")
    values["sampler.reverse_sample.step_us"] = (
        field(("memorize",), "sampler.reverse_sample", "busy_s") * 1e6
        / max(1, calls * memo.steps)
    )
    clone = workloads.WORKLOADS["clone-sweep"]
    normals = toy.rng_normals() + clone.rng_normals()
    values["sampler.rng_normals"] = normals
    values.update(micro)
    rng_s = normals * values.get("sampler.rng_ns_per_normal", float("nan")) * 1e-9
    values["sampler.rng_share"] = rng_s / (
        traced["toy-sweep"]["untraced_s"] + traced["clone-sweep"]["untraced_s"]
    )
    values["analysis.pool_efficiency"] = field(
        ("toy-sweep",), "analysis.toy_cell", "busy_s"
    ) / (toy.jobs * toy_wall)
    for name, res in traced.items():
        values[f"trace.overhead.{name}"] = res["traced_s"] / res["untraced_s"] - 1.0

    record["kinds"] = {m["name"]: _kind(m["name"]) for m in SPEC["per_layer"]}
    record["trace"] = {
        name: {k: res[k] for k in ("untraced_s", "traced_s", "span_count", "absent")}
        | {"spans": res["spans"]}
        for name, res in traced.items()
    }
    record["trace_dir"] = str(trace_dir.relative_to(ROOT))
    return values, attempted, failed


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "oudiff" / "__init__.py").is_file():
        print("perfbench: no oudiff sources under src/ in this checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit(),
        },
    }
    if args.trace:
        values, attempted, failed = _per_layer(args, deadline, record)
        metrics = SPEC["per_layer"]
    else:
        values, attempted, failed = _end_to_end(args, deadline, record)
        metrics = SPEC["end_to_end"]
    if attempted == 0:
        print("perfbench: no operation ran", file=sys.stderr)
        return 1
    record["failed_frac"] = failed / attempted
    # a figure that could not be measured is reported as null, never as NaN
    values = {
        k: v for k, v in values.items()
        if isinstance(v, (int, float)) and math.isfinite(v)
    }
    result = {
        "correct": failed == 0 and all(m["name"] in values for m in metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
            for m in metrics
        },
    }
    print(json.dumps({"record": record}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
