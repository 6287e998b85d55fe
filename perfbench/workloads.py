"""The four benchmark workloads: their inputs, sizes, counts and checks.

This module imports neither numpy nor oudiff, so ``run.py`` can use it
for counts and the operation process can use it for output checks.

An operation is one complete program run at the sizes below.  A cell is
the unit that can fail: a phase cell, a toy cell (baselines included), a
clone coupling value, or one sampled path.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

HERE = Path(__file__).resolve().parent
PHASE_REFERENCE = HERE / "reference" / "phase_grid.csv"

REL_TOL = 1e-9

# a traced measurement runs the operation three times in one process; the
# first pass warms caches and the allocator and is checked but not compared
TRACE_PASSES = ("warm-up", "traced", "untraced")


class CheckFailure(Exception):
    """An output file is missing or malformed as a whole."""


def _float(text: str) -> float | None:
    return None if text == "" else float(text)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _read_csv(path: Path, header: list[str]) -> list[dict]:
    if not path.is_file():
        raise CheckFailure(f"missing output {path.name}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != header:
            raise CheckFailure(f"{path.name}: header {reader.fieldnames}")
        return list(reader)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _wilson(k: int, n: int, z: float) -> tuple[float, float]:
    p = k / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _in_unit(*values: float) -> bool:
    return all(0.0 <= v <= 1.0 for v in values)


def _contains(lo: float, p: float, hi: float) -> bool:
    # the tolerance of tests/test_analysis.py: wilson_interval(250, 250)
    # returns hi = 1 - 2**-52 for the point estimate 1.0
    return lo - 1e-12 <= p <= hi + 1e-12


# ---------------------------------------------------------------------------
# phase-grid


@dataclass(frozen=True)
class PhaseGrid:
    """Dense (g, theta) speciation scan; deterministic, no random draws."""

    name: str = "phase-grid"
    g_points: int = 25
    theta_points: int = 12
    jobs: int = 1

    def cells(self) -> int:
        return self.g_points * self.theta_points

    def config(self, seed: int) -> dict:
        # the scan draws no random numbers, so the seed does not enter it
        return {"g_points": self.g_points, "theta_points": self.theta_points}

    def argv(self, out_dir: Path, config_path: Path, jobs: int) -> list[str]:
        return [
            "phase-diagram", "--config", str(config_path),
            "--jobs", str(jobs), "--out", str(out_dir / "phase.csv"),
        ]

    def check(self, out_dir: Path, seed: int) -> list[str]:
        """One message per failed cell; regimes and t_s against the reference."""
        header = ["g", "theta", "regime", "t_s", "kappa0", "g_crit"]
        rows = _read_csv(out_dir / "phase.csv", header)
        ref = _read_csv(PHASE_REFERENCE, header)
        if len(rows) != self.cells() or len(ref) != self.cells():
            raise CheckFailure(f"phase rows {len(rows)}, reference {len(ref)}")
        errors = []
        for i, (row, want) in enumerate(zip(rows, ref)):
            t_got, t_want = _float(row["t_s"]), _float(want["t_s"])
            ok = (
                row["regime"] != "error"
                and row["regime"] == want["regime"]
                and _close(float(row["g"]), float(want["g"]))
                and _close(float(row["theta"]), float(want["theta"]))
                and (t_got is None) == (t_want is None)
                and (t_got is None or _close(t_got, t_want))
            )
            if not ok:
                errors.append(f"phase cell {i}: {row} != reference {want}")
        return errors


# ---------------------------------------------------------------------------
# toy-sweep


@dataclass(frozen=True)
class ToySweep:
    """Conditional coupling sweep: 3 theta x 3 g0 x 3 schedules + 3 baselines."""

    name: str = "toy-sweep"
    theta_points: int = 3
    g0_set: tuple = (0.2, 0.5, 1.0)
    schedules: tuple = ("constant", "late", "early")
    trials: int = 100
    steps: int = 200
    dim_d: int = 32
    chunk: int = 250
    jobs: int = 2

    def cells(self) -> int:
        return self.theta_points * (1 + len(self.g0_set) * len(self.schedules))

    def config(self, seed: int) -> dict:
        return {
            "theta_points": self.theta_points, "g0_set": list(self.g0_set),
            "schedules": list(self.schedules), "trials": self.trials,
            "steps": self.steps, "dim_d": self.dim_d, "chunk": self.chunk,
            "seed": seed,
        }

    def argv(self, out_dir: Path, config_path: Path, jobs: int) -> list[str]:
        return [
            "toy-conditional", "--config", str(config_path),
            "--jobs", str(jobs), "--out", str(out_dir / "toy.csv"),
        ]

    def rng_normals(self) -> int:
        """Normal draws per operation, computed from the sizes.

        Per cell and trial: the start of x, ``steps`` transitions of x, the
        start of y and ``steps - 1`` noisy reverse steps, each d-wide.
        """
        per_cell = self.trials * self.dim_d * (2 * self.steps + 1)
        return self.cells() * per_cell

    def check(self, out_dir: Path, seed: int) -> list[str]:
        """Structural checks that hold for any random stream.

        Each Wilson interval must be the interval of some count k out of n,
        so the accuracy k/n is recovered; the baseline accuracy k/n - d_acc
        must then agree across the cells that share a theta.
        """
        header = [
            "theta", "g0", "schedule", "d_accuracy", "d_mse", "d_nll",
            "acc_ci_lo", "acc_ci_hi", "n",
        ]
        rows = _read_csv(out_dir / "toy.csv", header)
        thetas = _linspace(0.0, math.pi, self.theta_points)
        expected = [
            (th, g0, kind) for th in thetas
            for g0 in self.g0_set for kind in self.schedules
        ]
        if len(rows) != len(expected):
            raise CheckFailure(f"toy rows {len(rows)}, expected {len(expected)}")
        n = self.trials
        z = NormalDist().inv_cdf(0.975)
        intervals = [_wilson(k, n, z) for k in range(n + 1)]
        errors = []
        baselines: dict[int, list[float]] = {}
        for i, (row, (th, g0, kind)) in enumerate(zip(rows, expected)):
            try:
                values = [float(row[c]) for c in ("d_accuracy", "d_mse", "d_nll")]
                lo, hi = float(row["acc_ci_lo"]), float(row["acc_ci_hi"])
                ok = (
                    _close(float(row["theta"]), th, 1e-12)
                    and float(row["g0"]) == g0
                    and row["schedule"] == kind
                    and int(row["n"]) == n
                    and all(math.isfinite(v) for v in values)
                    and _in_unit(lo, hi) and lo <= hi
                )
                ks = [
                    k for k, (a, b) in enumerate(intervals)
                    if _close(a, lo) and _close(b, hi)
                ]
                ok = ok and len(ks) == 1 and _contains(lo, ks[0] / n, hi)
                if ok:
                    base = ks[0] / n - values[0]
                    ok = _in_unit(base)
                    baselines.setdefault(i // (len(expected) // len(thetas)), []).append(base)
            except ValueError as exc:
                ok = False
                row = f"{row} ({exc})"
            if not ok:
                errors.append(f"toy cell {i}: {row}")
        for t_idx, bases in baselines.items():
            if any(not _close(b, bases[0]) for b in bases):
                errors.append(f"toy baseline at theta index {t_idx} disagrees: {bases}")
        return errors


# ---------------------------------------------------------------------------
# clone-sweep


@dataclass(frozen=True)
class CloneSweep:
    """Cloning synchronization protocol at two coupling values."""

    name: str = "clone-sweep"
    g_list: tuple = (0.0, 0.5)
    dim_d: int = 16
    scan_count: int = 12
    batch: int = 128
    steps: int = 200
    repeats: int = 1
    horizon: float = 4.0
    baseline_factor: int = 4
    jobs: int = 1

    def cells(self) -> int:
        return len(self.g_list)

    def config(self, seed: int) -> dict:
        return {
            "g_list": list(self.g_list), "dim_d": self.dim_d,
            "scan_count": self.scan_count, "batch": self.batch,
            "steps": self.steps, "repeats": self.repeats, "horizon": self.horizon,
            "baseline_factor": self.baseline_factor, "seed": seed,
        }

    def argv(self, out_dir: Path, config_path: Path, jobs: int) -> list[str]:
        return [
            "clone-speciation", "--config", str(config_path),
            "--jobs", str(jobs), "--out", str(out_dir / "curves.csv"),
            "--summary-out", str(out_dir / "summary.json"),
        ]

    def scan_steps(self) -> list[int]:
        h = self.horizon / self.steps
        times = _linspace(0.0, self.horizon, self.scan_count)
        return [min(max(round(t / h), 0), self.steps) for t in times]

    def rng_normals(self) -> int:
        """Normal draws per operation, computed from the sizes.

        Per coupling value, repeat and mode: a stationary draw and a master
        path of ``steps - 1`` noisy steps, then two clones from every scan
        step k with ``k - 1`` noisy steps each; the independence baseline
        draws two full paths per pair.  Every draw is d-wide.
        """
        bd = self.batch * self.dim_d
        clones = sum(2 * max(k - 1, 0) for k in self.scan_steps())
        per_mode = self.repeats * bd * (self.steps + clones)
        n_base = self.baseline_factor * self.repeats * self.batch
        per_mode += 2 * n_base * self.dim_d * self.steps
        return self.cells() * 2 * per_mode

    def check(self, out_dir: Path, seed: int) -> list[str]:
        header = [
            "g", "scan_t", "phi_u", "phi_u_lo", "phi_u_hi", "phi_u_ex",
            "phi_v", "phi_v_lo", "phi_v_hi", "phi_v_ex",
        ]
        rows = _read_csv(out_dir / "curves.csv", header)
        summary_path = out_dir / "summary.json"
        if not summary_path.is_file():
            raise CheckFailure("missing output summary.json")
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        n_scan = self.scan_count
        if len(rows) != len(self.g_list) * n_scan or len(summary) != len(self.g_list):
            raise CheckFailure(f"clone rows {len(rows)}, summaries {len(summary)}")
        h = self.horizon / self.steps
        scan_t = [k * h for k in self.scan_steps()]
        errors = []
        for c, g in enumerate(self.g_list):
            try:
                ok = True
                for j, row in enumerate(rows[c * n_scan:(c + 1) * n_scan]):
                    v = {k: float(x) for k, x in row.items()}
                    ok = ok and v["g"] == g and _close(v["scan_t"], scan_t[j], 1e-12)
                    for m in ("u", "v"):
                        phi, lo, hi = v[f"phi_{m}"], v[f"phi_{m}_lo"], v[f"phi_{m}_hi"]
                        ok = ok and _in_unit(phi, lo, hi) and _contains(lo, phi, hi)
                        ok = ok and math.isfinite(v[f"phi_{m}_ex"])
                s = summary[c]
                ok = ok and s["g"] == g
                ok = ok and s["censored_u"] == (s["t_spec_u"] is None)
                ok = ok and s["censored_v"] == (s["t_spec_v"] is None)
                if s["t_spec_u"] is not None and s["t_spec_v"] is not None:
                    ok = ok and _close(s["gap"], s["t_spec_u"] - s["t_spec_v"], 1e-12)
                else:
                    ok = ok and s["gap"] is None
            except (KeyError, TypeError, ValueError) as exc:
                ok = False
                g = f"{g} ({exc!r})"
            if not ok:
                errors.append(f"clone coupling {g} failed its checks")
        return errors


# ---------------------------------------------------------------------------
# memorize


@dataclass(frozen=True)
class Memorize:
    """Reverse sampling with the exact empirical score of a training set."""

    name: str = "memorize"
    g: float = 0.3
    paths: int = 256
    train: int = 512
    dim_d: int = 16
    steps: int = 10
    horizon: float = 2.0
    jobs: int = 1

    def cells(self) -> int:
        return self.paths

    def tensor_bytes(self) -> int:
        """Size of the (paths, n, 2d) float64 difference tensor per score call."""
        return self.paths * self.train * 2 * self.dim_d * 8


WORKLOADS = {w.name: w for w in (PhaseGrid(), ToySweep(), CloneSweep(), Memorize())}
