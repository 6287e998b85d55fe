"""Experiment metrics and desk-scale experiment drivers.

Curve metrics (threshold crossings, Wilson intervals) plus the two
drivers: the conditional-coupling sweep over (theta, g0, schedule) and
the cloning-based speciation protocol on exact-score coupled
trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidArgument, UndefinedLabel
from .moments import (
    MixtureInit,
    ModeMeans,
    ModelSpec,
    MomentState,
    ScheduleSpec,
    Symmetric,
    _mode_kernel,
)
from .sampler import (
    ConditionalRunConfig,
    _check_size,
    _check_sizes,
    conditional_log_density,
    conditional_reverse_group,
    materialize_means,
)


@dataclass(frozen=True)
class MetricRecord:
    """One row of experiment output."""

    coordinates: dict
    values: dict
    ci_low: float | None = None
    ci_high: float | None = None
    n_effective: int = 1


@dataclass(frozen=True)
class AgreementCurve:
    """Clone agreement along the scan grid for one mode."""

    scan_times: np.ndarray
    phi_raw: np.ndarray
    phi_ex: np.ndarray
    wilson_low: np.ndarray
    wilson_high: np.ndarray
    ex_low: np.ndarray
    ex_high: np.ndarray
    phi_indep: float
    crossing: float | None
    crossing_low: float | None
    crossing_high: float | None
    censored: bool


# ---------------------------------------------------------------------------
# curve metrics


# the 97.5% standard normal quantile as scipy.special.ndtri(0.975) returns
# it, one ulp below the correctly rounded 1.9599639845400543
Z_95 = 1.959963984540054


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion, clipped to [0, 1].

    The bound at an extreme count is set exactly (lo = 0 at k = 0, hi = 1
    at k = n): the formula's rounding could leave it just past k/n.
    """
    if n < 1 or not 0 <= k <= n:
        raise InvalidArgument(f"need 0 <= k <= n with n >= 1, got k={k}, n={n}")
    p = k / n
    z2 = Z_95 * Z_95
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = Z_95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


def crossing_time(times, values, tau: float) -> float | None:
    """Largest time with values >= tau, linearly interpolated.

    Curves are indexed by forward time and typically rise toward t = 0;
    the crossing is the last time (scanning downward from the top of the
    grid) at which the curve still meets the threshold.  Returns None
    when the threshold is never attained (censored).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise InvalidArgument("times and values must be matching 1-D arrays")
    idx = None
    for i in range(times.size - 1, -1, -1):
        if values[i] >= tau:
            idx = i
            break
    if idx is None:
        return None
    if idx == times.size - 1:
        return float(times[idx])
    v0, v1 = values[idx], values[idx + 1]
    t0, t1 = times[idx], times[idx + 1]
    return float(t0 + (t1 - t0) * (v0 - tau) / (v0 - v1))


# ---------------------------------------------------------------------------
# conditional toy experiment


def _check_nonempty(config, names: tuple[str, ...]) -> None:
    """Reject a sweep whose named value lists hold nothing to run."""
    for name in names:
        if len(getattr(config, name)) == 0:
            raise InvalidArgument(f"{name} must hold at least one value")


def toy_metrics(pairs, init: MixtureInit, moments0: MomentState) -> MetricRecord:
    """Terminal metrics of a conditional generation run.

    accuracy: matching sign of <y0, mu_y> and <x0, mu_x>;
    mse: (1/2) E || y0 - s(x0) mu_y ||^2;
    nll: E [-log P_0(y0 | x0)] under the exact conditional mixture.
    Non-finite pairs or metrics (a diverged run) raise InvalidArgument.
    """
    x0, y0 = pairs
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if x0.shape != y0.shape or x0.ndim != 2 or x0.shape[0] < 1:
        raise InvalidArgument("pairs must be matching (n, d) arrays")
    bad = np.count_nonzero(~np.isfinite(x0)) + np.count_nonzero(~np.isfinite(y0))
    if bad:
        raise InvalidArgument(f"pairs hold {bad} non-finite values; the run diverged")
    mu_x, mu_y = materialize_means(init)
    # an overflow here keeps what is read of it (a nonzero norm, a sign) or
    # leaves the mse or the nll non-finite, which the check below refuses: at
    # t = 0 the nll's u and r . delta read the labels' x0 . mu_x and y0 . mu_y
    with np.errstate(over="ignore", invalid="ignore"):
        if np.linalg.norm(mu_x) == 0.0 or np.linalg.norm(mu_y) == 0.0:
            raise UndefinedLabel("mean directions vanish; signs are undefined")
        s_x = np.where(x0 @ mu_x > 0.0, 1.0, -1.0)
        s_y = np.where(y0 @ mu_y > 0.0, 1.0, -1.0)
        mse = 0.5 * float(np.mean(np.sum((y0 - s_x[:, None] * mu_y) ** 2, axis=1)))
        # moments0 fully determines the conditional law, so no spec is needed
        nll = float(np.mean(-conditional_log_density(None, init, x0, y0, 0.0, moments0)))
    matches = int(np.sum(s_x == s_y))
    n = x0.shape[0]
    accuracy = matches / n
    values = {"accuracy": accuracy, "mse": mse, "nll": nll}
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        raise InvalidArgument(
            f"metrics hold non-finite values ({', '.join(bad)}); the run diverged"
        )
    lo, hi = wilson_interval(matches, n)
    return MetricRecord(
        coordinates={},
        values=values,
        ci_low=lo,
        ci_high=hi,
        n_effective=n,
    )


@dataclass(frozen=True)
class ToyExperimentConfig:
    """Grid of the conditional coupling sweep."""

    theta_points: int = 9
    g0_set: tuple = (0.2, 0.5, 1.0)
    schedules: tuple = ("constant", "late", "early")
    trials: int = 2000
    steps: int = 800
    dim_d: int = 32
    horizon: float = 2.0
    t0: float | None = None  # defaults to horizon / 2
    beta: float = 1.0
    sigma_w2: float = 2.0
    sigma2: float = 1.0
    m2: float = 1.0
    seed: int = 0
    chunk: int = 250

    def __post_init__(self):
        _check_sizes(self, ("theta_points", "trials", "steps", "dim_d", "chunk"))
        _check_nonempty(self, ("g0_set", "schedules"))

    def thetas(self) -> np.ndarray:
        return np.linspace(0.0, math.pi, self.theta_points)

    def switch_time(self) -> float:
        return self.horizon / 2.0 if self.t0 is None else self.t0


# what a cell takes from its sweep unchanged; theta and schedule vary by cell
_TOY_CELL_FIELDS = {f.name for f in fields(ConditionalRunConfig)} & {
    f.name for f in fields(ToyExperimentConfig)
}


def _toy_cell_config(config: ToyExperimentConfig, theta: float, g0: float, kind: str):
    return ConditionalRunConfig(
        theta=theta,
        schedule=ScheduleSpec(kind, g0, config.switch_time()),
        **{name: getattr(config, name) for name in _TOY_CELL_FIELDS},
    )


def _toy_run_group(config: ToyExperimentConfig, theta_idx: int, runs) -> list[MetricRecord]:
    """The sweep cells ``runs`` = ((g0, kind), ...) at one theta, run as one group.

    The rng stream depends only on (seed, theta index).  Sharing it across
    every cell at the same theta (including the g0 = 0 baseline) makes the
    deltas a common-random-number comparison: the same draws feed every
    run because the draw order is identical, so the group draws them once.
    """
    theta = float(config.thetas()[theta_idx])
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, theta_idx]))
    cells = [_toy_cell_config(config, theta, g0, kind) for g0, kind in runs]
    out = conditional_reverse_group(cells, rng)
    return [
        toy_metrics((out["x0"], y0), out["init"], moments0)
        for y0, moments0 in zip(out["y0"], out["moments0"])
    ]


def _toy_run_cell(config: ToyExperimentConfig, theta_idx: int, g0: float, kind: str):
    """One sweep cell: a group of one, with the same result as in the full sweep."""
    return _toy_run_group(config, theta_idx, ((g0, kind),))[0]


def _map_cells(fn, args: list[tuple], jobs: int) -> list:
    """fn(*a) for every argument tuple, in order; over at most one worker
    process per task when jobs > 1, in this process when that is one."""
    _check_size("jobs", jobs)
    workers = min(jobs, len(args))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # numpy loads np.random on first use; load it before the fork so
        # that the workers, which all draw, inherit it instead of each
        # importing it again
        import numpy.random  # noqa: F401

        # the pool forks all max_workers processes at the first submit
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *zip(*args)))
    return [fn(*a) for a in args]


def run_toy_experiment(config: ToyExperimentConfig, jobs: int = 1) -> list[MetricRecord]:
    """Full (theta, g0, schedule) sweep with deltas against the g0=0 baseline.

    Emits one record per coupled cell with both absolute metrics and
    deltas; the baseline run shares the cell's random stream.  The cells
    of one theta run together as one group, so ``jobs`` beyond
    ``theta_points`` adds nothing.  Results are ordered by (theta, g0,
    schedule) regardless of worker count.
    """
    thetas = config.thetas()
    coupled = [(g0, kind) for g0 in config.g0_set for kind in config.schedules]
    runs = ((0.0, "constant"), *coupled)
    groups = _map_cells(
        _toy_run_group, [(config, i, runs) for i in range(len(thetas))], jobs
    )

    records = []
    for i, (base, *cells) in enumerate(groups):
        for (g0, kind), rec in zip(coupled, cells):
            records.append(
                MetricRecord(
                    coordinates={"theta": float(thetas[i]), "g0": g0, "schedule": kind},
                    values={
                        "d_accuracy": rec.values["accuracy"] - base.values["accuracy"],
                        "d_mse": rec.values["mse"] - base.values["mse"],
                        "d_nll": rec.values["nll"] - base.values["nll"],
                        "accuracy": rec.values["accuracy"],
                        "mse": rec.values["mse"],
                        "nll": rec.values["nll"],
                    },
                    ci_low=rec.ci_low,
                    ci_high=rec.ci_high,
                    n_effective=rec.n_effective,
                )
            )
    return records


# ---------------------------------------------------------------------------
# cloning protocol


@dataclass(frozen=True)
class CloneConfig:
    repeats: int = 5
    batch: int = 128
    steps: int = 800
    horizon: float = 4.0
    threshold: float = 0.55
    baseline_factor: int = 4

    def __post_init__(self):
        _check_sizes(self, ("repeats", "batch", "steps", "baseline_factor"))
        if not math.isfinite(self.threshold):
            raise InvalidArgument(f"threshold must be finite, got {self.threshold!r}")


def _label_modes(spec: ModelSpec, init: MixtureInit):
    """Decay rates and label amplitudes of the two eigenmodes, as (2, 1)
    columns (common mode first), for the cloning protocol.

    The symmetric system diagonalizes exactly into its common and
    difference eigenmodes, and the protocol needs each mode to carry an
    independently decodable class bit (the analog of paired channels
    whose shared and residual content are classified separately).  The
    data law therefore draws an independent sign per mode:
    z_m(0) = s_m mu_m + noise, giving each mode its own two-component
    mixture, its own exact score, and its own commitment time.  The
    label is the sign of z_m along mu_m; the other d - 1 coordinates are
    independent linear OU paths that never reach it, so each mode reduces
    to the one scalar along mu_m, of amplitude |mu_m| = sqrt(m_m^2 d).
    """
    if not isinstance(spec.coupling, Symmetric):
        raise InvalidArgument("the cloning protocol runs on symmetric coupling")
    spec.require_stable()
    if not init.equal_variance:
        raise InvalidArgument("cloning requires sigma_x == sigma_y")
    mp2, mm2 = init.mode_norms()
    if mp2 <= 0.0 or mm2 <= 0.0:
        raise UndefinedLabel("both mode means must be nonzero for the clone labels")
    taus = np.array(spec.mode_rates())[:, None]
    amps = np.sqrt(np.array([[mp2], [mm2]]) * spec.dim_d)
    return taus, amps


def _clone_states(taus, amps, s2, sw2, scan_steps, config, rng) -> np.ndarray:
    """Final mode states of every clone-protocol path, as one (2, paths)
    array: the baseline pairs, the masters, then the clone pairs of each
    of the sorted ``scan_steps``, latest first, so the paths moving at any
    step are a prefix.

    Everything that depends only on time (c(kh), the mean decay and the
    live column count of each step k) is computed once, before the loop;
    each step then runs in place on two scratch buffers of O(paths).
    """
    steps = config.steps
    h = config.horizon / steps
    n_pairs = config.repeats * config.batch
    n_top = 2 * config.baseline_factor * n_pairs + n_pairs
    n_scan = scan_steps.size

    ks = np.arange(steps + 1)
    t = (ks * h)[:, None, None]  # the same doubles as k * h
    _, cs = _mode_kernel(s2, sw2, taus, t)
    mus = np.exp(-0.5 * taus * t) * amps
    # the clones of scan step k join at step k
    lives = n_top + 2 * n_pairs * (n_scan - np.searchsorted(scan_steps, ks))

    z = np.empty((2, n_top + 2 * n_scan * n_pairs))
    z[:, :n_top] = np.sqrt(sw2 / taus) * rng.standard_normal((2, n_top))
    masters = z[:, n_top - n_pairs:n_top]
    noise = math.sqrt(sw2) * math.sqrt(h)
    half_tau = 0.5 * taus
    # flat, so that each (2, live) view is contiguous; the score buffer
    # takes the step noise once the score is spent
    score_buf = np.empty(z.size)
    drift_buf = np.empty(z.size)
    live = n_top
    for k in range(steps, -1, -1):
        start, live = live, int(lives[k])
        if live > start:
            z[:, start:live] = np.tile(masters, (live - start) // n_pairs)
        if k == 0:
            break
        mu, c = mus[k], cs[k]
        paths = z[:, :live]
        score = score_buf[:2 * live].reshape(2, live)
        drift = drift_buf[:2 * live].reshape(2, live)
        # score = (mu tanh(mu z / c) - z) / c
        np.multiply(mu, paths, out=score)
        score /= c
        np.tanh(score, out=score)
        score *= mu
        score -= paths
        score /= c
        # z += h (tau z / 2 + sW2 score)
        np.multiply(half_tau, paths, out=drift)
        score *= sw2
        drift += score
        drift *= h
        paths += drift
        if k > 1:
            rng.standard_normal(out=score)
            score *= noise
            paths += score
    return z


def clone_agreement(
    spec: ModelSpec,
    init: MixtureInit,
    scan_times,
    config: CloneConfig,
    rng: np.random.Generator,
) -> dict[str, AgreementCurve]:
    """Clone agreement curves for the common and difference modes.

    ``repeats * batch`` master reverse trajectories per mode start from
    the stationary law; at every scan time two clones continue from each
    master's state with independent noise down to t = 0.  Labels are the
    signs of the final mode states projected on the mode means (comparing
    label products makes the agreement invariant to the sign convention
    of either mean); phi_ex rescales raw agreement by the agreement of
    ``baseline_factor`` times as many fully independent reverse pairs, and
    is undefined when every one of those agrees, which raises
    InvalidArgument.

    Every path of both modes is one column of a single (2, paths) array
    (see ``_label_modes`` for why one scalar per mode suffices),
    integrated by one Euler-Maruyama loop from the top of the grid whose
    last step adds no noise.
    """
    taus, amps = _label_modes(spec, init)
    h = config.horizon / config.steps
    if not 0.0 < h * config.steps < math.inf:  # the grid times k h, k <= steps
        raise InvalidArgument(
            f"grid times k * horizon / steps leave the float range at "
            f"horizon={config.horizon!r}"
        )
    scan_times = np.asarray(sorted(scan_times), dtype=float)
    scan_steps = np.clip(np.rint(scan_times / h).astype(int), 0, config.steps)
    scan_times = scan_steps * h  # snapped to the integration grid
    n_scan = scan_times.size
    n_pairs = config.repeats * config.batch
    n_base = config.baseline_factor * n_pairs
    n_top = 2 * n_base + n_pairs

    # an overflow saturates tanh at its exact +-1 or leaves a state non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        states = _clone_states(
            taus, amps, init.sigma2_x, spec.sigma_w2, scan_steps, config, rng
        )
    if not np.isfinite(states).all():
        raise InvalidArgument("clone states hold non-finite values; the run diverged")
    labels = states > 0.0
    base = np.count_nonzero(labels[:, :n_base] == labels[:, n_base:2 * n_base], axis=1)
    clones = labels[:, n_top:].reshape(2, n_scan, 2, n_pairs)[:, ::-1]
    agree = np.count_nonzero(clones[:, :, 0] == clones[:, :, 1], axis=2)

    out = {}
    for m, mode in ((0, "u"), (1, "v")):
        if base[m] == n_base:
            raise InvalidArgument(
                f"clone mode {mode}: all {n_base} baseline pairs agree, so "
                "phi_ex is undefined; raise batch, repeats or baseline_factor"
            )
        phi_indep = int(base[m]) / n_base
        counts = agree[m]
        phi = counts / n_pairs
        lows = np.empty(n_scan)
        highs = np.empty(n_scan)
        for j in range(n_scan):
            lows[j], highs[j] = wilson_interval(int(counts[j]), n_pairs)
        phi_ex = (phi - phi_indep) / (1.0 - phi_indep)
        ex_low = (lows - phi_indep) / (1.0 - phi_indep)
        ex_high = (highs - phi_indep) / (1.0 - phi_indep)
        crossing = crossing_time(scan_times, phi_ex, config.threshold)
        c_low = crossing_time(scan_times, ex_low, config.threshold)
        c_high = crossing_time(scan_times, ex_high, config.threshold)
        out[mode] = AgreementCurve(
            scan_times=scan_times.copy(),
            phi_raw=phi,
            phi_ex=phi_ex,
            wilson_low=lows,
            wilson_high=highs,
            ex_low=ex_low,
            ex_high=ex_high,
            phi_indep=phi_indep,
            crossing=crossing,
            crossing_low=c_low,
            crossing_high=c_high,
            censored=crossing is None,
        )
    return out


@dataclass(frozen=True)
class CloneSweepConfig:
    g_list: tuple = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    dim_d: int = 16
    beta: float = 1.0
    sigma_w2: float = 2.0
    sigma2: float = 1.0
    m_plus2: float = 1.0
    m_minus2: float = 1.0
    scan_count: int = 12
    clone: CloneConfig = field(default_factory=CloneConfig)
    seed: int = 0

    def __post_init__(self):
        _check_sizes(self, ("dim_d", "scan_count"))
        _check_nonempty(self, ("g_list",))


@dataclass(frozen=True)
class CloneCellResult:
    g: float
    curves: dict
    t_spec_u: float | None
    t_spec_v: float | None
    gap: float | None
    gap_ci_width: float | None


def _clone_cell(config: CloneSweepConfig, g_idx: int) -> CloneCellResult:
    g = float(config.g_list[g_idx])
    spec = ModelSpec(
        beta=config.beta,
        coupling=Symmetric(g),
        sigma_w2=config.sigma_w2,
        dim_d=config.dim_d,
    )
    init = MixtureInit(
        sigma2_x=config.sigma2,
        sigma2_y=config.sigma2,
        mean_spec=ModeMeans(m_plus2=config.m_plus2, m_minus2=config.m_minus2),
        dim_d=config.dim_d,
    )
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, g_idx]))
    scan_times = np.linspace(0.0, config.clone.horizon, config.scan_count)
    curves = clone_agreement(spec, init, scan_times, config.clone, rng)
    cu, cv = curves["u"], curves["v"]
    gap = None
    width = None
    if cu.crossing is not None and cv.crossing is not None:
        gap = cu.crossing - cv.crossing
        if None not in (
            cu.crossing_low,
            cu.crossing_high,
            cv.crossing_low,
            cv.crossing_high,
        ):
            width = (cu.crossing_high - cu.crossing_low) + (
                cv.crossing_high - cv.crossing_low
            )
    return CloneCellResult(
        g=g, curves=curves, t_spec_u=cu.crossing, t_spec_v=cv.crossing,
        gap=gap, gap_ci_width=width,
    )


def run_clone_experiment(
    config: CloneSweepConfig, jobs: int = 1
) -> list[CloneCellResult]:
    """Sweep clone agreement over the coupling list, per-cell rng streams."""
    return _map_cells(
        _clone_cell, [(config, i) for i in range(len(config.g_list))], jobs
    )

