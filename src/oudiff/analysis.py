"""Experiment metrics and desk-scale experiment drivers.

Curve metrics (cosine stabilization, threshold crossings, ghosting index,
Wilson intervals) plus the two drivers: the conditional-coupling sweep
over (theta, g0, schedule) and the cloning-based speciation protocol on
exact-score coupled trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import InvalidArgument, UndefinedLabel
from .moments import (
    MixtureInit,
    ModeMeans,
    ModelSpec,
    MomentState,
    ScheduleSpec,
    Symmetric,
)
from .sampler import (
    ConditionalRunConfig,
    _check_size,
    _check_sizes,
    conditional_log_density,
    conditional_reverse_group,
    materialize_means,
    split_channels,
)

SQRT1_2 = 1.0 / math.sqrt(2.0)


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


def wilson_interval(k: int, n: int, conf: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, clipped to [0, 1].

    The bound at an extreme count is set exactly (lo = 0 at k = 0, hi = 1
    at k = n): the formula's rounding could leave it just past k/n.
    """
    if n < 1 or not 0 <= k <= n:
        raise InvalidArgument(f"need 0 <= k <= n with n >= 1, got k={k}, n={n}")
    z = float(ndtri(0.5 + conf / 2.0))
    p = k / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


def cosine_to_final(series: np.ndarray) -> np.ndarray:
    """Batch-mean cosine of each snapshot against the final snapshot.

    ``series`` has shape (n_times, batch, dim).  Zero-norm vectors are
    excluded from the mean with a matching count decrement.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 3:
        raise InvalidArgument("series must have shape (n_times, batch, dim)")
    final = series[-1]
    norms = np.linalg.norm(series, axis=2)
    final_norm = np.linalg.norm(final, axis=1)
    dots = np.einsum("tbd,bd->tb", series, final)
    valid = (norms > 0.0) & (final_norm[None, :] > 0.0)
    cos = np.zeros_like(dots)
    np.divide(dots, norms * final_norm[None, :], out=cos, where=valid)
    counts = valid.sum(axis=1)
    out = np.full(series.shape[0], np.nan)
    nonzero = counts > 0
    out[nonzero] = np.where(valid, cos, 0.0).sum(axis=1)[nonzero] / counts[nonzero]
    return out


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


def sync_gap(times, curve_u, curve_v, tau: float) -> float | None:
    """Threshold gap t_v(tau) - t_u(tau); negative when u stabilizes earlier.

    Returns None when either crossing is censored.
    """
    tu = crossing_time(times, curve_u, tau)
    tv = crossing_time(times, curve_v, tau)
    if tu is None or tv is None:
        return None
    return tv - tu


def ghosting_index(c_u, c_a, c_b) -> np.ndarray:
    """Pointwise 2*c_u - c_a - c_b on aligned grids."""
    c_u = np.asarray(c_u, dtype=float)
    c_a = np.asarray(c_a, dtype=float)
    c_b = np.asarray(c_b, dtype=float)
    if not (c_u.shape == c_a.shape == c_b.shape):
        raise InvalidArgument("ghosting index needs aligned curves")
    return 2.0 * c_u - c_a - c_b


# ---------------------------------------------------------------------------
# conditional toy experiment


def toy_metrics(pairs, init: MixtureInit, moments0: MomentState) -> MetricRecord:
    """Terminal metrics of a conditional generation run.

    accuracy: matching sign of <y0, mu_y> and <x0, mu_x>;
    mse: (1/2) E || y0 - s(x0) mu_y ||^2;
    nll: E [-log P_0(y0 | x0)] under the exact conditional mixture.
    """
    x0, y0 = pairs
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if x0.shape != y0.shape or x0.ndim != 2 or x0.shape[0] < 1:
        raise InvalidArgument("pairs must be matching (n, d) arrays")
    mu_x, mu_y = materialize_means(init)
    if np.linalg.norm(mu_x) == 0.0 or np.linalg.norm(mu_y) == 0.0:
        raise UndefinedLabel("mean directions vanish; signs are undefined")
    s_x = np.where(x0 @ mu_x > 0.0, 1.0, -1.0)
    s_y = np.where(y0 @ mu_y > 0.0, 1.0, -1.0)
    matches = int(np.sum(s_x == s_y))
    n = x0.shape[0]
    accuracy = matches / n
    mse = 0.5 * float(np.mean(np.sum((y0 - s_x[:, None] * mu_y) ** 2, axis=1)))
    # moments0 fully determines the conditional law, so no spec is needed
    nll = float(np.mean(-conditional_log_density(None, init, x0, y0, 0.0, moments0)))
    lo, hi = wilson_interval(matches, n)
    return MetricRecord(
        coordinates={},
        values={"accuracy": accuracy, "mse": mse, "nll": nll},
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

    def thetas(self) -> np.ndarray:
        return np.linspace(0.0, math.pi, self.theta_points)

    def switch_time(self) -> float:
        return self.horizon / 2.0 if self.t0 is None else self.t0


def _toy_cell_config(config: ToyExperimentConfig, theta: float, g0: float, kind: str):
    return ConditionalRunConfig(
        dim_d=config.dim_d,
        beta=config.beta,
        sigma_w2=config.sigma_w2,
        sigma2=config.sigma2,
        m2=config.m2,
        theta=theta,
        schedule=ScheduleSpec(kind, g0, config.switch_time()),
        horizon=config.horizon,
        steps=config.steps,
        trials=config.trials,
        chunk=config.chunk,
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
    conf: float = 0.95

    def __post_init__(self):
        _check_sizes(self, ("repeats", "batch", "steps", "baseline_factor"))


class _ModeChannels:
    """Exact per-mode reverse dynamics for the cloning protocol.

    The symmetric system diagonalizes exactly into its common and
    difference eigenmodes, and the protocol needs each mode to carry an
    independently decodable class bit (the analog of paired channels
    whose shared and residual content are classified separately).  The
    data law here therefore draws an independent sign per mode:
    z_m(0) = s_m mu_m + noise, giving each mode its own two-component
    mixture, its own exact score, and its own commitment time.
    """

    def __init__(self, spec: ModelSpec, init: MixtureInit):
        if not isinstance(spec.coupling, Symmetric):
            raise InvalidArgument("the cloning protocol runs on symmetric coupling")
        if not spec.is_stable:
            raise InvalidArgument("cloning needs a stable symmetric spec")
        if not init.equal_variance:
            raise InvalidArgument("cloning requires sigma_x == sigma_y")
        mp2, mm2 = init.mode_norms()
        if mp2 <= 0.0 or mm2 <= 0.0:
            raise UndefinedLabel(
                "both mode means must be nonzero for the clone labels"
            )
        modes = spec.modes()
        self.d = spec.dim_d
        self.taus = (modes.tau_plus, modes.tau_minus)
        self.sw2 = spec.sigma_w2
        self.s2 = init.sigma2_x
        # per-dimension mode mean amplitudes; direction is the first axis
        self.amps = (math.sqrt(mp2 * self.d), math.sqrt(mm2 * self.d))

    def kernel(self, m: int, t: float) -> tuple[float, float, float]:
        """(decay, q_m, c_m) of mode m at forward time t."""
        tau = self.taus[m]
        decay = math.exp(-0.5 * tau * t)
        q = self.sw2 * (-math.expm1(-tau * t)) / tau
        return decay, q, self.s2 * decay * decay + q

    def score(self, m: int, z: np.ndarray, t: float) -> np.ndarray:
        decay, _, c = self.kernel(m, t)
        mu_t = decay * self.amps[m]
        arg = mu_t * z[:, 0] / c
        out = -z / c
        out[:, 0] += (mu_t / c) * np.tanh(arg)
        return out

    def stationary_draw(self, n: int, rng: np.random.Generator, m: int) -> np.ndarray:
        return math.sqrt(self.sw2 / self.taus[m]) * rng.standard_normal((n, self.d))

    def reverse(self, m: int, z: np.ndarray, k_from: int, h: float,
                rng: np.random.Generator, keep_path: bool = False):
        """Integrate mode m from grid step k_from down to t=0.

        With keep_path the states at every remaining grid time are
        returned so the caller can cache scan snapshots; the final step
        adds no noise.
        """
        lam = -0.5 * self.taus[m]
        sw = math.sqrt(self.sw2)
        sqrt_h = math.sqrt(h)
        path = [z.copy()] if keep_path else None
        for k in range(k_from, 0, -1):
            t = k * h
            drift = -lam * z + self.sw2 * self.score(m, z, t)
            z = z + h * drift
            if k > 1:
                z = z + sw * sqrt_h * rng.standard_normal(z.shape)
            if keep_path:
                path.append(z.copy())
        return path if keep_path else z

    def labels(self, m: int, z: np.ndarray) -> np.ndarray:
        return z[:, 0] > 0.0


def clone_agreement(
    spec: ModelSpec,
    init: MixtureInit,
    scan_times,
    config: CloneConfig,
    rng: np.random.Generator,
) -> dict[str, AgreementCurve]:
    """Clone agreement curves for the common and difference modes.

    Each repeat integrates a batch of master reverse trajectories per
    mode, caches the states at the scan times, and continues two clones
    with independent noise from every cached state down to t = 0.
    Labels are the signs of the final mode states projected on the mode
    means (comparing label products makes the agreement invariant to the
    sign convention of either mean); phi_ex rescales raw agreement by the
    independent-pair baseline.
    """
    channels = _ModeChannels(spec, init)
    h = config.horizon / config.steps
    scan_times = np.asarray(sorted(scan_times), dtype=float)
    scan_steps = np.clip(np.rint(scan_times / h).astype(int), 0, config.steps)
    scan_times = scan_steps * h  # snapped to the integration grid
    n_scan = scan_times.size
    n_pairs = config.repeats * config.batch

    agree = {0: np.zeros(n_scan, dtype=int), 1: np.zeros(n_scan, dtype=int)}
    for _ in range(config.repeats):
        for m in (0, 1):
            z_top = channels.stationary_draw(config.batch, rng, m)
            path = channels.reverse(m, z_top, config.steps, h, rng, keep_path=True)
            # path[j] sits at grid step steps - j, i.e. forward time (steps-j)h
            for j, k_s in enumerate(scan_steps):
                cached = path[config.steps - int(k_s)]
                f1 = channels.reverse(m, cached, int(k_s), h, rng)
                f2 = channels.reverse(m, cached, int(k_s), h, rng)
                l1 = channels.labels(m, f1)
                l2 = channels.labels(m, f2)
                agree[m][j] += int(np.sum(l1 == l2))

    # independence baseline from fully independent reverse pairs
    n_base = config.baseline_factor * n_pairs
    base = {0: 0, 1: 0}
    for m in (0, 1):
        done = 0
        while done < n_base:
            nb = min(config.batch * 2, n_base - done)
            fa = channels.reverse(
                m, channels.stationary_draw(nb, rng, m), config.steps, h, rng
            )
            fb = channels.reverse(
                m, channels.stationary_draw(nb, rng, m), config.steps, h, rng
            )
            base[m] += int(
                np.sum(channels.labels(m, fa) == channels.labels(m, fb))
            )
            done += nb

    out = {}
    for m, mode in ((0, "u"), (1, "v")):
        phi_indep = base[m] / n_base
        counts = agree[m]
        phi = counts / n_pairs
        lows = np.empty(n_scan)
        highs = np.empty(n_scan)
        for j in range(n_scan):
            lows[j], highs[j] = wilson_interval(int(counts[j]), n_pairs, config.conf)
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


# ---------------------------------------------------------------------------
# optional intervention diagnostic


def intervention_probe(
    spec: ModelSpec,
    init: MixtureInit,
    rng: np.random.Generator,
    *,
    t_int: float = 1.0,
    noise_scale: float = 0.25,
    steps: int = 400,
    horizon: float = 2.0,
    n_paths: int = 32,
) -> dict:
    """Perturb only the difference mode at t_int and track terminal RMS shifts.

    Deterministic probability-flow continuation isolates the causal effect
    of the injected noise; reported values are RMS changes of the terminal
    mode components.  Diagnostic only; no calibrated reference values.
    """
    from .sampler import flow_sample, sample_block_gaussian, stationary_cov

    d = spec.dim_d
    h = horizon / steps
    k_int = int(round((horizon - t_int) / h))
    t_int_snapped = horizon - k_int * h
    start = sample_block_gaussian(stationary_cov(spec), n_paths, d, rng)

    state = start
    if k_int > 0:
        state = flow_sample(
            spec, init, k_int, start, horizon=horizon, t_end=t_int_snapped
        ).final
    # continue unperturbed and perturbed copies from the intervention time
    rest_steps = steps - k_int
    xi = rng.standard_normal((n_paths, d))
    x, y = split_channels(state, d)
    u = SQRT1_2 * (x + y)
    v = SQRT1_2 * (x - y) + noise_scale * xi
    perturbed = np.concatenate(
        [SQRT1_2 * (u + v), SQRT1_2 * (u - v)], axis=1
    )

    def finish(z0):
        if rest_steps == 0:
            return z0
        # flow from the snapped intervention time down to 0
        return flow_sample(spec, init, rest_steps, z0, horizon=t_int_snapped).final

    base = finish(state)
    moved = finish(perturbed)
    bx, by = split_channels(base, d)
    mx, my = split_channels(moved, d)
    du = SQRT1_2 * ((mx + my) - (bx + by))
    dv = SQRT1_2 * ((mx - my) - (bx - by))
    return {
        "t_int": t_int_snapped,
        "rms_du": float(np.sqrt(np.mean(du**2))),
        "rms_dv": float(np.sqrt(np.mean(dv**2))),
    }
