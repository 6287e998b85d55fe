"""Exact-score stochastic and deterministic sampling.

Forward Euler-Maruyama paths, population and empirical scores with their
reverse SDE integrators, a deterministic probability-flow integrator, and
the conditional generation loop that drives the target channel with an
exact conditional score along an exactly simulated conditioning path.

Time convention: one forward clock t in [0, T].  The forward process runs
0 -> T; reverse integrators iterate t_k = T (1 - k/steps) with a negative
time step, so the drift of the reversed process in elapsed reverse time is
-M z + sW2 * score.  The final reverse step is taken without noise, which
keeps the terminal state on the posterior mean as the step count grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .blockmat import Block2, block_inverse, schur_complement
from .errors import (
    InvalidArgument,
    KernelDegenerate,
    NotPositiveDefinite,
)
from .moments import (
    Anisotropic,
    AngledMeans,
    MixtureInit,
    ModelSpec,
    MomentState,
    Scheduled,
    ScheduleSpec,
    Symmetric,
    _aniso_q,
    _kernel_blocks,
    diffusion_kernel,
    stacked_moments,
)

ScoreFn = Callable[[np.ndarray, float], np.ndarray]


# ---------------------------------------------------------------------------
# run configurations


def _check_size(name: str, value) -> None:
    """Reject a size that is not an integer >= 1.  A bool is not a size,
    though Python counts it as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidArgument(f"{name} must be an integer, got {value!r}")
    if not value >= 1:
        raise InvalidArgument(f"{name} must be >= 1, got {value!r}")


def _check_sizes(config, sizes: tuple[str, ...]) -> None:
    """Reject a config whose named sizes fail ``_check_size`` or whose horizon
    is not finite and positive (configs without a horizon skip that check)."""
    for name in sizes:
        _check_size(name, getattr(config, name))
    horizon = getattr(config, "horizon", 1.0)
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise InvalidArgument(f"horizon must be finite and > 0, got {horizon!r}")


# ---------------------------------------------------------------------------
# mean materialization and initial draws


def _plane_coords(px, py, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Plane coordinates of the d-vectors (mu_x, mu_y), sqrt(d) (px, py).

    The signal plane is spanned by the first two coordinate directions;
    norms scale as sqrt(d) so the per-dimension squared norms equal the
    plane statistics.  Coordinates sit on the last axis; leading axes
    (one per cell of a stack) carry through to the result.
    """
    px = np.asarray(px)
    py = np.asarray(py)
    if d < 2 and (np.any(px[..., 1] != 0.0) or np.any(py[..., 1] != 0.0)):
        raise InvalidArgument("dim_d must be >= 2 to hold two mean directions")
    root_d = math.sqrt(d)
    return root_d * px, root_d * py


def _plane_vectors(plane: np.ndarray, d: int):
    """d-vectors holding ``plane`` (last axis of length two) along the first
    two coordinate directions and zeros elsewhere."""
    out = np.zeros(plane.shape[:-1] + (d,))
    out[..., :2] = plane[..., :d]
    return out


def _plane_means(px, py, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Full d-vectors (mu_x, mu_y) from per-dimension plane coordinates."""
    ex, ey = _plane_coords(px, py, d)
    return _plane_vectors(ex, d), _plane_vectors(ey, d)


def materialize_means(init: MixtureInit) -> tuple[np.ndarray, np.ndarray]:
    """Full d-vectors (mu_x, mu_y) of the initial mixture means."""
    return _plane_means(*init.mean_plane(), init.dim_d)


@dataclass
class DatasetEmpirical:
    """n training points in 2d dimensions with their mixture signs."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.labels = np.asarray(self.labels)
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise InvalidArgument("points must be a non-empty (n, 2d) array")
        if not np.all(np.isfinite(self.points)):
            raise InvalidArgument("points must be finite")
        if self.labels.shape != (self.points.shape[0],):
            raise InvalidArgument("labels must be one sign per point")
        if self.labels.dtype.kind not in "iuf" or not np.all(np.abs(self.labels) == 1):
            raise InvalidArgument("labels must be +1 or -1")

    @property
    def n(self) -> int:
        return self.points.shape[0]


def draw_mixture(
    init: MixtureInit, n: int, rng: np.random.Generator
) -> DatasetEmpirical:
    """Draw n i.i.d. samples from the two-component mixture."""
    mu_x, mu_y = materialize_means(init)
    d = init.dim_d
    s = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    x = s[:, None] * mu_x + math.sqrt(init.sigma2_x) * rng.standard_normal((n, d))
    y = s[:, None] * mu_y + math.sqrt(init.sigma2_y) * rng.standard_normal((n, d))
    return DatasetEmpirical(points=np.concatenate([x, y], axis=1), labels=s)


def split_channels(z: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    if z.shape[-1] != 2 * d:
        raise InvalidArgument(f"state has {z.shape[-1]} components, expected {2 * d}")
    return z[..., :d], z[..., d:]


def stationary_cov(spec: ModelSpec) -> Block2:
    """Stationary covariance block of the forward process, the t -> inf limit
    of Q(t): symmetric coupling holds sW2 / tau_pm on its eigenmodes, and
    one-way coupling ``_aniso_q`` at u = k = h = 1, in Python floats.
    InvalidArgument where an entry leaves the float range (a variance
    underflows to 0 or an entry overflows)."""
    sw2, beta = spec.sigma_w2, spec.beta
    if isinstance(spec.coupling, Symmetric):
        q_p, q_m = (sw2 / tau for tau in spec.mode_rates())
        q11 = q22 = 0.5 * (q_p + q_m)
        q12 = 0.5 * (q_p - q_m)
    else:
        q11, q12, q22 = _aniso_q(beta, sw2, spec.coupling_at(math.inf), (0.0, 1.0, 1.0, 1.0))
    if not (q11 > 0.0 and abs(q12) < math.inf and q22 < math.inf):
        raise InvalidArgument(f"stationary covariance out of float range at beta={beta!r}")
    return Block2(q11, q12, q12, q22)


def sample_block_gaussian(
    block: Block2, n: int, d: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw (n, 2d) samples from N(0, block (x) I_d)."""
    c_yx, _ = schur_complement(block.a11, block.a12, block.a22)
    e1 = rng.standard_normal((n, d))
    e2 = rng.standard_normal((n, d))
    sx = math.sqrt(block.a11)
    x = sx * e1
    y = (block.a12 / sx) * e1 + math.sqrt(c_yx) * e2
    return np.concatenate([x, y], axis=1)


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    """Recorded states of a batch of paths on a shared time grid.

    ``times`` lists the recorded times in integration order; ``states``
    stacks the matching (n_paths, 2d) snapshots.  ``scan_cache`` maps each
    requested record time to its snapshot.
    """

    times: np.ndarray
    states: np.ndarray
    scan_cache: dict[float, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) != len(self.states):
            raise InvalidArgument("times and states must have equal length")

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _start_states(start, d: int, n_paths: int = 1) -> np.ndarray:
    """Start states as an (n, 2d) array; a single state is repeated to
    ``n_paths`` rows, a batch of states is taken as given and must hold
    ``n_paths`` rows unless that is 1."""
    z = np.array(np.atleast_2d(np.asarray(start, dtype=float)))
    if z.ndim != 2:
        raise InvalidArgument(
            f"start must be one state or an (n, 2d) batch, got shape {z.shape}"
        )
    if z.shape[-1] != 2 * d:
        raise InvalidArgument("start states must have 2*dim_d components")
    if z.shape[0] == 1 and n_paths > 1:
        z = np.repeat(z, n_paths, axis=0)
    elif n_paths > 1 and z.shape[0] != n_paths:
        raise InvalidArgument(
            f"start holds {z.shape[0]} states but n_paths={n_paths!r}"
        )
    return z


class _Recorder:
    """Collects a sampler's recorded states on its time grid.

    Keeps the endpoints (every grid state with ``record_path``) and a scan
    snapshot for each requested time in ``record_times``.  Each requested
    time snaps to its nearest grid index; cache entries are keyed by the
    requested time so lookups by the caller's own values never miss, and
    times that snap to one index share one snapshot.
    """

    def __init__(self, grid: np.ndarray, record_times=(), record_path: bool = False):
        self.grid = grid
        self.record_path = record_path
        self.cache_at: dict[int, list[float]] = {}
        lo, hi = float(min(grid[0], grid[-1])), float(max(grid[0], grid[-1]))
        for t in record_times or ():
            if not lo <= t <= hi:
                raise InvalidArgument(f"record time {t!r} outside [{lo!r}, {hi!r}]")
            idx = int(np.argmin(np.abs(grid - t)))
            self.cache_at.setdefault(idx, []).append(float(t))
        self.times, self.states, self.scan_cache = [], [], {}

    def __call__(self, k: int, z: np.ndarray) -> None:
        if self.record_path or k in (0, len(self.grid) - 1):
            self.times.append(self.grid[k])
            self.states.append(z.copy())
        if k in self.cache_at:
            snap = z.copy()
            for key in self.cache_at[k]:
                self.scan_cache[key] = snap

    def trajectory(self) -> Trajectory:
        return Trajectory(np.array(self.times), np.stack(self.states), self.scan_cache)


def _euler_maruyama(spec, z, grid, h, drift, rng, record, noiseless_last):
    """Euler-Maruyama steps z <- z + h drift(z, t_k) + sW sqrt(h) xi_k at
    the times t_k of ``grid`` but its last, passing each state to
    ``record``; with ``noiseless_last`` the final step adds no noise.

    ``z`` is the sampler's own array and is stepped in place: the scaled
    drift is added from its own array, and the noise is drawn into one
    buffer, scaled and added, with the operands and order of the
    out-of-place step, so the states keep their bits."""
    noise_sd = math.sqrt(spec.sigma_w2) * math.sqrt(h)
    steps = len(grid) - 1
    noise = np.empty(z.shape)
    record(0, z)
    for k in range(steps):
        z += h * drift(z, float(grid[k]))
        if not (noiseless_last and k == steps - 1):
            rng.standard_normal(out=noise)
            noise *= noise_sd
            z += noise
        record(k + 1, z)
    return record.trajectory()


def forward_sample(
    spec: ModelSpec,
    init_or_points,
    steps: int,
    rng: np.random.Generator,
    *,
    horizon: float = 2.0,
    n_paths: int = 1,
    record_times=(),
    record_path: bool = False,
) -> Trajectory:
    """Euler-Maruyama forward paths of dZ = M Z dt + sW dW on [0, horizon].

    A scheduled coupling enters through ``spec.relaxation(t)``.
    """
    if steps < 1:
        raise InvalidArgument("steps must be >= 1")
    spec.require_stable()

    d = spec.dim_d
    grid = np.linspace(0.0, horizon, steps + 1)
    if isinstance(init_or_points, MixtureInit):
        z = draw_mixture(init_or_points, n_paths, rng).points
    else:
        z = _start_states(init_or_points, d, n_paths)

    def drift(state: np.ndarray, t: float) -> np.ndarray:
        return _block_apply_state(spec.relaxation(t), state, d)

    record = _Recorder(grid, record_times, record_path)
    return _euler_maruyama(spec, z, grid, horizon / steps, drift, rng, record, False)


# ---------------------------------------------------------------------------
# population density and score


def _log_cosh(u: np.ndarray) -> np.ndarray:
    a = np.abs(u)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def _population_parts(spec, init, t):
    ms = diffusion_kernel(spec, init, t)
    cinv = block_inverse(ms.c)
    if ms.c.a11 <= 0.0 or ms.c.det <= 0.0:
        raise NotPositiveDefinite(f"diffusion kernel not SPD at t={t!r}")
    mu = np.concatenate(_plane_means(ms.mu_x, ms.mu_y, init.dim_d))
    return ms, cinv, mu


def _block_apply_state(block: Block2, z: np.ndarray, d: int) -> np.ndarray:
    x, y = split_channels(z, d)
    bx, by = block.apply(x, y)
    return np.concatenate([bx, by], axis=-1)


def population_score(
    spec: ModelSpec, init: MixtureInit, z: np.ndarray, t: float
) -> np.ndarray:
    """Exact score of the population mixture:
    -C^-1 z + C^-1 mu tanh(mu^T C^-1 z)."""
    z = np.asarray(z, dtype=float)
    d = init.dim_d
    _, cinv, mu = _population_parts(spec, init, t)
    cinv_z = _block_apply_state(cinv, z, d)
    cinv_mu = _block_apply_state(cinv, mu, d)
    u = z @ cinv_mu  # == mu^T C^-1 z by symmetry of C
    return -cinv_z + np.tanh(u)[..., None] * cinv_mu


def population_log_density(
    spec: ModelSpec, init: MixtureInit, z: np.ndarray, t: float
) -> np.ndarray:
    """Normalized log density of the population mixture at z."""
    z = np.asarray(z, dtype=float)
    d = init.dim_d
    ms, cinv, mu = _population_parts(spec, init, t)
    cinv_z = _block_apply_state(cinv, z, d)
    cinv_mu = _block_apply_state(cinv, mu, d)
    quad = np.sum(z * cinv_z, axis=-1)
    const = (
        -d * math.log(2.0 * math.pi)
        - 0.5 * d * math.log(ms.c.det)
        - 0.5 * float(mu @ cinv_mu)
    )
    return const - 0.5 * quad + _log_cosh(z @ cinv_mu)


# ---------------------------------------------------------------------------
# empirical score


def _empirical_table(points: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """A copy of the (n, 2d) training points as the first 2d columns of an
    (n, 2d + 1) table, whose last column ``_empirical_kernel`` fills with
    each point's bias, and the per-point statistics |x_j|^2, x_j . y_j and
    |y_j|^2, shaped (3, n)."""
    x, y = split_channels(points, d)
    table = np.empty((points.shape[0], 2 * d + 1))
    table[:, :-1] = points
    stats = np.stack([np.einsum("ij,ij->i", u, v) for u, v in ((x, x), (x, y), (y, y))])
    return table, stats


def _empirical_kernel(table, stats, spec: ModelSpec, z, t: float):
    """(score, e, total): the score of ``empirical_score`` and its weights
    before normalisation, e (m, n) with row sums ``total`` (m, 1), so the
    weights are e / total.  The score has z's shape; e and total are 2-D.
    Writes the biases at t into the table's last column."""
    if t <= 0.0:
        raise KernelDegenerate("empirical kernel has zero width at t=0")
    z = np.asarray(z, dtype=float)
    if z.ndim not in (1, 2):
        raise InvalidArgument(
            f"z must be one state or an (m, 2d) batch, got shape {z.shape}"
        )
    zb = np.atleast_2d(z)
    d = spec.dim_d
    phi, q = _kernel_blocks(spec, t)
    qinv = block_inverse(q)
    b = qinv.matmul(phi)  # B = Q^-1 Phi
    a = phi.transpose().matmul(b)  # A = Phi^T Q^-1 Phi
    left = np.empty((zb.shape[0], 2 * d + 1))
    left[:, :d], left[:, d:-1] = b.transpose().apply(*split_channels(zb, d))
    left[:, -1] = 1.0
    table[:, -1] = -0.5 * (
        a.a11 * stats[0] + (a.a12 + a.a21) * stats[1] + a.a22 * stats[2]
    )

    log_k = left @ table.T  # (m, n)
    log_k -= log_k.max(axis=1, keepdims=True)
    e = np.exp(log_k, out=log_k)
    total = e.sum(axis=1, keepdims=True)
    mean = e @ table[:, :-1]  # (m, 2d), the weighted mean of the raw points
    mean /= total
    score = _block_apply_state(b, mean, d) - _block_apply_state(qinv, zb, d)
    return (score[0] if z.ndim == 1 else score), e, total


def empirical_score(
    dataset: DatasetEmpirical,
    spec: ModelSpec,
    z: np.ndarray,
    t: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact score of the drifted empirical mixture, with posterior weights.

    With B = Q(t)^-1 Phi(t) and A = Phi^T B, 2x2 blocks acting as (x) I_d,
    the log kernel -|z - Phi x_j|^2_Q / 2 is (B^T z).x_j - x_j^T A x_j / 2
    less |z|^2_Q / 2, which is the same for every point and cancels in the
    softmax.  So one (m, 2d + 1) @ (2d + 1, n) product on the raw training
    points gives every log kernel, the bias folded in as a last column
    from the per-point |x_j|^2, x_j.y_j and |y_j|^2; the working set is
    O(m n), and the score is B (sum_j e_j x_j / sum_j e_j) - Q^-1 z for
    the exponentiated kernels e, normalised on that (m, 2d) mean.

    Rounding: the product sums 2d + 1 terms, the bias adds the d-term
    statistics, and forming B, A, B^T z and the bias adds a few roundings
    more, so with lam and phi the spectral norms of |Q^-1| and |Phi| a log
    kernel is off by at most (3d + 9) u lam phi |x_j| (|z| + phi |x_j| / 2)
    for the unit roundoff u, less a per-row constant.  phi |x_j| is
    |Phi x_j| where Phi is a multiple of an orthogonal map (as t -> 0) and
    at most cond(Phi) times it elsewhere, so this is the error of the
    drifted-point form z.Q^-1 p_j - p_j.Q^-1 p_j / 2 up to those factors;
    it grows like 1/q(t) as t -> 0.

    ``z`` is one state (2d,) or a batch (m, 2d).  Undefined at t = 0 where
    the kernel width vanishes.
    """
    score, w, total = _empirical_kernel(
        *_empirical_table(dataset.points, spec.dim_d), spec, z, t
    )
    w /= total
    return score, (w[0] if score.ndim == 1 else w)


def population_score_fn(spec: ModelSpec, init: MixtureInit) -> ScoreFn:
    return lambda z, t: population_score(spec, init, z, t)


def empirical_score_fn(dataset: DatasetEmpirical, spec: ModelSpec) -> ScoreFn:
    """The score of ``empirical_score``, bit for bit, from one snapshot of
    the dataset's points and statistics taken here; the weights are never
    normalised.  The snapshot's bias column is rewritten on each call, so
    one fn is not for concurrent use from several threads."""
    table, stats = _empirical_table(dataset.points, spec.dim_d)
    return lambda z, t: _empirical_kernel(table, stats, spec, z, t)[0]


# ---------------------------------------------------------------------------
# reverse-time integrators


def reverse_sample(
    spec: ModelSpec,
    score: ScoreFn,
    steps: int,
    rng: np.random.Generator,
    *,
    horizon: float = 2.0,
    n_paths: int = 1,
    start: np.ndarray | None = None,
    record_times=(),
    record_path: bool = False,
) -> Trajectory:
    """Euler-Maruyama integration of the reverse SDE from horizon to 0.

    Starts from the stationary law of the forward process unless ``start``
    is given.  The final step adds no noise.
    """
    if steps < 1:
        raise InvalidArgument("steps must be >= 1")
    d = spec.dim_d
    if start is None:
        z = sample_block_gaussian(stationary_cov(spec), n_paths, d, rng)
    else:
        z = _start_states(start, d, n_paths)

    grid = horizon * (1.0 - np.arange(steps + 1) / steps)

    def drift(state: np.ndarray, t: float) -> np.ndarray:
        m = spec.relaxation(t)
        return -_block_apply_state(m, state, d) + spec.sigma_w2 * score(state, t)

    record = _Recorder(grid, record_times, record_path)
    return _euler_maruyama(spec, z, grid, horizon / steps, drift, rng, record, True)


def flow_sample(
    spec: ModelSpec,
    init: MixtureInit,
    steps: int,
    start: np.ndarray,
    *,
    horizon: float = 2.0,
    t_end: float = 0.0,
    record_path: bool = False,
) -> Trajectory:
    """Deterministic probability-flow trajectory from horizon down to t_end (RK4).

    Integrates dz/ds = -M z + (sW2/2) * population score in elapsed
    reverse time s; bit-identical across runs for a fixed start state.
    """
    if steps < 1:
        raise InvalidArgument("steps must be >= 1")
    if not 0.0 <= t_end < horizon:
        raise InvalidArgument("need 0 <= t_end < horizon")
    d = spec.dim_d
    z = _start_states(start, d)
    grid = np.linspace(horizon, t_end, steps + 1)
    h = (horizon - t_end) / steps

    def rhs(state: np.ndarray, t: float) -> np.ndarray:
        m = spec.relaxation(t)
        return -_block_apply_state(m, state, d) + 0.5 * spec.sigma_w2 * population_score(
            spec, init, state, t
        )

    record = _Recorder(grid, record_path=record_path)
    record(0, z)
    for k in range(steps):
        t = float(grid[k])
        t_mid = max(t - 0.5 * h, 0.0)
        t_next = float(grid[k + 1])
        k1 = rhs(z, t)
        k2 = rhs(z + 0.5 * h * k1, t_mid)
        k3 = rhs(z + 0.5 * h * k2, t_mid)
        k4 = rhs(z + h * k3, t_next)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        record(k + 1, z)

    return record.trajectory()


# ---------------------------------------------------------------------------
# conditional generation (anisotropic coupling)


def _mixture_law(c11, c12, c22, px, py, d: int):
    """The x-free terms of ``_cell_mixture`` in plane coordinates: (ex, gain,
    e_delta, c_yx) with mu_x = _plane_vectors(ex) and delta =
    _plane_vectors(e_delta), over the leading axes of the blocks and
    coordinates.  Past the plane delta holds +0.0, as mu_y - gain mu_x does."""
    c_yx, gain = schur_complement(c11, c12, c22)
    ex, ey = _plane_coords(px, py, d)
    return ex, gain, ey - gain * ex, c_yx


def _dot(a, b):
    """a . b over the last axis, kept as an axis of length one.  On the
    mean plane that axis has length 2, where adding two slices gives the
    sums of ``np.sum`` (a zero may keep its sign) at a tenth of a
    reduction's call cost."""
    prod = a * b
    if prod.shape[-1] == 2:
        return prod[..., :1] + prod[..., 1:]
    return np.sum(prod, axis=-1, keepdims=True)


def _class_weights(u: np.ndarray) -> np.ndarray:
    """(w+, w-) = sigmoid(+-2u) on a last axis of length two, via log space."""
    return np.exp(-np.logaddexp(0.0, np.concatenate([-2.0 * u, 2.0 * u], axis=-1)))


def _mixture_at(u, gain, delta, c_yx, x, y):
    """Residual r = y - gain x and tanh argument a = u + r . delta / c_yx of a
    ``_cell_mixture`` at y, over the same leading axes."""
    r = y - gain * x
    return r, u + _dot(r, delta) / c_yx


def _mixture_score(u, gain, delta, c_yx, x, y):
    """grad_y log P_t(y | x) = (tanh(a) delta - r) / c_yx."""
    r, a = _mixture_at(u, gain, delta, c_yx, x, y)
    score = np.tanh(a) * delta
    score -= r
    score /= c_yx
    return score


def _cell_mixture(spec, init: MixtureInit, x: np.ndarray, t: float, moments):
    """P_t(y | x) of one cell at time t in closed form: the law is
    sum_{s=+-1} sigmoid(2 s u) N(y; gain x + s delta, c_yx I).

    Its moments default to the closed form.  Returns u = mu_x . x / C11 (..., 1), half
    the class log-odds, gain = C12 / C11, the component offset
    delta = mu_y - gain mu_x (d,) and the variance c_yx.
    """
    ms = moments if moments is not None else diffusion_kernel(spec, init, t)
    d = init.dim_d
    ex, gain, e_delta, c_yx = _mixture_law(ms.c.a11, ms.c.a12, ms.c.a22, ms.mu_x, ms.mu_y, d)
    u = _dot(x, _plane_vectors(ex, d)) / ms.c.a11
    return u, gain, _plane_vectors(e_delta, d), c_yx


def conditional_score(
    spec: ModelSpec,
    init: MixtureInit,
    x: np.ndarray,
    y: np.ndarray,
    t: float,
    moments: MomentState | None = None,
) -> np.ndarray:
    """Exact conditional score grad_y log P_t(y | x); x and y broadcast."""
    x = np.asarray(x, dtype=float)
    mix = _cell_mixture(spec, init, x, t, moments)
    return _mixture_score(*mix, x, np.asarray(y, dtype=float))


def conditional_log_density(
    spec: ModelSpec,
    init: MixtureInit,
    x: np.ndarray,
    y: np.ndarray,
    t: float,
    moments: MomentState | None = None,
) -> np.ndarray:
    """Normalized log P_t(y | x) of the conditional mixture; x and y broadcast:
    -d/2 log(2 pi c_yx) - (|r|^2 + |delta|^2) / (2 c_yx) + logcosh(a) - logcosh(u).
    """
    x = np.asarray(x, dtype=float)
    u, gain, delta, c_yx = _cell_mixture(spec, init, x, t, moments)
    r, a = _mixture_at(u, gain, delta, c_yx, x, np.asarray(y, dtype=float))
    quad = (np.sum(r * r, axis=-1) + delta @ delta) / (2.0 * c_yx)
    return (
        _log_cosh(a[..., 0])
        - _log_cosh(u[..., 0])
        - quad
        - 0.5 * init.dim_d * math.log(2.0 * math.pi * c_yx)
    )


@dataclass(frozen=True)
class ConditionalRunConfig:
    """Parameters of one conditional-generation cell."""

    dim_d: int = 32
    beta: float = 1.0
    sigma_w2: float = 2.0
    sigma2: float = 1.0
    m2: float = 1.0
    theta: float = 0.0
    schedule: ScheduleSpec = ScheduleSpec("constant", 0.0, 0.0)
    horizon: float = 2.0
    steps: int = 800
    trials: int = 2000
    chunk: int = 250

    def __post_init__(self):
        _check_sizes(self, ("dim_d", "steps", "trials", "chunk"))

    def model(self) -> tuple[ModelSpec, MixtureInit]:
        coupling = (
            Anisotropic(self.schedule.g0)
            if self.schedule.kind == "constant"
            else Scheduled(self.schedule)
        )
        spec = ModelSpec(
            beta=self.beta,
            coupling=coupling,
            sigma_w2=self.sigma_w2,
            dim_d=self.dim_d,
        )
        init = MixtureInit(
            sigma2_x=self.sigma2,
            sigma2_y=self.sigma2,
            mean_spec=AngledMeans(m_x2=self.m2, m_y2=self.m2, theta=self.theta),
            dim_d=self.dim_d,
        )
        return spec, init


def _off_plane_weights(gain, c_yx, g, h, beta, sw2, decay, trans_sd, noise_sd):
    """Weights of one off-plane coordinate of the group's y0 on that
    coordinate's own draws, per cell.

    Past the mean plane mu_x and delta are 0, so the score is -r / c_yx
    and the reverse step reads y <- a_i y + b_i x_i (+ noise) at grid
    index i, with a_i = 1 + h (beta - sW2 / c_yx,i) and
    b_i = h (sW2 gain_i / c_yx,i - g_i), from the start
    y = gain_n x_n + sqrt(c_yx,n) xi_0.  An increment at index i reaches
    y0 times cprod_i = a_1 ... a_{i-1}, and the X path
    x_i = decay x_{i-1} + trans_sd zeta_i spreads the weight of x_i over
    its transitions by a decayed reverse cumulative sum.

    ``gain``, ``c_yx`` and ``g`` are shaped (steps + 1, cells) by grid
    index.  Returns the weights on x_0 and the ``steps`` unit transition
    normals, (cells, steps + 1), and on the unit start draw and the
    ``steps - 1`` unit step draws of the y noise, (cells, steps).  Every
    operation acts on each cell alone, so a cell's weights do not depend
    on the group it runs in.
    """
    n = gain.shape[0] - 1
    a = 1.0 + h * (beta - sw2 / c_yx[1:])
    b = h * (sw2 * gain[1:] / c_yx[1:] - g[1:])
    cprod = np.ones((n + 1,) + a.shape[1:])
    np.cumprod(a, axis=0, out=cprod[1:])
    # the weight of the path value x_i, i = 1..n (x_0 is never read)
    w_path = cprod[:-1] * b
    w_path[-1] += cprod[-1] * gain[n]
    x_weights = np.empty_like(cprod)
    acc = np.zeros_like(cprod[0])
    for i in range(n, 0, -1):
        acc = w_path[i - 1] + decay * acc
        x_weights[i] = trans_sd * acc
    x_weights[0] = decay * acc
    noise_weights = np.empty_like(w_path)
    noise_weights[0] = cprod[n] * np.sqrt(c_yx[n])
    noise_weights[1:] = noise_sd * cprod[n - 1 : 0 : -1]
    return x_weights.T, noise_weights.T


def conditional_reverse_group(configs, rng: np.random.Generator) -> dict:
    """Generate (x0, y~0) pairs for a group of cells off one random stream.

    The cells may differ only in their coupling schedule.  A cell run alone
    draws the same numbers in the same order whatever its schedule, and the
    conditioning path X is autonomous under one-way coupling, so the group
    draws once and simulates one X path, with the cells' moments from one
    ``stacked_moments`` call.

    The means span the first p = min(d, 2) coordinates, so only those
    need the nonlinear score: the X recursion and the reverse y loop run
    on the plane, as (steps + 1, m, p) and (cells, m, p) arrays.  Past the
    plane every coordinate of y0 is a fixed linear function of that
    coordinate's own normals (``_off_plane_weights``), filled in by one
    contraction per cell over the time axis of the very same draws: the
    X normals before the y noise overwrites them in the X-path buffer,
    then the y noise.  The contraction runs in einsum's own loop, not in
    BLAS, whose threads would compete with the sweep's worker processes.
    The plane coordinates take exactly the operations of a d-wide loop,
    whose plane sums only add exact zeros past the plane; the off-plane
    ones agree with it to rounding.  Cell j of the result is
    bit-identical to running ``configs[j]`` alone from the same generator
    state.

    Returns the shared ``x0`` (trials, d), ``labels`` and ``init``, and per
    cell ``y0`` (cells, trials, d), ``moments0`` and ``specs`` (lists).
    """
    configs = list(configs)
    if not configs:
        raise InvalidArgument("a conditional group needs at least one cell")
    config = configs[0]
    if any(replace(c, schedule=config.schedule) != config for c in configs):
        raise InvalidArgument("cells of one group may differ only in their schedule")
    models = [c.model() for c in configs]
    specs = [spec for spec, _ in models]
    init = models[0][1]
    d = config.dim_d
    p = min(d, 2)
    n_steps = config.steps
    horizon = config.horizon
    h = horizon / n_steps
    grid = np.linspace(0.0, horizon, n_steps + 1)

    mu, c, q = stacked_moments(specs, init, grid)
    moments0 = [
        MomentState.from_arrays(grid[0], mu[0, j], c[0, j], q[0, j])
        for j in range(len(specs))
    ]
    # per grid index: blocks shaped (cells, 1, 1), plane coordinates
    # (cells, 1, 2), to broadcast over the (cells, m, p) state
    c11, c12, c22 = (c[:, :, i, j, None, None] for i, j in ((0, 0), (0, 1), (1, 1)))
    px, py = mu[:, :, None, 0], mu[:, :, None, 1]
    # the x channel does not see the coupling (the relaxation adds exact
    # zeros to it), so C11 and mu_x normally agree bit for bit across the
    # cells; then the class weights, which read only those, are computed
    # once per step and broadcast
    if np.all(c11 == c11[:, :1]) and np.all(px == px[:, :1]):
        c11, px = c11[:, :1], px[:, :1]
    ex, gain, e_delta, c_yx = _mixture_law(c11, c12, c22, px, py, d)
    ex, e_delta = ex[..., :p], e_delta[..., :p]
    g = np.stack([spec.coupling_at(grid) for spec in specs], axis=1)
    mu_x0, _ = materialize_means(init)

    beta = config.beta
    sw2 = config.sigma_w2
    init_sd = math.sqrt(config.sigma2)
    decay = math.exp(-beta * h)
    trans_sd = math.sqrt(sw2 * -math.expm1(-2.0 * beta * h) / (2.0 * beta))
    noise_sd = math.sqrt(sw2) * math.sqrt(h)
    n_cells = len(configs)
    if d > p:
        x_weights, noise_weights = _off_plane_weights(
            gain[:, :, 0, 0], c_yx[:, :, 0, 0], g, h, beta, sw2, decay, trans_sd, noise_sd
        )
    g = g[:, :, None, None]

    x0_out = np.empty((config.trials, d))
    y0_out = np.empty((n_cells, config.trials, d))
    s_out = np.empty(config.trials)
    lo = 0
    x_path = None
    while lo < config.trials:
        m = min(config.chunk, config.trials - lo)
        if x_path is None or x_path.shape[1] != m:
            # chunks of one size share the X path and its plane
            x_path = np.empty((n_steps + 1, m, d))
            x_plane = np.empty((n_steps + 1, m, p))
            off = np.empty((m, d))
        s = np.where(rng.uniform(size=m) < 0.5, 1.0, -1.0)
        x_path[0] = s[:, None] * mu_x0 + init_sd * rng.standard_normal((m, d))
        # one call draws what n_steps calls of (m, d) draw in turn
        rng.standard_normal(out=x_path[1:])
        x_plane[0] = x_path[0, :, :p]
        x_plane[1:] = x_path[1:, :, :p] * trans_sd
        for k in range(n_steps):
            x_plane[k + 1] += x_plane[k] * decay
        y_off = y0_out[:, lo : lo + m, p:]
        if d > p:
            draws = x_path.reshape(n_steps + 1, m * d)
            for j in range(n_cells):
                np.einsum("k,kn->n", x_weights[j], draws, out=off.reshape(-1))
                y_off[j] = off[:, p:]

        # exact conditional mixture draw at t = horizon
        x_t = x_plane[n_steps]
        u = _dot(x_t, ex[n_steps]) / c11[n_steps]
        pick_plus = rng.uniform(size=m) < _class_weights(u)[..., 0]
        # the y noise, start draw first, as the loop's calls would draw it;
        # the plane of the X path is in x_plane, the rest is read above
        rng.standard_normal(out=x_path[1:])
        delta = e_delta[n_steps]
        y = (
            gain[n_steps] * x_t
            + np.where(pick_plus[..., None], delta, -delta)
            + np.sqrt(c_yx[n_steps]) * x_path[1, :, :p]
        )

        # an overflow saturates tanh at its exact +-1 or leaves y0 non-finite,
        # which toy_metrics refuses
        with np.errstate(over="ignore"):
            for k in range(n_steps):
                idx = n_steps - k  # grid index of the current reverse time
                x_t = x_plane[idx]
                u = _dot(x_t, ex[idx]) / c11[idx]
                score = _mixture_score(u, gain[idx], e_delta[idx], c_yx[idx], x_t, y)
                y += h * (beta * y - g[idx] * x_t + sw2 * score)
                if k < n_steps - 1:
                    y += noise_sd * x_path[k + 2, :, :p]

        y0_out[:, lo : lo + m, :p] = y
        if d > p:
            draws = x_path[1:].reshape(n_steps, m * d)
            for j in range(n_cells):
                np.einsum("k,kn->n", noise_weights[j], draws, out=off.reshape(-1))
                y_off[j] += off[:, p:]
        x0_out[lo : lo + m] = x_path[0]
        s_out[lo : lo + m] = s
        lo += m

    return {
        "x0": x0_out,
        "y0": y0_out,
        "labels": s_out,
        "moments0": moments0,
        "specs": specs,
        "init": init,
    }


def conditional_reverse_sample(
    config: ConditionalRunConfig, rng: np.random.Generator
) -> dict:
    """Generate (x0, y~0) pairs with the exact conditional score.

    The conditioning path X is simulated exactly with autonomous OU
    transitions; the target channel is then integrated backward from an
    exact draw of P_T(y | X_T) under the schedule-consistent drift
    -beta y + g(t) X_t - sW2 grad_y log P_t(y | X_t), read with the
    negative-time-step convention.  This is ``conditional_reverse_group``
    for a group of one cell.
    """
    out = conditional_reverse_group([config], rng)
    return {
        "x0": out["x0"],
        "y0": out["y0"][0],
        "labels": out["labels"],
        "moments0": out["moments0"][0],
        "spec": out["specs"][0],
        "init": out["init"],
    }
