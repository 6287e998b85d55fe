"""Exact first and second moments of the coupled forward process.

Closed forms cover both constant coupling kinds; a coupling schedule is
followed on a time grid by the exact moment map of each step, with the
coupling held at its step-midpoint value.  Means are carried as
per-dimension coordinates in the 2D plane spanned by the two mean
directions, which is sufficient for every downstream quadratic form and
is materialized into full d-vectors only by the samplers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Union

import numpy as np

from .blockmat import (
    SQRT1_2, Block2, ModeDecomposition, from_modes, mat_exp, spectral_decompose,
)
from .errors import DegenerateDrift, InvalidArgument, UnsupportedShape


# ---------------------------------------------------------------------------
# model parameter types


@dataclass(frozen=True)
class ScheduleSpec:
    """Piecewise-constant coupling profile over forward time.

    ``constant`` ignores t0; ``late`` keeps the coupling on for t <= t0;
    ``early`` switches it on for t >= t0.  Both indicators are closed at
    the boundary.
    """

    kind: Literal["constant", "late", "early"]
    g0: float
    t0: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "late", "early"):
            raise InvalidArgument(f"unknown schedule kind {self.kind!r}")
        if not math.isfinite(self.g0) or not math.isfinite(self.t0):
            raise InvalidArgument("schedule parameters must be finite")
        if self.kind != "constant" and self.t0 < 0.0:
            raise InvalidArgument(f"switch time t0={self.t0!r} must be >= 0")

    def value(self, t):
        """Coupling at forward time t: a float, or an array for an array of times."""
        if self.kind == "constant":
            on = True
        elif self.kind == "late":
            on = t <= self.t0
        else:
            on = t >= self.t0
        if isinstance(t, np.ndarray):
            return np.where(on, self.g0, np.zeros(t.shape))
        return self.g0 if on else 0.0


@dataclass(frozen=True)
class Symmetric:
    g: float


@dataclass(frozen=True)
class Anisotropic:
    g: float


@dataclass(frozen=True)
class Scheduled:
    schedule: ScheduleSpec


Coupling = Union[Symmetric, Anisotropic, Scheduled]


def _require_finite(obj, *fields: str):
    for name in fields:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise InvalidArgument(f"{name}={value!r} must be finite")


@dataclass(frozen=True)
class ModelSpec:
    """Coupled two-channel OU parameters.

    The symmetric kind is dynamically stable only for beta > |g|; specs
    violating that bound can still be constructed so that stability
    diagnostics can report on them, but samplers and solvers refuse them.
    """

    beta: float
    coupling: Coupling
    sigma_w2: float
    dim_d: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise InvalidArgument(f"beta={self.beta!r} must be positive")
        if not (math.isfinite(self.sigma_w2) and self.sigma_w2 > 0.0):
            raise InvalidArgument(f"sigma_w2={self.sigma_w2!r} must be positive")
        if self.dim_d < 1:
            raise InvalidArgument(f"dim_d={self.dim_d!r} must be >= 1")
        if isinstance(self.coupling, (Symmetric, Anisotropic)):
            if not math.isfinite(self.coupling.g):
                raise InvalidArgument("coupling g must be finite")

    @property
    def is_stable(self) -> bool:
        """Eigenvalues of the relaxation matrix all have negative real part."""
        if isinstance(self.coupling, Symmetric):
            return self.beta > abs(self.coupling.g)
        return True

    def require_stable(self) -> None:
        """Refuse a symmetric spec with |g| >= beta, which has no stationary law."""
        if not self.is_stable:
            raise InvalidArgument(
                f"symmetric coupling needs beta > |g|, got beta={self.beta!r}, "
                f"g={self.coupling.g!r}"
            )

    def coupling_at(self, t=None):
        """Coupling at forward time t: a float, or an array for an array of times."""
        if isinstance(self.coupling, Scheduled):
            if t is None:
                raise InvalidArgument("scheduled coupling needs a time")
            return self.coupling.schedule.value(t)
        g = self.coupling.g
        return np.full(t.shape, g) if isinstance(t, np.ndarray) else g

    def relaxation(self, t: float | None = None) -> Block2:
        """The relaxation matrix M as a block; scheduled kinds need a time."""
        g = self.coupling_at(t)
        if isinstance(self.coupling, Symmetric):
            return Block2.exchange(-self.beta, g)
        return Block2(-self.beta, 0.0, g, -self.beta)

    def modes(self) -> ModeDecomposition:
        if not isinstance(self.coupling, Symmetric):
            raise UnsupportedShape("eigenmodes require symmetric coupling")
        return spectral_decompose(self.relaxation())


@dataclass(frozen=True)
class ModeMeans:
    """Means given through per-dimension mode norms m_plus^2, m_minus^2.

    The two mode mean vectors are materialized along orthogonal plane
    directions, so their cross term vanishes by convention.
    """

    m_plus2: float
    m_minus2: float

    def __post_init__(self):
        _require_finite(self, "m_plus2", "m_minus2")
        if self.m_plus2 < 0.0 or self.m_minus2 < 0.0:
            raise InvalidArgument("squared mode norms must be >= 0")


@dataclass(frozen=True)
class AngledMeans:
    """Means given through per-dimension channel norms and alignment angle."""

    m_x2: float
    m_y2: float
    theta: float

    def __post_init__(self):
        _require_finite(self, "m_x2", "m_y2")
        if self.m_x2 < 0.0 or self.m_y2 < 0.0:
            raise InvalidArgument("squared channel norms must be >= 0")
        if not 0.0 <= self.theta <= math.pi:
            raise InvalidArgument(f"theta={self.theta!r} outside [0, pi]")


MeanSpec = Union[ModeMeans, AngledMeans]


@dataclass(frozen=True)
class MixtureInit:
    """Two-component Gaussian mixture initial data with equal weights."""

    sigma2_x: float
    sigma2_y: float
    mean_spec: MeanSpec
    dim_d: int = 1

    def __post_init__(self):
        _require_finite(self, "sigma2_x", "sigma2_y")
        if self.sigma2_x <= 0.0 or self.sigma2_y <= 0.0:
            raise InvalidArgument("initial variances must be positive")
        if self.dim_d < 1:
            raise InvalidArgument(f"dim_d={self.dim_d!r} must be >= 1")

    @property
    def equal_variance(self) -> bool:
        return self.sigma2_x == self.sigma2_y

    def sigma0(self) -> Block2:
        return Block2.diag(self.sigma2_x, self.sigma2_y)

    def mean_plane(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-dimension coordinates of (mu_x, mu_y) in their signal plane."""
        ms = self.mean_spec
        if isinstance(ms, AngledMeans):
            mx = math.sqrt(ms.m_x2)
            my = math.sqrt(ms.m_y2)
            return (
                np.array([mx, 0.0]),
                np.array([my * math.cos(ms.theta), my * math.sin(ms.theta)]),
            )
        mp = math.sqrt(ms.m_plus2)
        mm = math.sqrt(ms.m_minus2)
        # mu_x = (mu_+ + mu_-)/sqrt2 with mu_+ along e1 and mu_- along e2
        return (
            np.array([mp * SQRT1_2, mm * SQRT1_2]),
            np.array([mp * SQRT1_2, -mm * SQRT1_2]),
        )

    def channel_stats(self) -> tuple[float, float, float]:
        """Per-dimension (|mu_x|^2, |mu_y|^2, mu_x . mu_y)."""
        mux, muy = self.mean_plane()
        return float(mux @ mux), float(muy @ muy), float(mux @ muy)

    def mode_norms(self) -> tuple[float, float]:
        """Per-dimension (m_plus^2, m_minus^2) of the mixture mean."""
        mxx, myy, mxy = self.channel_stats()
        return 0.5 * (mxx + myy) + mxy, 0.5 * (mxx + myy) - mxy


@dataclass(frozen=True)
class MomentState:
    """Exact moments at one time: mean plane coordinates and blocks S, Q, C."""

    t: float
    mu_x: np.ndarray
    mu_y: np.ndarray
    s: Block2
    q: Block2
    c: Block2

    @staticmethod
    def from_arrays(
        t: float, mu: np.ndarray, c: np.ndarray, q: np.ndarray
    ) -> "MomentState":
        """State from a (2, 2) mean-plane array (rows: channel) and C, Q blocks."""
        return MomentState(
            t=float(t),
            mu_x=mu[0].copy(),
            mu_y=mu[1].copy(),
            s=Block2.from_array(c - q),
            q=Block2.from_array(q),
            c=Block2.from_array(c),
        )

    def mean_stats(self) -> tuple[float, float, float]:
        return (
            float(self.mu_x @ self.mu_x),
            float(self.mu_y @ self.mu_y),
            float(self.mu_x @ self.mu_y),
        )


# ---------------------------------------------------------------------------
# closed forms


def _require_time(t: float):
    if not math.isfinite(t) or t < 0.0:
        raise InvalidArgument(f"time t={t!r} must be finite and >= 0")


def _require_closed_form(spec: ModelSpec):
    if isinstance(spec.coupling, Scheduled):
        raise UnsupportedShape(
            "scheduled coupling has no closed-form moments; use moments_ode"
        )


def mean_at(spec: ModelSpec, mu0, t: float):
    """Propagate a mean pair through exp(M t).

    ``mu0`` is a pair (mu_x, mu_y) of scalars or arrays.  Symmetric
    coupling goes through the eigenmode split; anisotropic coupling uses
    the nilpotent closed form mu_y(t) = e^{-beta t}(mu_y + g t mu_x).
    """
    _require_time(t)
    _require_closed_form(spec)
    mux, muy = mu0
    mux = np.asarray(mux, dtype=float)
    muy = np.asarray(muy, dtype=float)
    if isinstance(spec.coupling, Symmetric):
        e = mat_exp(spec.relaxation(), t)
        return e.apply(mux, muy)
    g = spec.coupling.g
    decay = math.exp(-spec.beta * t)
    return decay * mux, decay * (muy + g * t * mux)


def _expm1_ratio(tau: float, t: float) -> float:
    """(1 - e^{-tau t}) / tau, stable for tau*t near zero."""
    x = tau * t
    if x == 0.0:
        return t
    return -math.expm1(-x) / tau


# per step, the numerators and denominators of the term ratios of the two
# tail series, rows (k, h): the n-th term of k is the previous one times
# -a (n - 1) / (n (n - 2)), n = 3..17, and the (n + 1)-th of h times
# -a n / ((n + 1) (n - 2)); as columns, for the rows of an array recurrence
_TAIL_RATIOS = [((n - 1, n), (n * (n - 2), (n + 1) * (n - 2))) for n in range(3, 18)]
_TAIL_COLUMNS = [
    (np.array(num, dtype=float)[:, None], np.array(den, dtype=float)[:, None])
    for num, den in _TAIL_RATIOS
]


def _tail_series(a):
    """The power series of the tails (k, h) of ``_poly_tails`` at a float,
    or at each entry of a 1-D array, where they run as the two rows of one
    recurrence.  Each term is the previous one times -a, times the integer
    numerator, over the integer denominator, in that order."""
    neg = -a
    if isinstance(a, np.ndarray):
        term = np.stack([a * a / 2.0, a**3 / 6.0])
        series = term
        for num, den in _TAIL_COLUMNS:
            term = term * neg * num / den
            series = series + term
        return series
    # Python floats: an order faster than numpy on one point, and Python's
    # a**3 can differ from numpy's in the last bit
    term_k, term_h = a * a / 2.0, a**3 / 6.0
    sum_k, sum_h = term_k, term_h
    for (num_k, num_h), (den_k, den_h) in _TAIL_RATIOS:
        term_k = term_k * neg * num_k / den_k
        term_h = term_h * neg * num_h / den_h
        sum_k, sum_h = sum_k + term_k, sum_h + term_h
    return sum_k, sum_h


def _poly_tails(a):
    """(e^{-a}, k, h) with k = 1 - e^{-a}(1 + a) and h = 1 - e^{-a}(1 + a + a^2/2).

    Below a = 0.5, where the direct forms cancel, both tails come from
    their power series (``_tail_series``), evaluated on those points only.
    Where e^{-a} underflows to 0 both take their limit 1, also past the
    overflow of a^2/2.
    """
    decay = np.exp(-a)
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf, limit 1 below
        k = np.where(decay == 0.0, 1.0, 1.0 - decay * (1.0 + a))
        h = np.where(decay == 0.0, 1.0, 1.0 - decay * (1.0 + a + 0.5 * a * a))
    small = a < 0.5
    if isinstance(a, np.ndarray):
        if small.any():
            k[small], h[small] = _tail_series(a[small])
    elif small:
        k, h = _tail_series(a)
    return decay, k, h


def _cube(x):
    """x**3; where a Python float's cube overflows, inf, as numpy gives."""
    try:
        return x**3
    except OverflowError:
        return math.inf


def _q_parts(beta, ts):
    """The time-only parts (e^{-2 beta t}, u, k, h) of the anisotropic Q(t),
    with a = 2 beta t, u = 1 - e^{-a} and the tails k, h of ``_poly_tails``."""
    a = 2.0 * beta * ts
    decay, k, h = _poly_tails(a)
    return decay, -np.expm1(-a), k, h


def _aniso_q(beta, sw2, g, parts):
    """Anisotropic Q(t) entries (q11, q12, q22) on broadcast arrays of g and
    the time-only ``parts`` of ``_q_parts``:
    q11 = sW2 u / (2 beta), q12 = sW2 g k / (4 beta^2),
    q22 = q11 + sW2 g^2 h / (4 beta^3).
    Where beta^2 or beta^3 overflows, the g terms take their limit 0.
    """
    _, u, k, h = parts
    q11 = sw2 * u / (2.0 * beta)
    q12 = sw2 * g * k / (4.0 * beta * beta)
    q22 = sw2 * (u / (2.0 * beta) + g * g * h / (4.0 * _cube(beta)))
    return q11, q12, q22


def transition_cov(spec: ModelSpec, t: float) -> Block2:
    """Accumulated noise covariance Q(t) of the forward transition kernel.

    Symmetric coupling: q_pm = sW2 (1 - e^{-tau_pm t}) / tau_pm on each
    eigenmode.  Anisotropic coupling: the closed forms of ``_aniso_q``.
    """
    _require_time(t)
    _require_closed_form(spec)
    sw2 = spec.sigma_w2
    if isinstance(spec.coupling, Symmetric):
        modes = spec.modes()
        qp = sw2 * _expm1_ratio(modes.tau_plus, t)
        qm = sw2 * _expm1_ratio(modes.tau_minus, t)
        return from_modes(qp, qm)
    # Python floats: a numpy scalar would print as np.float64(...)
    parts = _q_parts(spec.beta, t)
    q11, q12, q22 = (float(q) for q in _aniso_q(spec.beta, sw2, spec.coupling.g, parts))
    return Block2(q11, q12, q12, q22)


def drifted_cov(spec: ModelSpec, init: MixtureInit, t: float) -> Block2:
    """S(t) = e^{Mt} Sigma(0) e^{M^T t}."""
    _require_time(t)
    _require_closed_form(spec)
    e = mat_exp(spec.relaxation(), t)
    return e.matmul(init.sigma0()).matmul(e.transpose())


def diffusion_kernel(spec: ModelSpec, init: MixtureInit, t: float) -> MomentState:
    """Full moment state at time t: mean plane, S(t), Q(t), C(t) = S + Q."""
    s = drifted_cov(spec, init, t)
    q = transition_cov(spec, t)
    mux, muy = mean_at(spec, init.mean_plane(), t)
    return MomentState(t=float(t), mu_x=mux, mu_y=muy, s=s, q=q, c=s.add(q))


def _require_mode_kernels(spec: ModelSpec, init: MixtureInit):
    """C(t) factors over the eigenmodes only for symmetric coupling and
    equal channel variances, where it commutes with the mode projectors."""
    if not isinstance(spec.coupling, Symmetric):
        raise UnsupportedShape("mode kernels require symmetric coupling")
    if not init.equal_variance:
        raise UnsupportedShape(
            "mode kernels require sigma_x == sigma_y; the unequal case has "
            "no eigenmode factorization"
        )


def _mode_kernel(s2, sw2, tau, ts):
    """(e^{-tau t}, c(t)) with c = s2 e^{-tau t} + sW2 (1 - e^{-tau t}) / tau
    for a mode with rate tau, on scalars or broadcast arrays of tau and ts."""
    decay = np.exp(-tau * ts)
    return decay, s2 * decay + sw2 * (-np.expm1(-tau * ts)) / tau


def mode_kernels(spec: ModelSpec, init: MixtureInit, t: float) -> tuple[float, float]:
    """Diffusion-kernel eigenvalues c_pm(t) for symmetric coupling.

    c_pm = s2 e^{-tau_pm t} + sW2 (1 - e^{-tau_pm t}) / tau_pm, requiring
    equal channel variances so that C(t) commutes with the eigenmode
    projectors.
    """
    _require_time(t)
    _require_mode_kernels(spec, init)
    modes = spec.modes()
    return tuple(
        float(_mode_kernel(init.sigma2_x, spec.sigma_w2, tau, t)[1])
        for tau in (modes.tau_plus, modes.tau_minus)
    )


def _k_parts(beta, sw2, g, c11, c12, c22):
    """K(t) = N / (Delta D) from the entries of C(t), on scalars or arrays:
    the numerators (N11, N12, N21, N22), Delta D and the mask of D(t)
    vanishing, with Delta = det C and
    D = beta^2 Delta - beta sW2 (C11 + C22) + g sW2 C12 + sW2^2."""
    delta = c11 * c22 - c12 * c12
    dd = beta * beta * delta - beta * sw2 * (c11 + c22) + g * sw2 * c12 + sw2 * sw2
    d_scale = (
        beta * beta * np.abs(delta)
        + beta * sw2 * (np.abs(c11) + np.abs(c22))
        + np.abs(g) * sw2 * np.abs(c12)
        + sw2 * sw2
    )
    numerators = (
        sw2 * c22 - beta * (c22 * c22 + c12 * c12) + g * c12 * c22,
        c12 * (beta * (c11 + c22) - g * c12 - sw2),
        beta * c12 * (c11 + c22) - sw2 * c12 - g * c11 * c22,
        sw2 * c11 - beta * (c11 * c11 + c12 * c12) + g * c11 * c12,
    )
    return numerators, delta * dd, np.abs(dd) < 1e-12 * d_scale


def kernel_K(spec: ModelSpec, init: MixtureInit, t: float) -> Block2:
    """Closed-form K(t) = C^-1 (M + sW2 C^-1)^-1 C^-1 for anisotropic coupling.

    Assembled from the numerators N_ij over Delta(t) D(t) (``_k_parts``);
    raises DegenerateDrift when D(t) vanishes.
    """
    _require_time(t)
    if not isinstance(spec.coupling, Anisotropic):
        raise UnsupportedShape("kernel_K is the anisotropic closed form")
    c = diffusion_kernel(spec, init, t).c
    numerators, denom, degenerate = _k_parts(
        spec.beta, spec.sigma_w2, spec.coupling.g, c.a11, c.a12, c.a22
    )
    if degenerate:
        raise DegenerateDrift(t)
    inv = 1.0 / denom
    return Block2(*(n * inv for n in numerators))


# ---------------------------------------------------------------------------
# moments on a time grid: the exact map of each step


def _step_maps(specs, grid: np.ndarray):
    """Per grid step and spec, the exact moment map with the coupling held
    at its value at the step midpoint: Phi = e^{M h} and the noise Q(h)
    gathered over the step, each shaped (steps, cells, 2, 2).

    One-way coupling (anisotropic or scheduled) has
    Phi = e^{-beta h} [[1, 0], [g h, 1]] and Q(h) from ``_aniso_q``;
    symmetric coupling takes the eigenmode forms of ``mean_at`` and
    ``transition_cov``.  Each entry reads only its own spec and step.
    """
    h = np.diff(grid)
    h_cells = h[:, None]  # broadcasts against the cell axis
    t_mid = 0.5 * (grid[:-1] + grid[1:])
    g = np.stack([spec.coupling_at(t_mid) for spec in specs], axis=1)
    beta = np.array([spec.beta for spec in specs])
    sw2 = np.array([spec.sigma_w2 for spec in specs])
    phi = np.zeros(g.shape + (2, 2))
    q_h = np.empty(g.shape + (2, 2))
    decay = np.exp(-beta * h_cells)
    phi[..., 0, 0] = phi[..., 1, 1] = decay
    phi[..., 1, 0] = decay * (g * h_cells)
    q_h[..., 0, 0], q_h[..., 0, 1], q_h[..., 1, 1] = _aniso_q(
        beta, sw2, g, _q_parts(beta, h_cells)
    )
    q_h[..., 1, 0] = q_h[..., 0, 1]
    for j, spec in enumerate(specs):
        if not isinstance(spec.coupling, Symmetric):
            continue
        modes = spec.modes()
        mode_pairs = []
        for lam, tau in ((modes.lambda_plus, modes.tau_plus),
                         (modes.lambda_minus, modes.tau_minus)):
            # (1 - e^{-tau h}) / tau, which is h at tau = 0
            q_mode = -np.expm1(-tau * h) / tau if tau else h
            mode_pairs.append((np.exp(lam * h), spec.sigma_w2 * q_mode))
        (phi_p, q_p), (phi_m, q_m) = mode_pairs
        for out, plus, minus in ((phi, phi_p, phi_m), (q_h, q_p, q_m)):
            out[:, j, 0, 0] = out[:, j, 1, 1] = 0.5 * (plus + minus)
            out[:, j, 0, 1] = out[:, j, 1, 0] = 0.5 * (plus - minus)
    return phi, q_h


def stacked_moments(specs, init: MixtureInit, grid):
    """Moments of a stack of specs that share one initial law and grid.

    Returns ``(mu, c, q)``, each shaped ``(len(grid), len(specs), 2, 2)``:
    ``mu[k, j]`` holds the mean plane coordinates of spec j at ``grid[k]``
    (rows: channel x, y), and ``c``/``q`` its symmetrised C and Q blocks
    (S = C - Q).  Each grid step applies its exact affine map
    (``_step_maps``): mu <- Phi mu, C <- Phi C Phi^T + Q(h) and
    Q <- Phi Q Phi^T + Q(h).  A piecewise-constant schedule is therefore
    followed exactly when its switch time lies on a grid point.  Every
    operation acts on one spec's entries alone, so spec j's states do not
    depend on which other specs share the stack.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise InvalidArgument("grid must be a 1-D array of times")
    if abs(grid[0]) > 1e-15:
        raise InvalidArgument("grid must start at t=0")
    if grid.size > 1 and not np.all(np.diff(grid) > 0.0):
        raise InvalidArgument("grid must be strictly increasing")
    if len(specs) < 1:
        raise InvalidArgument("stacked_moments needs at least one spec")
    phi, q_h = _step_maps(specs, grid)
    phi_t = np.swapaxes(phi, -1, -2)

    # rows of s[k]: mu, C, Q; mu's plane coordinates sit on the last axis
    s = np.empty((grid.size, 3, len(specs), 2, 2))
    s[0, 0] = np.stack(init.mean_plane())  # rows: channel, cols: plane coordinate
    s[0, 1] = init.sigma0().as_array()
    s[0, 2] = 0.0
    for k in range(grid.size - 1):
        s_next = np.matmul(phi[k], s[k], out=s[k + 1])
        s_next[1:] = s_next[1:] @ phi_t[k]
        s_next[1:] += q_h[k]
    c, q = s[:, 1], s[:, 2]
    return (
        np.ascontiguousarray(s[:, 0]),
        0.5 * (c + np.swapaxes(c, -1, -2)),
        0.5 * (q + np.swapaxes(q, -1, -2)),
    )


def moments_ode(spec: ModelSpec, init: MixtureInit, grid) -> list[MomentState]:
    """Moments on a time grid, one ``MomentState`` per grid time.

    Handles any coupling kind; a schedule is held at its step-midpoint
    value over each step, and for constant coupling the result is the
    closed form to rounding.  The grid must be strictly increasing and
    start at 0.  This is ``stacked_moments`` for a stack of one spec.
    """
    mu, c, q = stacked_moments([spec], init, grid)
    return [
        MomentState.from_arrays(t, mu[k, 0], c[k, 0], q[k, 0])
        for k, t in enumerate(np.asarray(grid, dtype=float))
    ]
