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

from .blockmat import SQRT1_2, Block2
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

    def mode_rates(self) -> tuple[float, float]:
        """Decay rates (tau_plus, tau_minus) = -2 (lambda_plus, lambda_minus)
        of the common and difference eigenmodes, lambda_pm = -beta +- g, of a
        stable symmetric spec."""
        if not isinstance(self.coupling, Symmetric):
            raise UnsupportedShape("mode rates require symmetric coupling")
        self.require_stable()
        g = self.coupling.g
        return -2.0 * (-self.beta + g), -2.0 * (-self.beta - g)


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


def _q_parts(beta, ts):
    """The time-only parts (e^{-2 beta t}, u, k, h) of the anisotropic Q(t),
    with a = 2 beta t, u = 1 - e^{-a} and the tails k, h of ``_poly_tails``."""
    a = 2.0 * beta * ts
    decay, k, h = _poly_tails(a)
    return decay, -np.expm1(-a), k, h


def _aniso_q(beta, sw2, g, parts):
    """Anisotropic Q(t) entries (q11, q12, q22) on broadcast arrays of g and
    the time-only ``parts`` of ``_q_parts``, in gamma = g / beta:
    q11 = sW2 u / (2 beta), q12 = sW2 gamma k / (4 beta),
    q22 = q11 + sW2 gamma^2 h / (4 beta).
    Finite wherever gamma^2 h / beta is, also past the overflow of g^2 and
    beta^3.  Halving first rounds as dividing by 2 beta does (outside the
    subnormal range), and does not overflow where 4 beta would.
    """
    _, u, k, h = parts
    gamma = g / beta
    q11 = sw2 * u / 2.0 / beta
    q12 = sw2 * gamma * k / 4.0 / beta
    q22 = sw2 * (u / 2.0 / beta + gamma * gamma * h / 4.0 / beta)
    return q11, q12, q22


def _aniso_pivots(gamma, a, parts, rho_x, rho_y):
    """The LDL^T pivots of the one-way C(t) and Q(t) scaled by 2 beta / sW2,
    on floats or broadcast arrays: (q1, q2, c1 - q1, c2 - q2, l).

    In a = 2 beta t, gamma = g / beta and rho = 2 beta s2 / sW2 per
    channel, with (e^{-a}, u, k, h) the time-only ``parts`` of ``_q_parts``,
    Q^ = [[u, gamma k / 2], [., u + gamma^2 h / 2]] and
    C^ = Q^ + e^{-a} [[rho_x, rho_x gamma a / 2], [., rho_x gamma^2 a^2 / 4 + rho_y]].
    With P = e^{-a} rho_x and w = u h / 2 - k^2 / 4 the pivots are q1 = u,
    q2 = u + gamma^2 w / u, c1 = P + u and c2 = q2 + e^{-a} rho_y
    + gamma^2 P (a u - k)^2 / (4 u c1), the gaps in closed form, and
    l = C^12 / C^11 = gamma (P a + k) / (2 c1).  At u = 0 (t = 0) Q^
    vanishes, and so do w and a u - k: over u there they take their limit 0.
    """
    decay, u, k, h = parts
    p = decay * rho_x
    c1 = p + u
    r = a * u - k
    over_u = u + (u == 0.0)  # u, or 1 where u = 0
    q2 = u + gamma * gamma * ((u * h / 2.0 - k * k / 4.0) / over_u)
    # r^2 is not formed: it may overflow where e^{-a} rho_x underflows to 0,
    # and u c1 may underflow where both are small
    gap2 = decay * rho_y + gamma * gamma * (p / c1 * r * (r / (4.0 * over_u)))
    return u, q2, p, gap2, gamma * (p * a + k) / (2.0 * c1)


def _transition(symmetric: bool, beta, sw2, g, t):
    """The forward transition kernel over a time t at a constant coupling g:
    the entries (a11, a12, a21, a22) of Phi = e^{Mt} and of the noise Q(t),
    on floats or broadcast arrays.

    One-way coupling: Phi = e^{-beta t} [[1, 0], [g t, 1]], Q(t) from
    ``_aniso_q``.  Symmetric coupling: on the eigenmodes, with rates
    lambda_pm = -beta +- g and tau_pm = -2 lambda_pm, e^{lambda_pm t} and
    q_pm = sW2 (1 - e^{-tau_pm t}) / tau_pm (sW2 t where tau_pm t is 0),
    each block [[a, b], [b, a]] with a, b = (a_+ +- a_-) / 2.
    """
    if not symmetric:
        decay = np.exp(-beta * t)
        q11, q12, q22 = _aniso_q(beta, sw2, g, _q_parts(beta, t))
        return (decay, 0.0, decay * (g * t), decay), (q11, q12, q12, q22)
    modes = []
    for lam in (-beta + g, -beta - g):
        x = -2.0 * lam * t
        at_zero = x == 0.0
        tau = np.where(at_zero, 1.0, -2.0 * lam)
        modes.append((np.exp(lam * t), sw2 * np.where(at_zero, t, -np.expm1(-x) / tau)))
    halves = [(0.5 * (plus + minus), 0.5 * (plus - minus)) for plus, minus in zip(*modes)]
    return tuple((a, b, b, a) for a, b in halves)


def _kernel_blocks(spec: ModelSpec, t: float) -> tuple[Block2, Block2]:
    """(Phi, Q) of ``_transition`` at a time t, as blocks of Python floats
    (a numpy scalar would print as np.float64(...))."""
    _require_time(t)
    _require_closed_form(spec)
    symmetric = isinstance(spec.coupling, Symmetric)
    blocks = _transition(symmetric, spec.beta, spec.sigma_w2, spec.coupling.g, t)
    return tuple(Block2(*(float(x) for x in entries)) for entries in blocks)


def mean_at(spec: ModelSpec, mu0, t: float):
    """Propagate a mean pair (mu_x, mu_y), scalars or arrays, through Phi = e^{Mt}."""
    return _kernel_blocks(spec, t)[0].apply(*(np.asarray(mu, dtype=float) for mu in mu0))


def transition_cov(spec: ModelSpec, t: float) -> Block2:
    """Accumulated noise covariance Q(t) of the forward transition kernel."""
    return _kernel_blocks(spec, t)[1]


def diffusion_kernel(spec: ModelSpec, init: MixtureInit, t: float) -> MomentState:
    """Full moment state at time t: the mean plane through Phi, the drifted
    covariance S = Phi Sigma(0) Phi^T, Q(t) and C(t) = S + Q."""
    phi, q = _kernel_blocks(spec, t)
    s = phi.matmul(init.sigma0()).matmul(phi.transpose())
    mux, muy = phi.apply(*init.mean_plane())
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


def kernel_K(spec: ModelSpec, init: MixtureInit, t: float) -> Block2:
    """Closed-form K(t) = C^-1 (M + sW2 C^-1)^-1 C^-1 for anisotropic coupling.

    K = N / (Delta D) on the unscaled C(t), with Delta = det C,
    D = beta^2 Delta - beta sW2 (C11 + C22) + g sW2 C12 + sW2^2 and the
    numerators N_ij below; raises DegenerateDrift when D(t) vanishes.  It
    shares no algebra with the pivot form of kappa in ``speciation``, which
    it checks.
    """
    _require_time(t)
    if not isinstance(spec.coupling, Anisotropic):
        raise UnsupportedShape("kernel_K is the anisotropic closed form")
    beta, g, sw2 = spec.beta, spec.coupling.g, spec.sigma_w2
    c = diffusion_kernel(spec, init, t).c
    c11, c12, c22 = c.a11, c.a12, c.a22
    delta = c11 * c22 - c12 * c12
    dd = beta * beta * delta - beta * sw2 * (c11 + c22) + g * sw2 * c12 + sw2 * sw2
    d_scale = (beta * beta * abs(delta) + beta * sw2 * (abs(c11) + abs(c22))
               + abs(g) * sw2 * abs(c12) + sw2 * sw2)
    if abs(dd) < 1e-12 * d_scale:
        raise DegenerateDrift(t)
    inv = 1.0 / (delta * dd)
    return Block2(
        (sw2 * c22 - beta * (c22 * c22 + c12 * c12) + g * c12 * c22) * inv,
        c12 * (beta * (c11 + c22) - g * c12 - sw2) * inv,
        (beta * c12 * (c11 + c22) - sw2 * c12 - g * c11 * c22) * inv,
        (sw2 * c11 - beta * (c11 * c11 + c12 * c12) + g * c11 * c12) * inv,
    )


# ---------------------------------------------------------------------------
# moments on a time grid: the exact map of each step


def _step_maps(specs, grid: np.ndarray):
    """Per grid step and spec, the exact moment map with the coupling held
    at its value at the step midpoint: Phi = e^{M h} and the noise Q(h)
    gathered over the step, each shaped (steps, cells, 2, 2), from one
    ``_transition`` call per coupling kind.  Each entry reads only its own
    spec and step.
    """
    h_cells = np.diff(grid)[:, None]  # broadcasts against the cell axis
    t_mid = 0.5 * (grid[:-1] + grid[1:])
    g = np.stack([spec.coupling_at(t_mid) for spec in specs], axis=1)
    beta = np.array([spec.beta for spec in specs])
    sw2 = np.array([spec.sigma_w2 for spec in specs])
    symmetric = np.array([isinstance(spec.coupling, Symmetric) for spec in specs])
    phi = np.empty(g.shape + (2, 2))
    q_h = np.empty(g.shape + (2, 2))
    for kind in (False, True):
        cells = symmetric == kind
        if cells.any():
            blocks = _transition(kind, beta[cells], sw2[cells], g[:, cells], h_cells)
            for out, entries in zip((phi, q_h), blocks):
                for (i, j), entry in zip(np.ndindex(2, 2), entries):
                    out[:, cells, i, j] = entry
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
