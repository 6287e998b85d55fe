"""Speciation diagnostics: kappa(t), speciation times, stability, phase maps.

The reverse drift acquires extra fixed points through a pitchfork
bifurcation when the per-dimension quadratic form

    kappa(t) = sW2 * mu(t)^T C(t)^-1 (M + sW2 C(t)^-1)^-1 C(t)^-1 mu(t)

crosses 1.  The speciation time is the largest root of kappa(t) = 1;
parameters with sup_t kappa <= 1 never leave the noise regime.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .blockmat import Block2, block_inverse
from .errors import (
    DegenerateDrift,
    DegenerateRate,
    InvalidArgument,
    UnstableAtTime,
    UnsupportedShape,
)
from .moments import (
    Anisotropic,
    MixtureInit,
    ModeMeans,
    ModelSpec,
    Symmetric,
    _aniso_q,
    _k_parts,
    _mode_kernel,
    _q_parts,
    _require_mode_kernels,
    diffusion_kernel,
    kernel_K,
)

REGIME_SPECIATES = "speciates"
REGIME_NO_SPECIATION = "no-speciation"
REGIME_UNSTABLE = "unstable"

KAPPA_TOL = 1e-10
SUP_TOL = 1e-12
# evenly spaced times on [0, t_max] of the linear part of the speciation
# scan grid
_GRID_POINTS = 512


@dataclass(frozen=True)
class SpeciationResult:
    t_s: float | None
    kappa0: float
    sup_kappa: float
    regime: str
    unstable_t: float | None = None


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the confinement check for symmetric coupling.

    ``stable`` requires beta > |g| and the tail condition
    c_pm (lambda_pm c_pm + sW2) > 0 of both modes.  c_pm(t) moves
    monotonically from c_pm(0) = s2 toward sW2/tau_pm, which satisfies the
    condition, so a violation anywhere is a violation at t = 0.  There the
    condition reads s2 < sW2/tau_pm for both modes, which is the closed-form
    bound s2 < sW2/(beta + |g|) (strict): ``sufficient`` is that bound, the
    same predicate, and ``first_violation`` is 0.0 when it fails, else None.
    """

    stable: bool

    @property
    def sufficient(self) -> bool:
        return self.stable

    @property
    def first_violation(self) -> float | None:
        return None if self.stable else 0.0


def _quad_form(block: Block2, stats: tuple[float, float, float]) -> float:
    mxx, myy, mxy = stats
    return block.a11 * mxx + (block.a12 + block.a21) * mxy + block.a22 * myy


def kappa(spec: ModelSpec, init: MixtureInit, t: float) -> float:
    """Bifurcation parameter kappa(t), per dimension.

    Symmetric coupling is evaluated through the generic block composition
    (it matches the eigenmode closed form); anisotropic coupling goes
    through the closed-form kernel.  Raises UnstableAtTime when symmetric
    tail confinement (``_symmetric_kappa``) fails at t.
    """
    ms = diffusion_kernel(spec, init, t)
    stats = ms.mean_stats()
    sw2 = spec.sigma_w2
    if isinstance(spec.coupling, Symmetric):
        # at the exact stability boundary denom == 0: reported through bad
        with np.errstate(divide="ignore", invalid="ignore"):
            _, bad = _symmetric_kappa(spec, init)(t)
        if bad:
            raise UnstableAtTime(t)
        cinv = block_inverse(ms.c)
        inner = spec.relaxation().add(cinv.scale(sw2))
        a = block_inverse(inner).matmul(cinv.scale(sw2))
        return _quad_form(cinv.matmul(a), stats)
    if isinstance(spec.coupling, Anisotropic):
        k = kernel_K(spec, init, t)
        return sw2 * _quad_form(k, stats)
    raise UnsupportedShape("kappa needs a constant coupling kind")


def _symmetric_kappa(spec: ModelSpec, init: MixtureInit):
    """Eigenmode closed form of kappa as a function of time alone.

    kappa = sW2 * (SNR_plus + SNR_minus) with
    SNR_pm = e^{-tau_pm t} m_pm^2 / (c_pm (lambda_pm c_pm + sW2)).  The
    eigenmodes and mode norms are computed once; the returned
    ``at(ts) -> (kappa, bad)`` takes a time or an array of times, and
    ``bad`` marks the times at which tail confinement fails
    (c_pm (lambda_pm c_pm + sW2) <= 0), where kappa is meaningless.
    """
    _require_mode_kernels(spec, init)
    modes = spec.modes()
    mp2, mm2 = init.mode_norms()
    s2 = init.sigma2_x
    sw2 = spec.sigma_w2
    terms = (
        (modes.tau_plus, modes.lambda_plus, mp2),
        (modes.tau_minus, modes.lambda_minus, mm2),
    )

    def at(ts):
        kappa_t, bad = 0.0, False
        for tau, lam, m2 in terms:
            decay, c = _mode_kernel(s2, sw2, tau, ts)
            denom = c * (lam * c + sw2)
            bad = bad | (denom <= 0.0)
            kappa_t = kappa_t + sw2 * decay * m2 / denom
        return kappa_t, bad

    return at


def _kappa0_terms(spec: ModelSpec, init: MixtureInit, mxx: float, myy: float):
    """(r, first, scale) of the anisotropic kappa(0) = first - r g mxy / scale:
    r = sW2/s2, first = r (mxx + myy) / (s2 (r - beta)), scale = s2 (r - beta)^2.
    Raises DegenerateRate when r coincides with beta."""
    s2 = init.sigma2_x
    r = spec.sigma_w2 / s2
    beta = spec.beta
    if abs(r - beta) <= 1e-12 * max(r, beta):
        raise DegenerateRate(f"sW2/s2 = {r!r} coincides with beta = {beta!r}")
    return r, r * (mxx + myy) / (s2 * (r - beta)), s2 * (r - beta) ** 2


def kappa0_aniso(spec: ModelSpec, init: MixtureInit) -> float:
    """kappa(0) for anisotropic coupling with equal channel variances.

    kappa(0) = r (m_x^2 + m_y^2) / (s2 (r - beta))
             - r g m_x m_y cos(theta) / (s2 (r - beta)^2),   r = sW2/s2.
    """
    if not isinstance(spec.coupling, Anisotropic):
        raise UnsupportedShape("kappa0_aniso requires anisotropic coupling")
    if not init.equal_variance:
        raise UnsupportedShape("kappa0_aniso requires sigma_x == sigma_y")
    mxx, myy, mxy = init.channel_stats()
    r, first, scale = _kappa0_terms(spec, init, mxx, myy)
    return first - r * spec.coupling.g * mxy / scale


def stability_check(spec: ModelSpec, init: MixtureInit) -> StabilityReport:
    """Confinement check for symmetric coupling, decided at t = 0."""
    if not isinstance(spec.coupling, Symmetric):
        raise UnsupportedShape("stability check applies to symmetric coupling")
    kappa_at = _symmetric_kappa(spec, init)  # refuses unequal variances
    # see StabilityReport for why t = 0 decides; at the exact stability
    # boundary denom == 0, reported through bad
    with np.errstate(divide="ignore", invalid="ignore"):
        return StabilityReport(stable=spec.is_stable and not kappa_at(0.0)[1])


@functools.lru_cache(maxsize=16)
def _scan_grid(t_max: float) -> np.ndarray:
    """Linear scan grid refined geometrically toward t=0 (cached, read-only)."""
    linear = np.linspace(0.0, t_max, _GRID_POINTS)
    geometric = t_max * 0.5 ** np.arange(1, 41)
    grid = np.unique(np.concatenate([linear, geometric]))
    grid.flags.writeable = False
    return grid


def _aniso_kappa(beta, sw2, sx2, sy2, g, ts, parts, stats):
    """Anisotropic kappa(t) through the closed-form K(t), on broadcast arrays.

    ``parts`` are the time-only parts of Q(t) at ``ts`` (``_q_parts``),
    which a scan computes once for all its couplings.  C(t) and the parts
    of K(t) (``_k_parts``) take the broadcast shape of ``g`` and ``ts``;
    only the mean terms broadcast further against the channel statistics
    ``stats = (mxx, myy, mxy)``.  Returns kappa and the mask, in the shape
    of (g, ts), of times at which D(t) vanishes and the drift operator is
    degenerate.
    """
    q11, q12, q22 = _aniso_q(beta, sw2, g, parts)
    decay2 = parts[0]
    c11 = decay2 * sx2 + q11
    c12 = decay2 * g * ts * sx2 + q12
    c22 = decay2 * (sy2 + g * g * ts * ts * sx2) + q22
    (n11, n12, n21, n22), denom, degenerate = _k_parts(beta, sw2, g, c11, c12, c22)
    mxx, myy, mxy = stats
    mxx_t = decay2 * mxx
    mxy_t = decay2 * (mxy + g * ts * mxx)
    myy_t = decay2 * (myy + 2.0 * g * ts * mxy + g * g * ts * ts * mxx)
    quad = n11 * mxx_t + (n12 + n21) * mxy_t + n22 * myy_t
    # kappa is meaningless where D(t) vanishes; callers discard those points
    with np.errstate(divide="ignore", invalid="ignore"):
        return sw2 * quad * (1.0 / denom), degenerate


def _kappa_grid(spec: ModelSpec, init: MixtureInit, ts: np.ndarray) -> np.ndarray:
    """Vectorized kappa over a time grid via the closed forms."""
    if isinstance(spec.coupling, Symmetric):
        # at the exact stability boundary denom == 0: reported through bad
        with np.errstate(divide="ignore", invalid="ignore"):
            values, bad = _symmetric_kappa(spec, init)(ts)
        if np.any(bad):
            raise UnstableAtTime(float(ts[np.argmax(bad)]))
        return values
    if not isinstance(spec.coupling, Anisotropic):
        raise UnsupportedShape("kappa needs a constant coupling kind")
    values, bad = _aniso_kappa(
        spec.beta, spec.sigma_w2, init.sigma2_x, init.sigma2_y, spec.coupling.g,
        ts, _q_parts(spec.beta, ts), init.channel_stats(),
    )
    if np.any(bad):
        raise DegenerateDrift(float(ts[np.argmax(bad)]))
    return values


def _bisect(f, lo, hi, tol: float, max_iter: int):
    """Bisect f with f(lo) >= 0 >= f(hi); returns the last midpoint and |f| there.

    ``lo`` and ``hi`` are floats, or arrays of brackets that f maps
    elementwise.  A bracket stops at its first midpoint where |f| <= tol
    or f is NaN, closing onto that midpoint so that later halvings keep
    it; f(mid) >= 0 moves lo.  The loop ends once every bracket has
    stopped or after ``max_iter`` halvings.  Float brackets stay on
    Python bools, so f should return Python floats for them.
    """
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        val = f(mid)
        stop = (abs(val) <= tol) | (val != val)
        if stop if isinstance(stop, bool) else stop.all():
            break
        up = stop | (val >= 0.0)
        down = stop | (val < 0.0)
        lo = up * mid + (1 - up) * lo
        hi = down * mid + (1 - down) * hi
    return mid, abs(val)


def _search_window(spec: ModelSpec, t_max_search: float | None) -> float:
    if t_max_search is None:
        return 10.0 / spec.beta
    if t_max_search <= 0.0:
        raise InvalidArgument("t_max_search must be positive")
    if not math.isfinite(t_max_search):
        raise InvalidArgument("t_max_search must be finite")
    return float(t_max_search)


def _scan(values: np.ndarray):
    """Reduce kappa on the scan grid along its last axis.

    Returns kappa(0), the grid supremum, whether kappa >= 1 at the end of
    the window, and the index i of the last grid step with kappa >= 1 at
    grid[i - 1] and kappa < 1 at grid[i] (0 when there is none).
    """
    above = values >= 1.0
    cross = above[..., :-1] & ~above[..., 1:]
    last = cross.shape[-1] - np.argmax(cross[..., ::-1], axis=-1)
    bracket = np.where(cross.any(axis=-1), last, 0)
    return values[..., 0], values.max(axis=-1), above[..., -1], bracket


def _scan_outcome(kappa0: float, sup_kappa: float, above_end: bool, bracket: int):
    """The result or error a scan settles on its own; None when bisection must."""
    if sup_kappa != sup_kappa:  # the grid maximum carries any nan
        return InvalidArgument(
            "kappa is nan on the scan grid; the closed forms left the float range"
        )
    if sup_kappa <= 1.0 + SUP_TOL:
        return SpeciationResult(
            t_s=None, kappa0=kappa0, sup_kappa=sup_kappa, regime=REGIME_NO_SPECIATION
        )
    if bracket:
        return None
    if above_end:
        return InvalidArgument(
            "kappa > 1 at the end of the search window; increase t_max_search"
        )
    return InvalidArgument("no kappa = 1 crossing found in the window")


def _aniso_speciation(
    spec_template: ModelSpec,
    init_template: MixtureInit,
    gs,
    stats,
    t_max_search: float,
) -> list:
    """Anisotropic speciation for every pair of a coupling in ``gs`` and
    channel statistics ``(mxx, myy, mxy)`` in ``stats``.

    C(t), D(t) and N_ij depend on the coupling and time only, so one grid
    scan per coupling covers all statistics at once, and the time-only
    parts of Q(t) on the grid serve every coupling.  One ``_bisect`` call
    then sharpens every bracket elementwise, each cell stopping on its own
    once |kappa - 1| <= 0.1 * KAPPA_TOL or after 80 halvings; a cell whose
    midpoint is degenerate stops there with DegenerateDrift.
    Returns a SpeciationResult or the cell's error for each pair, in
    (g, stats) order.
    """
    beta, sw2 = spec_template.beta, spec_template.sigma_w2
    sx2, sy2 = init_template.sigma2_x, init_template.sigma2_y
    grid = _scan_grid(t_max_search)
    columns = np.array(stats, dtype=float).reshape(-1, 3).T[:, :, None]
    outcomes = []
    pending = []  # (cell, g, stats index, kappa0, sup_kappa, bracket)
    # past the float range (2 beta overflows near 9e307) the closed forms
    # hold NaN, which _scan_outcome refuses: numpy need not warn first
    with np.errstate(invalid="ignore"):
        grid_parts = _q_parts(beta, grid)
        for g in gs:
            values, bad = _aniso_kappa(beta, sw2, sx2, sy2, g, grid, grid_parts, columns)
            if np.any(bad):
                outcomes.extend(
                    [DegenerateDrift(float(grid[np.argmax(bad)]))] * len(stats)
                )
                continue
            for j, scanned in enumerate(zip(*(r.tolist() for r in _scan(values)))):
                outcome = _scan_outcome(*scanned)
                if outcome is None:
                    kappa0, sup_kappa, _, bracket = scanned
                    pending.append((len(outcomes), g, j, kappa0, sup_kappa, bracket))
                outcomes.append(outcome)
    if not pending:
        return outcomes

    cell, g, j, kappa0, sup_kappa, bracket = zip(*pending)
    g, bracket = np.array(g), np.array(bracket)
    mean_stats = columns[:, list(j), 0]

    def residual(t):
        # NaN marks a degenerate midpoint, where the cell's bisection stops
        values, bad = _aniso_kappa(beta, sw2, sx2, sy2, g, t, _q_parts(beta, t), mean_stats)
        return np.where(bad, np.nan, values - 1.0)

    t_root, err = _bisect(
        residual, grid[bracket - 1], grid[bracket], 0.1 * KAPPA_TOL, 80
    )
    for c, t, e, k0, sk in zip(cell, t_root.tolist(), err.tolist(), kappa0, sup_kappa):
        outcomes[c] = DegenerateDrift(t) if math.isnan(e) else SpeciationResult(
            t_s=t, kappa0=k0, sup_kappa=sk, regime=REGIME_SPECIATES
        )
    return outcomes


def speciation_time(
    spec: ModelSpec,
    init: MixtureInit,
    t_max_search: float | None = None,
) -> SpeciationResult:
    """Largest root of kappa(t) = 1 in (0, t_max_search].

    A grid scan (512 linear points plus geometric refinement near zero)
    brackets the highest crossing, which bisection then sharpens to
    |kappa - 1| <= 1e-10.  Returns the no-speciation regime when the grid
    supremum of kappa stays below 1, and the unstable regime at t = 0 when
    ``stability_check`` finds the symmetric spec unstable (|g| >= beta, or
    tail confinement fails).
    """
    t_max_search = _search_window(spec, t_max_search)
    if isinstance(spec.coupling, Anisotropic):
        (outcome,) = _aniso_speciation(
            spec, init, [spec.coupling.g], [init.channel_stats()], t_max_search
        )
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    if not stability_check(spec, init).stable:
        # see StabilityReport: confinement fails at t = 0 when anywhere
        return SpeciationResult(
            t_s=None,
            kappa0=float("nan"),
            sup_kappa=float("nan"),
            regime=REGIME_UNSTABLE,
            unstable_t=0.0,
        )
    grid = _scan_grid(t_max_search)
    values = _kappa_grid(spec, init, grid)
    kappa0, sup_kappa, above_end, bracket = (r.item() for r in _scan(values))
    outcome = _scan_outcome(kappa0, sup_kappa, above_end, bracket)
    if isinstance(outcome, Exception):
        raise outcome
    if outcome is not None:
        return outcome

    # the scan saw no bad time, and bad times start at t = 0 when there
    # are any (see StabilityReport), so the bracket holds none
    kappa_at = _symmetric_kappa(spec, init)
    t_root, _ = _bisect(
        lambda t: float(kappa_at(t)[0]) - 1.0,
        grid[bracket - 1].item(), grid[bracket].item(), 0.1 * KAPPA_TOL, 80,
    )
    return SpeciationResult(
        t_s=t_root, kappa0=kappa0, sup_kappa=sup_kappa, regime=REGIME_SPECIATES
    )


def speciation_time_pure_mode(
    spec: ModelSpec, init: MixtureInit, mode: str
) -> float:
    """Closed-form speciation time when only one eigenmode carries signal.

    With x = e^{-tau t}, kappa = 1 reduces to the quadratic
    B^2 x^2 + (2 sW2 m^2 / tau) x - (sW2/tau)^2 = 0 with
    B = s2 - sW2/tau; the positive root gives
    e^{-tau t_S} = (sW2/tau) (sqrt(m^4 + B^2) - m^2) / B^2.
    The degenerate B = 0 case falls back to bisection.
    """
    if mode not in ("+", "-"):
        raise InvalidArgument(f"mode must be '+' or '-', got {mode!r}")
    if not isinstance(spec.coupling, Symmetric):
        raise UnsupportedShape("pure-mode closed form requires symmetric coupling")
    mp2, mm2 = init.mode_norms()
    active, idle = (mp2, mm2) if mode == "+" else (mm2, mp2)
    if active <= 0.0 or idle > 1e-15 * max(active, 1.0):
        raise InvalidArgument(
            "pure-mode form needs exactly one nonzero mode norm matching "
            f"mode {mode!r}"
        )
    modes = spec.modes()
    tau = modes.tau_plus if mode == "+" else modes.tau_minus
    s2 = init.sigma2_x
    sw2 = spec.sigma_w2
    b = s2 - sw2 / tau
    if abs(b) < 1e-10:
        result = speciation_time(spec, init)
        if result.t_s is None:
            raise InvalidArgument("no speciation time exists for these parameters")
        return result.t_s
    m2 = active
    x = (sw2 / tau) * (math.sqrt(m2 * m2 + b * b) - m2) / (b * b)
    if not 0.0 < x < 1.0:
        raise InvalidArgument(
            "closed form yields no positive speciation time (kappa(0) <= 1)"
        )
    return -math.log(x) / tau


def g_crit_aligned(
    spec_template: ModelSpec, init: MixtureInit, theta: float
) -> float | None:
    """Coupling at which kappa(0) = 1 for a given angle, when cos(theta) > 0."""
    c = math.cos(theta)
    if c <= 1e-12:
        return None
    mxx, myy, _ = init.channel_stats()
    mx_my = math.sqrt(mxx * myy)
    if mx_my <= 0.0:
        return None
    try:
        r, first, scale = _kappa0_terms(spec_template, init, mxx, myy)
    except DegenerateRate:
        return None
    g = (first - 1.0) * scale / (r * mx_my * c)
    return g if math.isfinite(g) and g > 0.0 else None


@dataclass(frozen=True)
class PhaseCell:
    g: float
    theta: float
    result: SpeciationResult | None
    g_crit: float | None
    error: str | None = None


def phase_diagram(
    spec_template: ModelSpec,
    init_template: MixtureInit,
    g_grid,
    theta_grid,
    t_max_search: float | None = None,
) -> list[PhaseCell]:
    """Sweep speciation over a (g, theta) grid with anisotropic coupling.

    All cells are solved together in one batched scan and bisection
    (``_aniso_speciation``) and reported in (g, theta) order; per-cell
    failures are recorded in the cell rather than aborting the sweep.
    Each cell also carries the kappa(0) = 1 boundary estimate
    g_crit(theta) where cos(theta) > 0.
    """
    if isinstance(init_template.mean_spec, ModeMeans):
        raise UnsupportedShape("phase diagram sweeps angled means")
    # replace() runs the constructors' validation on every g and theta
    gs = [
        replace(spec_template, coupling=Anisotropic(float(g))).coupling.g
        for g in g_grid
    ]
    inits = [
        replace(init_template, mean_spec=replace(init_template.mean_spec, theta=float(theta)))
        for theta in theta_grid
    ]
    thetas = [init.mean_spec.theta for init in inits]
    g_crits = [
        g_crit_aligned(spec_template, init, theta) for init, theta in zip(inits, thetas)
    ]
    try:
        window = _search_window(spec_template, t_max_search)
    except InvalidArgument as exc:  # recorded in every cell like any cell error
        outcomes = [exc] * (len(gs) * len(thetas))
    else:
        outcomes = _aniso_speciation(
            spec_template, init_template, gs,
            [init.channel_stats() for init in inits], window,
        )
    cells = []
    for (g, (theta, gc)), outcome in zip(
        itertools.product(gs, zip(thetas, g_crits)), outcomes
    ):
        if isinstance(outcome, Exception):
            cells.append(PhaseCell(g, theta, None, gc, error=str(outcome)))
        else:
            cells.append(PhaseCell(g, theta, outcome, gc))
    return cells
