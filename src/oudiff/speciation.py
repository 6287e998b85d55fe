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
    _aniso_pivots,
    _mode_kernel,
    _q_parts,
    _require_mode_kernels,
    _require_time,
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
    bound s2 < sW2/(beta + |g|) (strict).
    """

    stable: bool


def _kappa_form(spec: ModelSpec, init: MixtureInit):
    """kappa's closed form for the spec's coupling kind, and the error of a
    time at which it is meaningless (UnstableAtTime for symmetric, where
    tail confinement fails; DegenerateDrift for anisotropic, where D(t)
    vanishes).

    The form is curried on the times: ``at(ts)`` computes the time-only
    parts once, for a float or an array of times, and returns
    ``(g, stats) -> (kappa, bad)`` over broadcast couplings and channel
    statistics ``stats = (mxx, myy, mxy)``.
    """
    beta, sw2 = spec.beta, spec.sigma_w2
    if isinstance(spec.coupling, Symmetric):
        _require_mode_kernels(spec, init)
        s2 = init.sigma2_x

        def at(ts):
            return lambda g, stats: _symmetric_kappa(beta, sw2, s2, g, ts, stats)

        return at, UnstableAtTime
    if isinstance(spec.coupling, Anisotropic):
        sx2, sy2 = init.sigma2_x, init.sigma2_y

        def at(ts):
            parts = _q_parts(beta, ts)
            return lambda g, stats: _aniso_kappa(beta, sw2, sx2, sy2, g, ts, parts, stats)

        return at, DegenerateDrift
    raise UnsupportedShape("kappa needs a constant coupling kind")


def kappa(spec: ModelSpec, init: MixtureInit, t: float) -> float:
    """Bifurcation parameter kappa(t), per dimension, at one time: a view of
    ``_kappa_grid``.  Raises InvalidArgument unless t is finite and >= 0,
    UnstableAtTime where symmetric tail confinement fails at t and
    DegenerateDrift where the anisotropic D(t) vanishes."""
    _require_time(t)
    return _kappa_grid(spec, init, np.array([t], dtype=float))[0].item()


def _symmetric_kappa(beta, sw2, s2, g, ts, stats):
    """Symmetric kappa(t) on the eigenmodes, on floats or broadcast arrays.

    kappa = sW2 * (SNR_plus + SNR_minus) with
    SNR_pm = e^{-tau_pm t} m_pm^2 / (c_pm (lambda_pm c_pm + sW2)),
    lambda_pm = -beta +- g, tau_pm = -2 lambda_pm and
    m_pm^2 = (mxx + myy)/2 +- mxy from ``stats = (mxx, myy, mxy)``.
    Returns kappa and the mask of times at which tail confinement fails
    (c_pm (lambda_pm c_pm + sW2) <= 0), where kappa is meaningless.
    """
    mxx, myy, mxy = stats
    half = 0.5 * (mxx + myy)
    kappa_t, bad = 0.0, False
    for lam, m2 in ((-beta + g, half + mxy), (-beta - g, half - mxy)):
        decay, c = _mode_kernel(s2, sw2, -2.0 * lam, ts)
        denom = c * (lam * c + sw2)
        bad = bad | (denom <= 0.0)
        kappa_t = kappa_t + sw2 * decay * m2 / denom
    return kappa_t, bad


def _kappa0_terms(spec: ModelSpec, init: MixtureInit, mxx: float, myy: float):
    """(r, first, scale) of the anisotropic kappa(0) = first - r g mxy / scale:
    r = sW2/s2, first = r (mxx + myy) / (s2 (r - beta)), scale = s2 (r - beta)^2.
    Raises DegenerateRate when r coincides with beta."""
    s2 = init.sigma2_x
    r = spec.sigma_w2 / s2
    beta = spec.beta
    if abs(r - beta) <= 1e-12 * max(r, beta):
        raise DegenerateRate(f"sW2/s2 = {r!r} coincides with beta = {beta!r}")
    # a product, not ** 2, which raises OverflowError past the float range
    return r, r * (mxx + myy) / (s2 * (r - beta)), s2 * ((r - beta) * (r - beta))


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
    at, _ = _kappa_form(spec, init)  # refuses unequal variances
    # see StabilityReport for why t = 0 decides; at the exact stability
    # boundary denom == 0, reported through bad; only the mask is read, so
    # an overflow of kappa's value is harmless
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _, bad = at(0.0)(spec.coupling.g, init.channel_stats())
    return StabilityReport(stable=spec.is_stable and not bad)


@functools.lru_cache(maxsize=16)
def _scan_grid(t_max: float, halvings: int = 40) -> np.ndarray:
    """Linear scan grid refined toward t=0 by ``halvings`` factors of 2
    (cached, read-only)."""
    linear = np.linspace(0.0, t_max, _GRID_POINTS)
    geometric = np.ldexp(t_max, -np.arange(1, halvings + 1))
    grid = np.unique(np.concatenate([linear, geometric]))
    grid.flags.writeable = False
    return grid


def _aniso_kappa(beta, sw2, sx2, sy2, g, ts, parts, stats):
    """Anisotropic kappa(t) on the scaled pivots of C(t), on broadcast arrays.

    In a = 2 beta t and gamma = g / beta, with M^ = M / beta and C(t) and
    mu(t) scaled by 2 beta / sW2 and its root,
    kappa = 2 mu^T (M^ C^ + 2)^-1 C^-1 mu^.  On the LDL^T pivots c1, c2
    and l of C^ (``_aniso_pivots``) and nu = L^-1 mu^, that is
    kappa = 2 [e11 nu1^2 + (2 l - gamma) nu1 nu2 + e22 nu2^2] / D^ with
    e11 = (2 - c2) / c1, e22 = (2 - c1 - l (l - gamma) c1) / c2 and
    D^ = det(M^ C^ + 2) = (2 - c1)(2 - c2) - 2 l (l - gamma) c1, the scaled
    D(t); no product of more than two pivots is formed.  In the means at
    t = 0, nu = sqrt(f) (mu_x, mu_y + lam mu_x) with f = (2 beta / sW2) e^{-a}
    and lam = g t - l = gamma (a u - k) / (2 c1), so the statistics
    ``stats = (mxx, myy, mxy)`` enter through three coefficients, into
    which f is folded.

    ``parts`` are the time-only parts of Q(t) at ``ts`` (``_q_parts``),
    which a scan computes once for all its couplings.  The pivots and
    coefficients take the broadcast shape of ``g`` and ``ts``; only the
    last sum broadcasts further against the statistics.  Returns kappa and
    the mask, in the shape of (g, ts), of times at which D(t) vanishes and
    the drift operator is degenerate.
    """
    # kappa is meaningless where D(t) vanishes; callers discard those points.
    # A +-inf or nan kappa still compares with 1 as it should, and
    # _scan_outcome refuses one that would be printed
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale, gamma, a = 2.0 * beta / sw2, g / beta, 2.0 * beta * ts
        q1, q2, gap1, gap2, ell = _aniso_pivots(gamma, a, parts, scale * sx2, scale * sy2)
        c1, c2 = q1 + gap1, q2 + gap2
        skew = ell * (ell - gamma) * c1
        d = (2.0 - c1) * (2.0 - c2) - 2.0 * skew
        # the sum of |terms| of D^: kernel_K's degeneracy scale, scaled
        d_scale = (2.0 + c1) * (2.0 + c2) + 2.0 * abs(ell * c1) * (abs(gamma) + abs(ell))
        f = scale * parts[0]
        e11, e22 = f * ((2.0 - c2) / c1), f * ((2.0 - c1 - skew) / c2)
        e12 = f * (2.0 * ell - gamma)
        lam = gamma * (a * q1 - parts[2]) / (2.0 * c1)
        mxx, myy, mxy = stats
        quad = (e11 + lam * (e12 + lam * e22)) * mxx + (e12 + 2.0 * lam * e22) * mxy
        return 2.0 * (quad + e22 * myy) / d, abs(d) < 1e-12 * d_scale


def _kappa_grid(spec: ModelSpec, init: MixtureInit, ts: np.ndarray) -> np.ndarray:
    """kappa over an array of times, by the closed form of the spec's
    coupling kind (``_kappa_form``); raises its error at the first bad time."""
    at, bad_time = _kappa_form(spec, init)
    # kappa is meaningless at a bad time (a symmetric denominator may be 0
    # there): reported through bad; past the float range it is inf or nan,
    # which callers see in the values
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values, bad = at(ts)(spec.coupling.g, init.channel_stats())
    if np.any(bad):
        raise bad_time(float(ts[np.argmax(bad)]))
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


def _search_grid(spec: ModelSpec, t_max_search: float | None) -> np.ndarray:
    """The scan grid of the window (0, t_max_search], 10 / beta by default.

    Its geometric refinement reaches (10 / beta) 2^-40, as the default
    window's does: a wider window takes ceil(log2(t_max beta / 10)) more
    halvings, summed as logarithms so that no product of inputs overflows.
    """
    model_window = 10.0 / spec.beta
    if t_max_search is None:
        if model_window == math.inf:  # beta subnormal
            raise InvalidArgument(
                f"the default window 10 / beta overflows at beta={spec.beta!r}; "
                "set t_max_search"
            )
        t_max = model_window
    elif t_max_search <= 0.0:
        raise InvalidArgument("t_max_search must be positive")
    elif not math.isfinite(t_max_search):
        raise InvalidArgument("t_max_search must be finite")
    else:
        t_max = float(t_max_search)
    halvings = 40
    if t_max > model_window:
        halvings += math.ceil(math.log2(t_max) + math.log2(spec.beta) - math.log2(10.0))
    return _scan_grid(t_max, halvings)


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
    if not (abs(kappa0) < math.inf and sup_kappa < math.inf):
        return InvalidArgument(
            "kappa is infinite on the scan grid; the closed forms left the float range"
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


def _speciation_cells(form, gs, stats, grid: np.ndarray) -> list:
    """Speciation for every pair of a coupling in ``gs`` and channel
    statistics ``(mxx, myy, mxy)`` in ``stats``, on the kappa form and
    bad-time error ``form`` of ``_kappa_form`` and the scan ``grid`` of
    ``_search_grid``.

    The form broadcasts over couplings, times and statistics, so one grid
    scan per coupling covers all statistics at once, and its time-only
    parts on the grid serve every coupling.  One ``_bisect`` call then
    sharpens every bracket, each cell stopping on its own once
    |kappa - 1| <= 0.1 * KAPPA_TOL or after 80 halvings: elementwise on
    arrays, or on Python floats for a lone cell, where that is several
    times faster.  A cell that meets a bad time on the grid or at a
    midpoint stops there with the form's error; one still above the
    tolerance after 80 halvings, as where the crossing lies far below a
    bracket of many decades, is an InvalidArgument, not a non-root.
    Returns a SpeciationResult or the cell's error for each pair, in
    (g, stats) order.
    """
    at, bad_time = form
    columns = np.array(stats, dtype=float).reshape(-1, 3).T[:, :, None]
    outcomes = []
    pending = []  # (cell, g, stats index, kappa0, sup_kappa, bracket)
    # past the float range the closed forms hold inf or NaN, which
    # _scan_outcome refuses: numpy need not warn first; a bad time, where a
    # denominator may vanish, is reported through bad
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        on_grid = at(grid)
        for g in gs:
            values, bad = on_grid(g, columns)
            if np.any(bad):
                outcomes.extend([bad_time(float(grid[np.argmax(bad)]))] * len(stats))
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
        if len(cell) == 1:
            (g,), mean_stats = g, stats[j[0]]
            lo, hi = grid[bracket[0] - 1 : bracket[0] + 1].tolist()
        else:
            g, bracket = np.array(g), np.array(bracket)
            mean_stats, lo, hi = columns[:, list(j), 0], grid[bracket - 1], grid[bracket]

        def residual(t):
            # NaN marks a bad midpoint, where the cell's bisection stops
            values, bad = at(t)(g, mean_stats)
            if isinstance(t, float):
                return math.nan if bad else float(values) - 1.0
            return np.where(bad, np.nan, values - 1.0)

        t_root, err = _bisect(residual, lo, hi, 0.1 * KAPPA_TOL, 80)
    for c, t, e, k0, sk in zip(
        cell, np.atleast_1d(t_root).tolist(), np.atleast_1d(err).tolist(), kappa0, sup_kappa
    ):
        if math.isnan(e):
            outcomes[c] = bad_time(t)
        elif e > 0.1 * KAPPA_TOL:
            outcomes[c] = InvalidArgument(
                f"kappa = 1 not resolved after 80 halvings: |kappa - 1|={e!r} at t={t!r}"
            )
        else:
            outcomes[c] = SpeciationResult(
                t_s=t, kappa0=k0, sup_kappa=sk, regime=REGIME_SPECIATES
            )
    return outcomes


def speciation_time(
    spec: ModelSpec,
    init: MixtureInit,
    t_max_search: float | None = None,
) -> SpeciationResult:
    """Largest root of kappa(t) = 1 in (0, t_max_search].

    A grid scan (512 linear points plus geometric refinement toward zero,
    ``_search_grid``) brackets the highest crossing, which bisection then
    sharpens to |kappa - 1| <= 1e-10, as one cell of ``_speciation_cells``.
    Returns the no-speciation regime when the grid supremum of kappa stays
    below 1, and the unstable regime at t = 0 when the symmetric spec has
    |g| >= beta or the scan finds tail confinement failing at its first
    point, t = 0 (see StabilityReport: a violation anywhere is one there).
    """
    form = _kappa_form(spec, init)  # refuses a non-constant coupling
    grid = _search_grid(spec, t_max_search)
    outcome = UnstableAtTime(0.0)  # |g| >= beta: no stationary law
    if spec.is_stable:
        (outcome,) = _speciation_cells(form, [spec.coupling.g], [init.channel_stats()], grid)
    if isinstance(outcome, UnstableAtTime) and outcome.t == 0.0:
        return SpeciationResult(
            t_s=None, kappa0=math.nan, sup_kappa=math.nan, regime=REGIME_UNSTABLE,
            unstable_t=0.0,
        )
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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
    tau_p, tau_m = spec.mode_rates()
    tau = tau_p if mode == "+" else tau_m
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
    denom = r * mx_my * c  # 0 where r mx my underflows, as if g were past the range
    g = (first - 1.0) * scale / denom if denom else math.inf
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
    (``_speciation_cells``) and reported in (g, theta) order; per-cell
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
        grid = _search_grid(spec_template, t_max_search)
    except InvalidArgument as exc:  # recorded in every cell like any cell error
        outcomes = [exc] * (len(gs) * len(thetas))
    else:
        form = _kappa_form(replace(spec_template, coupling=Anisotropic(0.0)), init_template)
        outcomes = _speciation_cells(
            form, gs, [init.channel_stats() for init in inits], grid
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
