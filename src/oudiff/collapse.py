"""Condensation (collapse) machinery for the coupled model.

The transition kernel energies behave as i.i.d. levels of a random energy
model; collapse is the condensation point of that model at inverse
temperature 1.  With chi_pm(t) = (s2/sW2) tau_pm / (e^{tau_pm t} - 1) the
scaled cumulant generating function is

    L_t(b) = -1/4 log(1 + b chi_+) - 1/4 log(1 + b chi_-)
             - b (1 + chi_+) / (4 (1 + b chi_+))
             - b (1 + chi_-) / (4 (1 + b chi_-)),

whose saddle at b = 1 gives -L'_t(1) = 1/2 identically and reduces the
collapse condition to the transcendental equation

    (1 + chi_+(t_C)) (1 + chi_-(t_C)) = n^{2/d} = e^{4 alpha}.

Equivalent determinant and Schur-complement forms cover the anisotropic
joint and conditional transitions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import (
    CgfDomainError,
    InvalidArgument,
    NoCollapse,
    UnsupportedShape,
)
from .moments import (
    Anisotropic,
    MixtureInit,
    ModelSpec,
    Scheduled,
    Symmetric,
    _aniso_pivots,
    _mode_kernel,
    _q_parts,
)
from .speciation import _bisect

KIND_JOINT_SYMMETRIC = "joint-symmetric"
KIND_MODE_PLUS = "mode-plus"
KIND_MODE_MINUS = "mode-minus"
KIND_JOINT_ANISO = "joint-aniso"
KIND_CONDITIONAL = "conditional-y-given-x"

LOG_RESIDUAL_TOL = 1e-12
# relative to alpha: every route's f keeps its relative precision near the
# root (the det and conditional routes as log1p of a gap over a pivot), so
# each meets this at any alpha > 0
ALPHA_RESIDUAL_TOL = 1e-8
MAX_BISECT = 200


def _require_ratio(ratio: float) -> None:
    if not (math.isfinite(ratio) and ratio > 0.0):
        raise InvalidArgument(f"ratio={ratio!r} must be finite and > 0")


@dataclass(frozen=True)
class CollapseParams:
    """Inputs of the collapse solvers.

    ``alpha = log(n) / (2d)`` is the entropy density and ``ratio = s2/sW2``
    the variance ratio entering chi.  ``spec`` and ``init`` carry the full
    model for the determinant and conditional routes.
    """

    alpha: float
    ratio: float
    spec: ModelSpec
    init: MixtureInit

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise InvalidArgument(f"alpha={self.alpha!r} must be finite")
        _require_ratio(self.ratio)
        if self.init.equal_variance:
            implied = self.init.sigma2_x / self.spec.sigma_w2
            if abs(self.ratio - implied) > 1e-9 * max(self.ratio, implied):
                raise InvalidArgument(
                    f"ratio={self.ratio!r} inconsistent with s2/sW2={implied!r}"
                )

    @classmethod
    def from_model(
        cls, spec: ModelSpec, init: MixtureInit, alpha: float
    ) -> "CollapseParams":
        if not init.equal_variance:
            raise UnsupportedShape(
                "from_model derives ratio = s2/sW2 and needs equal variances"
            )
        return cls(
            alpha=alpha, ratio=init.sigma2_x / spec.sigma_w2, spec=spec, init=init
        )


@dataclass(frozen=True)
class CollapseResult:
    t_c: float
    residual: float
    kind: str


def _over_expm1(num: float, x: float) -> float:
    """num / (e^x - 1); past e^709.8, where expm1 overflows, its limit
    num e^{-x}, and at x = 0 (where tau t underflows) its limit +inf."""
    try:
        return num / math.expm1(x)
    except OverflowError:
        return num * math.exp(-x)
    except ZeroDivisionError:
        return math.inf


def chi(params: CollapseParams, t: float) -> tuple[float, float]:
    """chi_pm(t) = ratio * tau_pm / (e^{tau_pm t} - 1), strictly decreasing."""
    if not (math.isfinite(t) and t > 0.0):
        raise InvalidArgument(f"t={t!r} must be positive")
    tau_p, tau_m = params.spec.mode_rates()
    ratio = params.ratio
    return _over_expm1(ratio * tau_p, tau_p * t), _over_expm1(ratio * tau_m, tau_m * t)


def cgf(params: CollapseParams, beta_rem: float, t: float) -> float:
    """Scaled cumulant generating function of the kernel energies."""
    chip, chim = chi(params, t)
    out = 0.0
    for x in (chip, chim):
        denom = 1.0 + beta_rem * x
        if denom <= 0.0:
            raise CgfDomainError(
                f"1 + beta*chi = {denom!r} <= 0 at beta={beta_rem!r}"
            )
        out += -0.25 * math.log(denom) - 0.25 * beta_rem * (1.0 + x) / denom
    return out


def _require_alpha(params: CollapseParams):
    if params.alpha <= 0.0:
        raise NoCollapse(
            "no finite collapse time: sample count must grow exponentially "
            "with dimension (alpha > 0)"
        )


def collapse_bound(params: CollapseParams) -> float:
    """Upper bound t_C <= ratio / (n^{1/d} - 1) from e^x - 1 >= x."""
    _require_alpha(params)
    bound = _over_expm1(params.ratio, 2.0 * params.alpha)
    if bound == math.inf:
        raise InvalidArgument(
            f"collapse bound overflows at alpha={params.alpha!r}, ratio={params.ratio!r}"
        )
    return bound


def _underflow(params: CollapseParams) -> InvalidArgument:
    return InvalidArgument(
        f"collapse time underflows at alpha={params.alpha!r}, ratio={params.ratio!r}"
    )


def _solve(params: CollapseParams, f, kind: str) -> CollapseResult:
    """Root of a decreasing collapse equation f(t) = 0, bisected to
    |f| <= min(LOG_RESIDUAL_TOL, ALPHA_RESIDUAL_TOL * alpha): past the root
    f tends to about -4 alpha, which lies inside 1e-12 once alpha is small.

    One bracketing rule: from ``collapse_bound`` (which raises NoCollapse
    unless alpha > 0), t doubles while f(t) >= 0, up to 1e8 / beta, and
    then halves while f(t) < 0, which brackets the root as [t, 2t] with
    f(t) >= 0 > f(2t); f rises to +inf as t -> 0+, so the halving ends.
    A bound that underflows to 0 (alpha above about 372.6) brackets
    nothing and is refused; a subnormal one (alpha above about 354.2 at
    ratio 1) bounds a subnormal root, refused as an underflow, as
    ``collapse_time_mode`` refuses it.  A ratio-2 bracket reaches the ulp
    of t within about 53 of the ``MAX_BISECT`` halvings; a bisection that
    still stops with |f| above the tolerance raises InvalidArgument, not a
    non-root.
    """
    hi = collapse_bound(params)
    if hi == 0.0:
        raise InvalidArgument(
            f"root not bracketed: collapse_bound underflows to 0 at alpha={params.alpha!r}"
        )
    if hi < sys.float_info.min:  # t_c <= hi is subnormal too
        raise _underflow(params)
    while f(hi) >= 0.0:
        hi *= 2.0
        if hi > 1e8 / params.spec.beta:
            raise NoCollapse("collapse equation has no root below the cap")
    lo = 0.5 * hi
    while f(lo) < 0.0:
        lo, hi = 0.5 * lo, lo
    tol = min(LOG_RESIDUAL_TOL, ALPHA_RESIDUAL_TOL * params.alpha)
    t_c, residual = _bisect(f, lo, hi, tol, MAX_BISECT)
    if not residual <= tol:
        raise InvalidArgument(
            f"collapse equation not solved: |f|={float(residual)!r} at t={float(t_c)!r} "
            f"after {MAX_BISECT} halvings"
        )
    # a numpy alpha makes f, and with it the bisection, numpy-scalar valued
    return CollapseResult(t_c=float(t_c), residual=residual, kind=kind)


def collapse_time_symmetric(params: CollapseParams) -> CollapseResult:
    """Joint collapse time from (1 + chi_+)(1 + chi_-) = e^{4 alpha}.

    Solved in log space: log1p(chi_+) + log1p(chi_-) - 4 alpha is strictly
    decreasing from +inf at t -> 0+ to below zero past the closed-form
    upper bound.
    """
    params.spec.mode_rates()
    target = 4.0 * params.alpha

    def f(t: float) -> float:
        chip, chim = chi(params, t)
        return math.log1p(chip) + math.log1p(chim) - target

    return _solve(params, f, KIND_JOINT_SYMMETRIC)


def collapse_time_mode(params: CollapseParams, mode: str) -> CollapseResult:
    """Per-mode collapse time, closed form.

    t_C_pm = (1/tau_pm) log(1 + ratio tau_pm / (n^{1/d} - 1)) with
    n^{1/d} = e^{2 alpha}.
    """
    if mode not in ("+", "-"):
        raise InvalidArgument(f"mode must be '+' or '-', got {mode!r}")
    _require_alpha(params)
    tau_p, tau_m = params.spec.mode_rates()
    tau = tau_p if mode == "+" else tau_m
    t_c = math.log1p(_over_expm1(params.ratio * tau, 2.0 * params.alpha)) / tau
    if tau * t_c < sys.float_info.min:  # subnormal: the residual's expm1 loses it
        raise _underflow(params)
    if t_c == math.inf:
        raise InvalidArgument(
            f"ratio tau / (e^(2 alpha) - 1) overflows at alpha={params.alpha!r}, "
            f"ratio={params.ratio!r}"
        )
    residual = abs(
        math.log1p(_over_expm1(params.ratio * tau, tau * t_c)) - 2.0 * params.alpha
    )
    kind = KIND_MODE_PLUS if mode == "+" else KIND_MODE_MINUS
    return CollapseResult(t_c=t_c, residual=residual, kind=kind)


def _log_pivot_ratios(spec: ModelSpec, init: MixtureInit):
    """t -> (log(c1 / q1), log(c2 / q2)) for the LDL^T pivots of C(t) and
    Q(t) scaled by 2 beta / sW2, in Python floats (an overflow is a silent inf).

    det C / det Q = c1 c2 / (q1 q2) and C_y|x / Q_y|x = c2 / q2 do not
    change under the scaling, which keeps the pivots of order one where the
    unscaled determinants are subnormal (beta ~ 1e158).  Each ratio is
    log1p((c - q) / q) on the gap c - q in closed form, so it keeps its
    relative precision where c ~ q, as near the root at small alpha.  In
    a = 2 beta t, gamma = g / beta and rho = 2 beta s2 / sW2, one-way
    coupling reads its pivots and gaps from ``_aniso_pivots``.  Symmetric
    coupling takes the mode forms (e, q) of ``_mode_kernel`` at rates
    1 -+ gamma: q1 = q_+, q2 = q_-, c1 - q1 = rho e_+ and
    c2 - q2 = e_- (e_+ rho_x rho_y + rho q_+) / c1, with
    rho = (rho_x + rho_y) / 2.  Where Q^ is degenerate, as where a
    underflows to 0, both ratios take their limit +inf.
    """
    if isinstance(spec.coupling, Scheduled):
        raise UnsupportedShape("the collapse routes need a constant coupling kind")
    spec.require_stable()
    beta, g = spec.beta, spec.coupling.g
    rho_x, rho_y = (2.0 * beta / spec.sigma_w2 * s2 for s2 in (init.sigma2_x, init.sigma2_y))
    rho = 0.5 * (rho_x + rho_y)
    gamma = g / beta
    gamma2 = gamma * gamma
    if not (sys.float_info.min <= min(rho_x, rho_y) and max(rho_x, rho_y, gamma2) < math.inf):
        raise InvalidArgument(
            f"beta={beta!r}, g={g!r}: the scaled variances 2 beta s2 / sW2 "
            "or (g / beta)^2 leave the float range"
        )
    symmetric = isinstance(spec.coupling, Symmetric)

    def at(t: float):
        a = 2.0 * beta * t
        if symmetric:
            e_p, q1 = (float(x) for x in _mode_kernel(0.0, 1.0, 1.0 - gamma, a))
            e_m, q2 = (float(x) for x in _mode_kernel(0.0, 1.0, 1.0 + gamma, a))
            gap1 = rho * e_p
            c1 = q1 + gap1
            gap2 = e_m * (e_p * rho_x / c1 * rho_y + rho * (q1 / c1))
        else:
            parts = tuple(float(x) for x in _q_parts(beta, t))
            q1, q2, gap1, gap2, _ = _aniso_pivots(gamma, a, parts, rho_x, rho_y)
        if not (q1 > 0.0 and q2 > 0.0):
            return math.inf, math.inf
        return math.log1p(gap1 / q1), math.log1p(gap2 / q2)

    return at


def collapse_time_det(params: CollapseParams) -> CollapseResult:
    """Joint collapse from the determinant form alpha = (1/4) log(det C / det Q).

    Valid for both constant coupling kinds, on the pivots of the scaled
    blocks (``_log_pivot_ratios``); on the symmetric model it coincides
    with the eigenmode transcendental equation.
    """
    spec = params.spec
    ratios = _log_pivot_ratios(spec, params.init)

    def f(t: float) -> float:
        first, second = ratios(t)
        return 0.25 * (first + second) - params.alpha

    kind = KIND_JOINT_SYMMETRIC if isinstance(spec.coupling, Symmetric) else KIND_JOINT_ANISO
    return _solve(params, f, kind)


def collapse_time_conditional(params: CollapseParams) -> CollapseResult:
    """Conditional collapse of the target channel given the conditioning one.

    Root of alpha = (1/2) log(C_y|x / Q_y|x), the second pivots of the
    scaled blocks (``_log_pivot_ratios``); the prefactor halves relative to
    the joint form because the effective dimension is d.
    """
    spec = params.spec
    if not isinstance(spec.coupling, Anisotropic):
        raise UnsupportedShape(
            "conditional collapse is defined for anisotropic coupling"
        )
    ratios = _log_pivot_ratios(spec, params.init)

    def f(t: float) -> float:
        return 0.5 * ratios(t)[1] - params.alpha

    return _solve(params, f, KIND_CONDITIONAL)
