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

from .blockmat import schur_conditional
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
    Symmetric,
    diffusion_kernel,
)
from .speciation import _bisect

KIND_JOINT_SYMMETRIC = "joint-symmetric"
KIND_MODE_PLUS = "mode-plus"
KIND_MODE_MINUS = "mode-minus"
KIND_JOINT_ANISO = "joint-aniso"
KIND_CONDITIONAL = "conditional-y-given-x"

LOG_RESIDUAL_TOL = 1e-12
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


def alpha_from_counts(n: int, d: int) -> float:
    """Entropy density log(n) / (2d) of n samples in 2d dimensions."""
    if n < 1 or d < 1:
        raise InvalidArgument("n and d must be positive integers")
    return math.log(n) / (2.0 * d)


def _taus(params: CollapseParams) -> tuple[float, float]:
    spec = params.spec
    if not isinstance(spec.coupling, Symmetric):
        raise UnsupportedShape("mode rates require symmetric coupling")
    spec.require_stable()
    modes = spec.modes()
    return modes.tau_plus, modes.tau_minus


def _over_expm1(num: float, x: float) -> float:
    """num / (e^x - 1); past e^709.8, where expm1 overflows, its limit num e^{-x}."""
    try:
        return num / math.expm1(x)
    except OverflowError:
        return num * math.exp(-x)


def chi(params: CollapseParams, t: float) -> tuple[float, float]:
    """chi_pm(t) = ratio * tau_pm / (e^{tau_pm t} - 1), strictly decreasing."""
    if not (math.isfinite(t) and t > 0.0):
        raise InvalidArgument(f"t={t!r} must be positive")
    tau_p, tau_m = _taus(params)
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


def rate_at_saddle(params: CollapseParams, t: float) -> float:
    """Large-deviation rate at the inverse-temperature-1 saddle: -L_t(1) - 1/2."""
    return -cgf(params, 1.0, t) - 0.5


def _require_alpha(params: CollapseParams):
    if params.alpha <= 0.0:
        raise NoCollapse(
            "no finite collapse time: sample count must grow exponentially "
            "with dimension (alpha > 0)"
        )


def collapse_bound(params: CollapseParams) -> float:
    """Upper bound t_C <= ratio / (n^{1/d} - 1) from e^x - 1 >= x."""
    _require_alpha(params)
    return _over_expm1(params.ratio, 2.0 * params.alpha)


def _halve_down(f, hi: float):
    """Bracket [t, 2t] with f(t) >= 0 > f(2t), halving down from hi with f(hi) < 0."""
    lo = 0.5 * hi
    while (f_lo := f(lo)) < 0.0:
        hi, lo = lo, 0.5 * lo
    return lo, hi, f_lo


def _solve(params: CollapseParams, f, kind: str) -> CollapseResult:
    """Root of a decreasing collapse equation f(t) = 0, bisected to
    |f| <= LOG_RESIDUAL_TOL.

    The bracket is [1e-12 / beta, collapse_bound + 1 / beta], its top
    doubled while f stays positive, up to 1e8 / beta.  f rises to +inf as
    t -> 0+, so when f(1e-12 / beta) < 0 the root lies below it: unless
    ``collapse_bound`` underflows to 0, the bracket is then [t, 2t] with
    f(t) >= 0 > f(2t), found in steps of a factor 2 from the bound where
    that is lower.  ``collapse_bound`` raises NoCollapse unless alpha > 0.
    A root far below the top of a wide bracket is out of reach of
    ``MAX_BISECT`` halvings; where the bisection stops above the tolerance
    with f < 0 there, the root is bracketed as [t, 2t] below that point
    and bisected once more.  A bisection that still stops with |f| above
    the tolerance raises InvalidArgument rather than return a non-root.
    """
    beta = params.spec.beta
    bound = collapse_bound(params)
    lo = 1e-12 / beta
    hi = bound + 1.0 / beta
    while f(hi) > 0.0:
        hi *= 2.0
        if hi > 1e8 / beta:
            raise NoCollapse("collapse equation has no root below the cap")
    f_lo = f(lo)
    if f_lo < 0.0 and bound > 0.0:
        hi = min(lo, bound)
        while f(hi) >= 0.0:
            hi *= 2.0
        lo, hi, f_lo = _halve_down(f, hi)
    f_hi = f(hi)
    if f_lo < 0.0 or f_hi > 0.0:
        raise InvalidArgument(
            f"root not bracketed: f({lo!r})={f_lo!r}, f({hi!r})={f_hi!r}"
        )
    t_c, residual = _bisect(f, lo, hi, LOG_RESIDUAL_TOL, MAX_BISECT)
    if residual > LOG_RESIDUAL_TOL and f(t_c) < 0.0:
        lo, hi, _ = _halve_down(f, t_c)
        t_c, residual = _bisect(f, lo, hi, LOG_RESIDUAL_TOL, MAX_BISECT)
    if not residual <= LOG_RESIDUAL_TOL:
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
    _taus(params)
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
    tau_p, tau_m = _taus(params)
    tau = tau_p if mode == "+" else tau_m
    t_c = math.log1p(_over_expm1(params.ratio * tau, 2.0 * params.alpha)) / tau
    if tau * t_c < sys.float_info.min:  # subnormal: the residual's expm1 loses it
        raise InvalidArgument(
            f"collapse time underflows at alpha={params.alpha!r}, ratio={params.ratio!r}"
        )
    residual = abs(
        math.log1p(params.ratio * tau / math.expm1(tau * t_c))
        - 2.0 * params.alpha
    )
    kind = KIND_MODE_PLUS if mode == "+" else KIND_MODE_MINUS
    return CollapseResult(t_c=t_c, residual=residual, kind=kind)


def collapse_time_det(params: CollapseParams) -> CollapseResult:
    """Joint collapse from the determinant form alpha = (1/4) log(det C / det Q).

    Valid for both coupling kinds; on the symmetric model it coincides
    with the eigenmode transcendental equation.
    """
    spec, init = params.spec, params.init
    spec.require_stable()

    def f(t: float) -> float:
        ms = diffusion_kernel(spec, init, t)
        det_c = ms.c.det
        det_q = ms.q.det
        if det_q <= 0.0:
            return float("inf")  # shrink bracket upward from degenerate Q
        return 0.25 * (math.log(det_c) - math.log(det_q)) - params.alpha

    kind = (
        KIND_JOINT_SYMMETRIC
        if isinstance(spec.coupling, Symmetric)
        else KIND_JOINT_ANISO
    )
    return _solve(params, f, kind)


def collapse_time_conditional(params: CollapseParams) -> CollapseResult:
    """Conditional collapse of the target channel given the conditioning one.

    Root of alpha = (1/2) log(C_y|x / Q_y|x) built from Schur complements;
    the prefactor halves relative to the joint form because the effective
    dimension is d.
    """
    spec, init = params.spec, params.init
    if not isinstance(spec.coupling, Anisotropic):
        raise UnsupportedShape(
            "conditional collapse is defined for anisotropic coupling"
        )

    def f(t: float) -> float:
        ms = diffusion_kernel(spec, init, t)
        if ms.q.det <= 0.0 or ms.q.a11 <= 0.0:
            return float("inf")
        c_yx, _ = schur_conditional(ms.c)
        q_yx, _ = schur_conditional(ms.q)
        return 0.5 * (math.log(c_yx) - math.log(q_yx)) - params.alpha

    return _solve(params, f, KIND_CONDITIONAL)
