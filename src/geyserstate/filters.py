"""Two-stage denoising: Butterworth high-pass, then AR prediction-error filtering.

Stage 1 removes slow environmental trends with a causal high-pass built from
the analog Butterworth prototype: prototype poles are mapped low-pass to
high-pass, pre-warped, and discretized with the bilinear transform into
second-order sections.  Stage 2 fits an AR(p) model by ordinary least squares
on a quiet segment of the stage-1 output and subtracts its one-step
predictions from the whole series; whatever the model cannot predict
(transients) survives, while stationary ambient noise collapses toward the
innovation floor.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.signal import sosfilt

from .artifacts import write_artifact
from .errors import ConfigError, DataError, NumericError
from .timeseries import TimeSeries

SUPPORTED_ORDERS = (2, 4, 6, 8)

# Matches the advertised least-squares contract: the normal-equation residual
# of the OLS solve must be at most this, relative to the right-hand side.
OLS_RESIDUAL_TOL = 1e-8

_POLE_MARGIN = 1e-9

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FilterCascade:
    """High-pass filter as a cascade of second-order sections.

    Each section is (b0, b1, b2, a1, a2) with the denominator normalized to
    a0 = 1.  Construction verifies stability (all poles strictly inside the
    unit circle) and the high-pass DC null.
    """

    sections: tuple[tuple[float, float, float, float, float], ...]
    order: int
    corner_hz: float
    fs_hz: float

    def __post_init__(self) -> None:
        if len(self.sections) != self.order // 2:
            raise ConfigError(
                f"order {self.order} needs {self.order // 2} sections, got {len(self.sections)}"
            )
        for b0, b1, b2, a1, a2 in self.sections:
            poles = np.roots([1.0, a1, a2])
            if np.max(np.abs(poles)) >= 1.0 - _POLE_MARGIN:
                raise NumericError(f"unstable section: pole magnitude {np.max(np.abs(poles))}")
        if abs(self.gain_at(0.0)) >= 1e-8:
            raise NumericError("high-pass cascade must have a DC null")

    def response_at(self, f_hz: float) -> complex:
        """Complex gain at f_hz, evaluated section by section."""
        zinv = cmath.exp(-2j * math.pi * f_hz / self.fs_hz)
        h = complex(1.0)
        for b0, b1, b2, a1, a2 in self.sections:
            h *= (b0 + (b1 + b2 * zinv) * zinv) / (1.0 + (a1 + a2 * zinv) * zinv)
        return h

    def gain_at(self, f_hz: float) -> float:
        return abs(self.response_at(f_hz))


@dataclass(frozen=True)
class ArModel:
    """AR(p) model x_t = c + sum_i alpha_i x_{t-i} + e_t with Var(e) = sigma2."""

    order_p: int
    intercept_c: float
    coeffs_alpha: np.ndarray
    sigma2: float
    n_train: int = 0
    aic: float | None = None

    def __post_init__(self) -> None:
        alpha = np.asarray(self.coeffs_alpha, dtype=np.float64)
        object.__setattr__(self, "coeffs_alpha", alpha)
        if self.order_p < 1 or alpha.size != self.order_p:
            raise ConfigError(f"need order_p >= 1 matching {alpha.size} coefficients")
        if not (np.all(np.isfinite(alpha)) and math.isfinite(self.intercept_c)):
            raise NumericError("non-finite AR coefficients")
        if not (math.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise NumericError(f"sigma2 must be finite and >= 0, got {self.sigma2}")


def design_butterworth_highpass(order: int, corner_hz: float, fs_hz: float) -> FilterCascade:
    """Discrete Butterworth high-pass via bilinear transform with pre-warping.

    The -3 dB point lands exactly on corner_hz because the analog corner is
    pre-warped before discretization.
    """
    if order not in SUPPORTED_ORDERS:
        raise ConfigError(f"unsupported order {order}; choose one of {SUPPORTED_ORDERS}")
    if not 0 < corner_hz < fs_hz / 2:
        raise ConfigError(
            f"corner {corner_hz} Hz must lie strictly between 0 and Nyquist {fs_hz / 2} Hz"
        )
    warped = 2.0 * fs_hz * math.tan(math.pi * corner_hz / fs_hz)
    k = 2.0 * fs_hz
    sections = []
    for i in range(order // 2):
        # Analog prototype pole (upper half-plane member of the conjugate pair).
        theta = math.pi * (2 * i + order + 1) / (2 * order)
        p_lp = complex(math.cos(theta), math.sin(theta))
        p_hp = warped / p_lp
        # Analog section s^2 / (s^2 + c1 s + c0), then bilinear s -> k (z-1)/(z+1).
        c1 = -2.0 * p_hp.real
        c0 = abs(p_hp) ** 2
        d0 = k * k + c1 * k + c0
        b0 = k * k / d0
        b1 = -2.0 * b0  # exact doubling keeps the DC null exact
        a1 = (2.0 * c0 - 2.0 * k * k) / d0
        a2 = (k * k - c1 * k + c0) / d0
        sections.append((b0, b1, b0, a1, a2))
    return FilterCascade(tuple(sections), order, corner_hz, fs_hz)


def apply_filter(cascade: FilterCascade, ts: TimeSeries) -> TimeSeries:
    """Causal filtering through each section in sequence, zero initial state."""
    if abs(ts.fs_hz - cascade.fs_hz) > 1e-9:
        raise DataError(
            f"series sampled at {ts.fs_hz} Hz but filter designed for {cascade.fs_hz} Hz"
        )
    sos = [(b0, b1, b2, 1.0, a1, a2) for b0, b1, b2, a1, a2 in cascade.sections]
    return ts.with_values(sosfilt(sos, ts.values))


def fit_ar(ts: TimeSeries, max_order: int = 64, criterion: str = "aic") -> ArModel:
    """OLS fit of an AR(p) model, order chosen by AIC over 1..max_order.

    Each candidate p regresses x_t on [1, x_{t-1}, ..., x_{t-p}] over
    t = p+1..n via QR factorization (`_ols_ar`) and scores
    AIC(p) = (n-p) * ln(RSS / (n-p)) + 2 (p+1); the first p with the
    smallest AIC wins.  criterion="fixed" skips the search and fits exactly
    p = max_order.

    The search screens every order from one lagged Gram matrix
    (`_screen_orders`), then runs `_ols_ar` only on the orders that can win:
    those whose screened AIC, less its error bound, is at most the best
    exact AIC, plus every order the screen cannot vouch for.  An order left
    out has an exact AIC above the minimum, so the model returned, and any
    NumericError raised, are those of running `_ols_ar` at every order.
    """
    if criterion not in ("aic", "fixed"):
        raise ConfigError(f"criterion must be 'aic' or 'fixed', got {criterion!r}")
    if max_order < 1:
        raise ConfigError(f"max_order must be >= 1, got {max_order}")
    n = len(ts)
    if n <= max_order + 10:
        raise DataError(f"series of {n} samples too short for max_order {max_order}")
    x = ts.values
    if criterion == "fixed":
        beta, rss = _ols_ar(x, max_order)
        return _ar_model(n, max_order, beta, rss)
    aic, lower = _screen_orders(x, max_order)
    unvouched = np.isneginf(lower)
    first = set((np.flatnonzero(unvouched) + 1).tolist())
    if not unvouched.all():
        first.add(int(np.argmin(aic)) + 1)
    # ascending, so the first order `_ols_ar` rejects raises, as in a full loop
    exact = {p: _ols_ar(x, p) for p in sorted(first)}
    best = min(_aic(n, p, rss) for p, (_, rss) in exact.items())
    for p in (np.flatnonzero(lower <= best) + 1).tolist():
        if p not in exact:
            exact[p] = _ols_ar(x, p)
    _log.debug("AR order search: screened %d orders, refit %d by QR", max_order, len(exact))
    # min keeps the first of equal AICs: the strict-< rule of a full loop
    p = min(sorted(exact), key=lambda q: _aic(n, q, exact[q][1]))
    return _ar_model(n, p, *exact[p])


def _aic(n: int, p: int, rss: float) -> float:
    n_eff = n - p
    return n_eff * math.log(max(rss / n_eff, 1e-300)) + 2.0 * (p + 1)


def _ar_model(n: int, p: int, beta: np.ndarray, rss: float) -> ArModel:
    return ArModel(
        order_p=p,
        intercept_c=float(beta[0]),
        coeffs_alpha=beta[1:],
        sigma2=float(rss / (n - p)),
        n_train=n,
        aic=float(_aic(n, p, rss)),
    )


def _gamma(k: float) -> float:
    """Relative error bound of k rounded operations, k u / (1 - k u)."""
    ku = k * _UNIT_ROUNDOFF
    return ku / (1.0 - ku) if ku < 0.5 else math.inf


def _screen_orders(x: np.ndarray, max_order: int) -> tuple[np.ndarray, np.ndarray]:
    """AIC of every order 1..max_order from one Gram matrix, with error bounds.

    Returns (aic, lower), indexed by p - 1: the screened AIC of order p and
    a lower bound, aic - tol, on the AIC `_ols_ar` computes for it.  Where
    the screen cannot vouch for an order, aic is +inf and lower is -inf.

    One lag matrix over rows t = P..n-1 (P = max_order) holds the columns
    [1, x_{t-1}, ..., x_{t-P}, x_t] of the mean-centered series; RSS with an
    intercept does not depend on a constant shift, and centering keeps a DC
    offset out of the Gram.  Walking p = P..1, row t = p joins the Gram, so
    each order's block [1, lags 1..p, x_t] is exact for its rows t = p..n-1.
    Pivot j of its Cholesky factor is the residual norm r_j of column j
    regressed on the columns before it, with coefficients b_j (row j of the
    inverse unit factor, b_jj = 1); the last pivot squared is the RSS.

    Bound (u = eps/2, gamma_k = k u / (1 - k u), m = n - p rows, a_i the
    columns): forming and factoring the Gram is backward stable,
    |dG| <= gamma_{n+3} |a|^T |a| (Higham, Accuracy and Stability, Thms 3.5
    and 10.3), which moves r_j^2 by at most gamma_{n+3} S_j^2 with
    S_j = sum_i |b_ji| |a_i| over the centered columns; S_j^2 / r_j^2 is the
    condition number of that pivot.  Householder QR on the raw columns is
    backward stable with gamma_{n(p+2)} (Thm 19.4), so the pivots and RSS
    `_ols_ar` computes lie within 6 gamma_{n(p+2)} S'_j r_j of the exact
    r_j^2, S'_j as S_j over the raw columns.  With d_j the sum of both
    relative errors and d the RSS's,
    tol = m (-ln(1 - d)) + 8 u (|AIC| + 2 (p+1)), the last term for the
    rounding of the AIC formula.

    Unvouched are the orders where the block is not positive definite, the
    RSS is not a positive normal number, some d_j >= 1/2, or a design pivot
    is below 1e-6 of its column norm (the Gram has lost half its digits).
    So are the orders where one of `_ols_ar`'s checks could fire: its rank
    test, min r_j <= max(n, p+1) eps max r_j over the design pivots, for
    some pivots within their d_j; and its normal-equation residual check,
    whose residual is about 3 sqrt(n (p+2)) u |A| S'_RSS in the usual model
    where rounding errors grow with the square root of the operation count.
    The worst case, linear in it, would flag every order of a long
    white-noise series.
    """
    n = x.size
    big_p = max_order
    mean = float(x.mean())
    xc = x - mean
    lags = np.empty((n - big_p, big_p + 2))
    lags[:, 0] = 1.0
    for i in range(1, big_p + 1):
        lags[:, i] = xc[big_p - i : n - i]
    lags[:, -1] = xc[big_p:]
    gram = lags.T @ lags
    del lags
    aic = np.full(big_p, np.inf)
    lower = np.full(big_p, -np.inf)
    row = np.zeros(big_p + 2)
    row[0] = 1.0
    with np.errstate(all="ignore"):
        for p in range(big_p, 0, -1):
            if p < big_p:
                # row t = p; its lags beyond p are never read again
                row[1 : p + 1] = xc[p - 1 :: -1]
                row[-1] = xc[p]
                gram += np.outer(row, row)
            idx = np.r_[: p + 1, big_p + 1]
            g = gram[np.ix_(idx, idx)]
            try:
                chol = np.linalg.cholesky(g)
            except np.linalg.LinAlgError:
                continue
            m = n - p
            pivots = np.diag(chol)
            norms = np.sqrt(np.diag(g))
            rss = float(pivots[-1] ** 2)
            if not (np.min(pivots[:-1] / norms[:-1]) >= 1e-6 and m * 1e-300 < rss < math.inf):
                continue
            coef = solve_triangular(chol / pivots, np.eye(p + 2), lower=True, unit_diagonal=True)
            s_c = np.abs(coef) @ norms
            # the same combinations of the raw columns x_i = xc_i + mean
            raw_norms = np.sqrt(np.maximum(np.diag(g) + 2 * mean * g[0] + mean * mean * m, 0.0))
            raw_norms[0] = norms[0]
            coef[:, 0] -= mean * coef[:, 1:].sum(axis=1)
            s_u = np.abs(coef) @ raw_norms
            d = _gamma(n + 3) * s_c**2 / pivots**2 + 6 * _gamma(n * (p + 2)) * s_u / pivots
            if not np.max(d) < 0.5:
                continue
            # QR's rank test, min r_j <= max(n, p+1) eps max r_j, with each r_j^2 within d_j
            piv_sq, d_piv = pivots[:-1] ** 2, d[:-1]
            rank_tol = (max(n, p + 1) * 2 * _UNIT_ROUNDOFF) ** 2
            if not np.min(piv_sq * (1 - d_piv)) > rank_tol * np.max(piv_sq * (1 + d_piv)):
                continue
            # `_ols_ar`'s normal-equation residual check
            raw_aty = g[:-1, -1] + mean * (g[0, :-1] + g[0, -1]) + mean * mean * m
            raw_aty[0] = g[0, -1] + mean * m
            a_norm = np.linalg.norm(raw_norms[:-1])
            resid = 3 * math.sqrt(n * (p + 2)) * _UNIT_ROUNDOFF * a_norm * s_u[-1]
            if not resid <= OLS_RESIDUAL_TOL * np.linalg.norm(raw_aty):
                continue
            aic[p - 1] = _aic(n, p, rss)
            tol = m * -math.log1p(-d[-1]) + 8 * _UNIT_ROUNDOFF * (abs(aic[p - 1]) + 2 * (p + 1))
            lower[p - 1] = aic[p - 1] - tol
    return aic, lower


def _ols_ar(x: np.ndarray, p: int) -> tuple[np.ndarray, float]:
    """Least squares for one AR order; returns (beta with intercept first, RSS)."""
    n = x.size
    y = x[p:]
    a = np.empty((n - p, p + 1))
    a[:, 0] = 1.0
    for i in range(1, p + 1):
        a[:, i] = x[p - i : n - i]
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diag(r))
    if diag.min() <= max(n, p + 1) * np.finfo(np.float64).eps * max(diag.max(), 1.0):
        raise NumericError("degenerate signal: AR design matrix is rank deficient")
    beta = solve_triangular(r, q.T @ y)
    resid = y - a @ beta
    check = np.linalg.norm(a.T @ resid)
    scale = max(np.linalg.norm(a.T @ y), 1e-300)
    if check / scale > OLS_RESIDUAL_TOL:
        raise NumericError(
            f"least-squares solve failed: relative normal-equation residual {check / scale:.3e}"
        )
    return beta, float(resid @ resid)


def ar_predict_one_step(model: ArModel, ts: TimeSeries) -> TimeSeries:
    """One-step predictions from observed lags; the first p outputs just copy
    the input (no history exists for them yet)."""
    p = model.order_p
    n = len(ts)
    if n <= p:
        raise DataError(f"series of {n} samples shorter than AR order {p}")
    x = ts.values
    pred = np.empty(n)
    pred[:p] = x[:p]
    acc = np.full(n - p, model.intercept_c)
    for i in range(1, p + 1):
        acc += model.coeffs_alpha[i - 1] * x[p - i : n - i]
    pred[p:] = acc
    return ts.with_values(pred)


def pef(x_h: TimeSeries, model: ArModel) -> TimeSeries:
    """Prediction-error filter: input minus its one-step prediction.

    The first p samples are emitted as exact zeros so every series in the
    pipeline stays index-aligned.
    """
    pred = ar_predict_one_step(model, x_h)
    out = x_h.values - pred.values
    out[: model.order_p] = 0.0
    return x_h.with_values(out)


def r2_score(actual: TimeSeries, predicted: TimeSeries) -> float:
    """Coefficient of determination 1 - RSS/TSS of predicted against actual."""
    if len(actual) != len(predicted):
        raise DataError(f"length mismatch: {len(actual)} vs {len(predicted)}")
    if len(actual) < 2:
        raise DataError("need at least 2 samples")
    a = actual.values
    p = predicted.values
    tss = float(np.sum((a - a.mean()) ** 2))
    if tss <= 0.0:
        raise NumericError("actual series has zero variance")
    return 1.0 - float(np.sum((a - p) ** 2)) / tss


def save_ar_model(model: ArModel, path: str, header_comments: list[str] | None = None) -> None:
    """Persist as key=value text; floats carry 17 significant digits."""
    rows = (
        f"p={model.order_p}",
        f"c={model.intercept_c:.17g}",
        "alpha=" + ",".join(f"{v:.17g}" for v in model.coeffs_alpha),
        f"sigma2={model.sigma2:.17g}",
    )
    write_artifact(path, header_comments or [], None, rows)
