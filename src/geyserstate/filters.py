"""Two-stage denoising: Butterworth high-pass, then AR prediction-error filtering.

Stage 1 removes slow environmental trends with a causal high-pass built from
the analog Butterworth prototype: prototype poles are mapped low-pass to
high-pass, pre-warped, and discretized with the bilinear transform into
second-order sections.  Stage 2 fits an AR(p) model by ordinary least squares
on a quiet segment of the stage-1 output and subtracts its one-step
predictions from the whole series.  Ambient noise falls toward the
innovation floor, events less: at seed 42 the default synth loses 25.0 dB of
Class-1 noise, 11.2 of chirp and 5.5 dB of tone (SNR +13.1 and +19.8 dB).

In-place contract: each function does its float arithmetic in buffers it
returns or drops, in the order of the whole-array expression, so results
are that expression's bit for bit.  `apply_filter` can write into the
input's own buffer (`out=ts.values`), holding one block beyond it;
`ar_predict_one_step` accumulates into its output with one product buffer;
`pef` subtracts into the prediction; `r2_score` squares in one buffer.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr, solve_triangular
from scipy.signal import sosfilt

from .artifacts import write_table
from .errors import ConfigError, DataError, NumericError
from .timeseries import TimeSeries

SUPPORTED_ORDERS = (2, 4, 6, 8)

# Matches the advertised least-squares contract: the normal-equation residual
# of the OLS solve must be at most this, relative to the right-hand side.
OLS_RESIDUAL_TOL = 1e-8

_POLE_MARGIN = 1e-9

# samples per sosfilt call in apply_filter; sosfilt copies its input, so a
# whole-series call would hold a second series
FILTER_BLOCK = 65536

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


def apply_filter(
    cascade: FilterCascade, ts: TimeSeries, out: np.ndarray | None = None
) -> TimeSeries:
    """Causal filtering through each section in sequence, zero initial state.

    The series runs through `sosfilt` in blocks of FILTER_BLOCK samples, the
    section states carried from block to block: the same recursion per
    sample as one call, bit for bit, with one block's copy of the input as
    the only temporary.  The result goes into `out` (a float64 array of
    len(ts) samples, which may be ts.values itself) or, by default, a new
    array.
    """
    if abs(ts.fs_hz - cascade.fs_hz) > 1e-9:
        raise DataError(
            f"series sampled at {ts.fs_hz} Hz but filter designed for {cascade.fs_hz} Hz"
        )
    sos = [(b0, b1, b2, 1.0, a1, a2) for b0, b1, b2, a1, a2 in cascade.sections]
    x = ts.values
    y = np.empty_like(x) if out is None else out
    zi = np.zeros((len(sos), 2))
    for a in range(0, x.size, FILTER_BLOCK):
        y[a : a + FILTER_BLOCK], zi = sosfilt(sos, x[a : a + FILTER_BLOCK], zi=zi)
    return ts.with_values(y)


def fit_ar(ts: TimeSeries, max_order: int = 64, criterion: str = "aic") -> ArModel:
    """OLS fit of an AR(p) model, order chosen by AIC over 1..max_order.

    Every order is scored on the rows all orders share, t = P..n-1 with
    P = max_order (Akaike 1974; Box & Jenkins), so a change of units shifts
    every order's AIC alike and cannot move the choice.  One Householder QR
    of the lag design [1, x_{t-1}, ..., x_{t-P}, x_t] scores them all: the
    blocks are nested, so order p's RSS is the sum of squares of the target
    column of R below row p + 1, and AIC(p) = m ln(RSS_p / m) + 2 (p+1) with
    m = n - P.  The first p with the smallest AIC wins, and `_ols_ar` fits it
    on those same rows.  `_ols_ar`'s rank rule runs once, on the diagonal of
    the full R, whose leading p + 1 entries are order p's pivots.
    criterion="fixed" fits exactly p = max_order on rows t = p..n-1.
    """
    if criterion not in ("aic", "fixed"):
        raise ConfigError(f"criterion must be 'aic' or 'fixed', got {criterion!r}")
    if max_order < 1:
        raise ConfigError(f"max_order must be >= 1, got {max_order}")
    n = len(ts)
    # at least 10 rows, and more rows than the P + 1 columns of the design
    if n < max(max_order + 11, 2 * max_order + 2):
        raise DataError(f"series of {n} samples too short for max_order {max_order}")
    x = ts.values
    if criterion == "fixed":
        return _ar_model(n, n - max_order, max_order, *_ols_ar(x, max_order))
    big_p, m = max_order, n - max_order
    # Fortran order lets LAPACK factor the design in place, without a copy
    design = np.empty((m, big_p + 2), order="F")
    design[:, 0] = 1.0
    for i in range(1, big_p + 1):
        design[:, i] = x[big_p - i : n - i]
    design[:, -1] = x[big_p:]
    r = qr(design, overwrite_a=True, mode="raw", check_finite=False)[1]
    del design
    _check_rank(np.diag(r)[:-1], n)
    # rss[p + 1] = squares of the target column of R below row p + 1
    rss = np.cumsum(r[::-1, -1] ** 2)[::-1]
    p = int(np.argmin([_aic(m, q, float(rss[q + 1])) for q in range(1, big_p + 1)])) + 1
    _log.debug("AR order search: screened %d orders on %d common rows from one QR, refit p=%d",
               big_p, m, p)
    return _ar_model(n, m, p, *_ols_ar(x[big_p - p :], p))


def _aic(m: int, p: int, rss: float) -> float:
    """AIC of an AR(p) fit with this RSS over m rows."""
    return m * math.log(max(rss / m, 1e-300)) + 2.0 * (p + 1)


def _ar_model(n: int, m: int, p: int, beta: np.ndarray, rss: float) -> ArModel:
    """The model of a fit over m rows of an n-sample series."""
    return ArModel(
        order_p=p,
        intercept_c=float(beta[0]),
        coeffs_alpha=beta[1:],
        sigma2=float(rss / m),
        n_train=n,
        aic=float(_aic(m, p, rss)),
    )


def _check_rank(diag: np.ndarray, n: int) -> None:
    """Reject a design whose QR pivots (the diagonal of R) show a rank
    deficiency, for a series of n samples."""
    diag = np.abs(diag)
    if diag.min() <= max(n, diag.size) * np.finfo(np.float64).eps * max(diag.max(), 1.0):
        raise NumericError("degenerate signal: AR design matrix is rank deficient")


def _ols_ar(x: np.ndarray, p: int) -> tuple[np.ndarray, float]:
    """Least squares for one AR order; returns (beta with intercept first, RSS)."""
    n = x.size
    y = x[p:]
    a = np.empty((n - p, p + 1))
    a[:, 0] = 1.0
    for i in range(1, p + 1):
        a[:, i] = x[p - i : n - i]
    q, r = np.linalg.qr(a)
    _check_rank(np.diag(r), n)
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
    acc = pred[p:]
    acc.fill(model.intercept_c)
    term = np.empty(n - p)
    for i in range(1, p + 1):
        acc += np.multiply(model.coeffs_alpha[i - 1], x[p - i : n - i], out=term)
    return ts.with_values(pred)


def pef(x_h: TimeSeries, model: ArModel) -> TimeSeries:
    """Prediction-error filter: input minus its one-step prediction.

    The first p samples are emitted as exact zeros so every series in the
    pipeline stays index-aligned.  The difference is taken in the
    prediction's buffer, so the call holds one series beyond its input.
    """
    out = ar_predict_one_step(model, x_h).values
    np.subtract(x_h.values, out, out=out)
    out[: model.order_p] = 0.0
    return x_h.with_values(out)


def r2_score(actual: TimeSeries, predicted: TimeSeries) -> float:
    """Coefficient of determination 1 - RSS/TSS of predicted against actual.

    Both sums of squares are taken in one buffer, each square as x * x.  A
    mean, TSS or RSS that overflows is a NumericError.
    """
    if len(actual) != len(predicted):
        raise DataError(f"length mismatch: {len(actual)} vs {len(predicted)}")
    if len(actual) < 2:
        raise DataError("need at least 2 samples")
    a = actual.values
    with np.errstate(over="ignore", invalid="ignore"):
        mean = a.mean()
        d = a - mean
        d *= d
        tss = float(np.sum(d))
        np.subtract(a, predicted.values, out=d)
        d *= d
        rss = float(np.sum(d))
    for name, value in (("mean", mean), ("TSS", tss), ("RSS", rss)):
        if not math.isfinite(value):
            raise NumericError(f"R2 is not finite: the {name} overflows")
    if tss <= 0.0:
        raise NumericError("actual series has zero variance")
    return 1.0 - rss / tss


def save_ar_model(model: ArModel, path: str, header_comments: list[str] | None = None) -> None:
    """Persist as key=value text; floats carry 17 significant digits."""
    rows = (
        f"p={model.order_p}",
        f"c={model.intercept_c:.17g}",
        "alpha=" + ",".join(f"{v:.17g}" for v in model.coeffs_alpha),
        f"sigma2={model.sigma2:.17g}",
    )
    write_table(path, header_comments or [], None, (rows,))
