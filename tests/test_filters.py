"""High-pass design/application and AR prediction-error filtering.

Derived expectations come from three independent oracles defined here:
a direct transfer-function evaluation on the expanded rational polynomial,
an explicit-recursion AR simulator, and a normal-equation OLS solver.
"""

import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import lfilter, sosfilt

from geyserstate.config import default_config, label_policy, synth_config
from geyserstate.errors import ConfigError, DataError, NumericError
from geyserstate.filters import (
    FILTER_BLOCK,
    ArModel,
    FilterCascade,
    _ols_ar,
    apply_filter,
    ar_predict_one_step,
    design_butterworth_highpass,
    fit_ar,
    pef,
    r2_score,
    save_ar_model,
)
from geyserstate.synth import generate
from geyserstate.timeseries import (
    CLASS_ERUPTION,
    CLASS_PRECURSOR,
    TimeSeries,
    sample_classes,
    select_noise_segment,
)

FS = 200.0


# -- oracles -------------------------------------------------------------------

def oracle_gain(order, corner_hz, fs_hz, f_hz):
    """Closed-form Butterworth high-pass magnitude for a pre-warped bilinear
    design: |H|^2 = 1 / (1 + (W_c/W)^(2N)) with W = 2 fs tan(pi f / fs).
    Exact at every frequency and numerically stable in the deep stopband."""
    w = math.tan(math.pi * f_hz / fs_hz)
    wc = math.tan(math.pi * corner_hz / fs_hz)
    return 1.0 / math.sqrt(1.0 + (wc / w) ** (2 * order))


def oracle_gain_poly(cascade, f_hz):
    """Second, coefficient-level oracle: expand the cascade into one rational
    polynomial in z^-1 and evaluate it directly.  Only trustworthy where the
    numerator does not cancel catastrophically (passband and transition)."""
    num = np.array([1.0])
    den = np.array([1.0])
    for b0, b1, b2, a1, a2 in cascade.sections:
        num = np.polymul(num, [b0, b1, b2])
        den = np.polymul(den, [1.0, a1, a2])
    zi = np.exp(-2j * np.pi * f_hz / cascade.fs_hz)
    return abs(np.polyval(num[::-1], zi) / np.polyval(den[::-1], zi))


def simulate_ar(coeffs, c, sigma, n, seed, burn=2000):
    """Explicit-recursion AR path with burn-in discarded."""
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, sigma, n + burn)
    p = len(coeffs)
    x = np.zeros(n + burn)
    for t in range(p, n + burn):
        acc = c
        for i in range(p):
            acc += coeffs[i] * x[t - 1 - i]
        x[t] = acc + eps[t]
    return x[burn:]


def ols_oracle(x, p):
    """Normal-equation AR fit; returns (beta, rss, aic, standard errors)."""
    n = x.size
    y = x[p:]
    a = np.column_stack([np.ones(n - p)] + [x[p - i : n - i] for i in range(1, p + 1)])
    gram = a.T @ a
    beta = np.linalg.solve(gram, a.T @ y)
    rss = float(np.sum((y - a @ beta) ** 2))
    n_eff = n - p
    aic = n_eff * math.log(rss / n_eff) + 2 * (p + 1)
    se = np.sqrt(rss / n_eff * np.diag(np.linalg.inv(gram)))
    return beta, rss, aic, se


def transposed_df2_filter(cascade, x):
    """Per-sample transposed direct form II through each section, zero state."""
    values = [float(v) for v in x]
    for b0, b1, b2, a1, a2 in cascade.sections:
        out = []
        s1 = s2 = 0.0
        for v in values:
            y = b0 * v + s1
            s1 = b1 * v - a1 * y + s2
            s2 = b2 * v - a2 * y
            out.append(y)
        values = out
    return np.array(values)


# -- butterworth design --------------------------------------------------------

def test_corner_gain_is_half_power():
    cascade = design_butterworth_highpass(4, 0.1, FS)
    assert cascade.gain_at(0.1) == pytest.approx(1 / math.sqrt(2), abs=1e-6)
    assert oracle_gain(4, 0.1, FS, 0.1) == pytest.approx(0.7071, abs=1e-4)
    assert cascade.gain_at(0.1) == pytest.approx(0.7071, abs=1e-4)


def test_dc_null_and_stopband():
    cascade = design_butterworth_highpass(4, 0.1, FS)
    assert cascade.gain_at(0.0) < 1e-8
    assert oracle_gain(4, 0.1, FS, 0.01) <= 10 ** (-60 / 20)
    assert cascade.gain_at(0.01) <= 10 ** (-60 / 20)


def test_passband_flat_at_1hz():
    cascade = design_butterworth_highpass(4, 0.1, FS)
    assert abs(oracle_gain(4, 0.1, FS, 1.0) - 1.0) <= 0.01
    assert cascade.gain_at(1.0) == pytest.approx(oracle_gain(4, 0.1, FS, 1.0), rel=1e-9)


def test_response_matches_analytic_oracle_on_grid():
    cascade = design_butterworth_highpass(4, 0.1, FS)
    for f in [0.01, 0.05, 0.1, 0.3, 1.0, 5.0, 40.0, 99.0]:
        assert cascade.gain_at(f) == pytest.approx(oracle_gain(4, 0.1, FS, f), rel=1e-6)


def test_response_matches_polynomial_oracle_in_passband():
    # The expanded polynomial cancels near z = 1 (the reason the filter runs
    # in section form), so the coefficient-level cross-check gets a tolerance
    # matched to its own conditioning; the analytic oracle is the tight one.
    cascade = design_butterworth_highpass(4, 0.1, FS)
    for f in [0.05, 0.1, 0.3, 1.0]:
        assert cascade.gain_at(f) == pytest.approx(oracle_gain_poly(cascade, f), rel=1e-4)
    for f in [5.0, 40.0, 99.0]:
        assert cascade.gain_at(f) == pytest.approx(oracle_gain_poly(cascade, f), rel=1e-9)


@pytest.mark.parametrize("order", [2, 6, 8])
def test_other_orders_hit_corner(order):
    cascade = design_butterworth_highpass(order, 0.1, FS)
    assert len(cascade.sections) == order // 2
    assert cascade.gain_at(0.1) == pytest.approx(1 / math.sqrt(2), abs=1e-6)


def test_design_validation():
    with pytest.raises(ConfigError, match="unsupported order"):
        design_butterworth_highpass(3, 0.1, FS)
    with pytest.raises(ConfigError, match="Nyquist"):
        design_butterworth_highpass(4, 100.0, FS)
    with pytest.raises(ConfigError, match="Nyquist"):
        design_butterworth_highpass(4, 0.0, FS)


def test_cascade_rejects_unstable_and_dc_leak():
    with pytest.raises(NumericError, match="unstable"):
        FilterCascade(((1.0, -2.0, 1.0, 0.0, 1.01),), 2, 0.1, FS)
    with pytest.raises(NumericError, match="DC null"):
        FilterCascade(((0.5, 0.0, 0.0, 0.0, 0.0),), 2, 0.1, FS)
    with pytest.raises(ConfigError, match="sections"):
        FilterCascade((), 4, 0.1, FS)


def test_poles_strictly_inside_unit_circle():
    for order in (2, 4, 6, 8):
        cascade = design_butterworth_highpass(order, 0.1, FS)
        for _, _, _, a1, a2 in cascade.sections:
            assert np.max(np.abs(np.roots([1.0, a1, a2]))) < 1.0 - 1e-9


# -- filter application --------------------------------------------------------

def test_constant_input_rejected():
    cascade = design_butterworth_highpass(4, 0.1, FS)
    ts = TimeSeries(np.full(10000, 5.0), FS)
    y = apply_filter(cascade, ts).values
    assert np.max(np.abs(y[-1000:])) < 1e-3


def test_passband_sinusoid_amplitude():
    cascade = design_butterworth_highpass(4, 0.1, FS)
    t = np.arange(int(60 * FS)) / FS
    y = apply_filter(cascade, TimeSeries(np.sin(2 * np.pi * 1.0 * t), FS)).values
    steady = np.max(np.abs(y[int(30 * FS):]))
    assert steady == pytest.approx(oracle_gain(4, 0.1, FS, 1.0), rel=0.01)
    assert abs(steady - 1.0) <= 0.01


def test_stopband_sinusoid_suppressed():
    cascade = design_butterworth_highpass(4, 0.1, FS)
    t = np.arange(int(300 * FS)) / FS
    y = apply_filter(cascade, TimeSeries(100.0 * np.sin(2 * np.pi * 0.01 * t), FS)).values
    assert np.max(np.abs(y[int(100 * FS):])) < 0.1


def test_filter_linearity():
    cascade = design_butterworth_highpass(4, 0.1, FS)
    rng = np.random.default_rng(8)
    x = TimeSeries(rng.normal(size=2000), FS)
    y = TimeSeries(rng.normal(size=2000), FS)
    combo = TimeSeries(2.3 * x.values - 1.7 * y.values, FS)
    lhs = apply_filter(cascade, combo).values
    rhs = 2.3 * apply_filter(cascade, x).values - 1.7 * apply_filter(cascade, y).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))


def test_impulse_response_decays_out():
    for order in (2, 4, 6, 8):
        cascade = design_butterworth_highpass(order, 0.1, FS)
        impulse = np.zeros(60000)
        impulse[0] = 1.0
        y = apply_filter(cascade, TimeSeries(impulse, FS)).values
        assert abs(y[-1]) < 1e-12


@pytest.mark.parametrize("order", [2, 4, 6, 8])
def test_filter_equals_per_sample_recursion(order):
    rng = np.random.default_rng(order)
    x = rng.normal(size=5000) * 30.0 + np.cumsum(rng.normal(size=5000))
    cascade = design_butterworth_highpass(order, 0.1, FS)
    y = apply_filter(cascade, TimeSeries(x, FS)).values
    assert np.array_equal(y, transposed_df2_filter(cascade, x))


@pytest.mark.parametrize(
    "n", [1000, FILTER_BLOCK, 2 * FILTER_BLOCK, 2 * FILTER_BLOCK + 777],
    ids=["below-a-block", "one-block", "two-blocks", "off-a-multiple"],
)
@pytest.mark.parametrize("into", ["new", "out", "in-place"])
def test_filter_over_blocks_equals_one_sosfilt_call(n, into):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n) * 30.0 + np.cumsum(rng.normal(size=n)) + 2000.0
    cascade = design_butterworth_highpass(4, 0.1, FS)
    sos = [(b0, b1, b2, 1.0, a1, a2) for b0, b1, b2, a1, a2 in cascade.sections]
    whole = sosfilt(sos, x)
    ts = TimeSeries(x.copy(), FS, t0_s=3.0)
    out = {"new": None, "out": np.empty(n), "in-place": ts.values}[into]
    y = apply_filter(cascade, ts, out)
    assert y.values.tobytes() == whole.tobytes()
    assert y.t0_s == 3.0 and y.fs_hz == FS
    if out is not None:
        assert y.values is out


def test_sample_rate_mismatch():
    cascade = design_butterworth_highpass(4, 0.1, FS)
    with pytest.raises(DataError, match="designed for"):
        apply_filter(cascade, TimeSeries(np.zeros(100) + 1.0, 100.0))


# -- AR fit --------------------------------------------------------------------

def test_fit_recovers_ar2_and_respects_aic():
    x = simulate_ar([0.6, -0.2], 0.0, 1.0, 50000, seed=42)
    ts = TimeSeries(x, FS)
    model = fit_ar(ts, max_order=8, criterion="aic")
    assert model.coeffs_alpha[0] == pytest.approx(0.6, abs=0.02)
    assert model.coeffs_alpha[1] == pytest.approx(-0.2, abs=0.02)
    # every order scored on the rows they share, t = 8..n-1
    oracle_aics = [ols_oracle(x[8 - p :], p)[2] for p in range(1, 9)]
    assert model.aic == pytest.approx(min(oracle_aics), abs=1e-6)


def test_fit_matches_normal_equation_oracle():
    x = simulate_ar([0.6, -0.2], 0.5, 1.0, 20000, seed=1)
    model = fit_ar(TimeSeries(x, FS), max_order=2, criterion="fixed")
    beta, rss, _, _ = ols_oracle(x, 2)
    assert model.intercept_c == pytest.approx(beta[0], rel=1e-8, abs=1e-10)
    assert model.coeffs_alpha == pytest.approx(beta[1:], rel=1e-8)
    assert model.sigma2 == pytest.approx(rss / (20000 - 2), rel=1e-8)
    assert model.n_train == 20000


def test_fit_white_noise_coefficients_vanish():
    rng = np.random.default_rng(7)
    x = rng.normal(0.0, 2.0, 20000)
    model = fit_ar(TimeSeries(x, FS), max_order=16, criterion="aic")
    assert np.max(np.abs(model.coeffs_alpha)) < 0.02
    assert model.sigma2 == pytest.approx(float(np.var(x)), rel=0.05)


def test_fit_constant_signal_degenerate():
    ts = TimeSeries(np.full(1000, 3.0), FS)
    with pytest.raises(NumericError, match="degenerate signal"):
        fit_ar(ts, max_order=4)


def test_fit_validation():
    ts = TimeSeries(np.arange(30.0), FS)
    with pytest.raises(DataError, match="too short"):
        fit_ar(ts, max_order=64)
    # 100 samples leave 36 rows for the 65 columns of an order-64 design
    noise = TimeSeries(np.random.default_rng(0).normal(size=100), FS)
    for criterion in ("aic", "fixed"):
        with pytest.raises(DataError, match="too short"):
            fit_ar(noise, max_order=64, criterion=criterion)
    with pytest.raises(ConfigError, match="criterion"):
        fit_ar(ts, max_order=2, criterion="bic")
    with pytest.raises(ConfigError, match="max_order"):
        fit_ar(ts, max_order=0)


def test_fit_idempotence_within_three_se():
    """Refit on a fresh path from the fitted model lands within 3 SE."""
    x = simulate_ar([0.7, -0.1], 0.0, 1.0, 40000, seed=3)
    first = fit_ar(TimeSeries(x, FS), max_order=2, criterion="fixed")
    resim = simulate_ar(list(first.coeffs_alpha), first.intercept_c,
                        math.sqrt(first.sigma2), 40000, seed=4)
    second = fit_ar(TimeSeries(resim, FS), max_order=2, criterion="fixed")
    _, _, _, se = ols_oracle(resim, 2)
    assert abs(second.intercept_c - first.intercept_c) <= 3 * se[0]
    for i in range(2):
        assert abs(second.coeffs_alpha[i] - first.coeffs_alpha[i]) <= 3 * se[i + 1]


def full_aic_search(x, max_order):
    """The AIC search as one QR fit per order on the rows every order
    shares, t = P..n-1: `_ols_ar(x[P-p:], p)` at every p, and the first p
    with the smallest AIC wins.  Returns (p, beta, rss, aic)."""
    m = x.size - max_order
    best = None
    for p in range(1, max_order + 1):
        beta, rss = _ols_ar(x[max_order - p :], p)
        aic = m * math.log(max(rss / m, 1e-300)) + 2.0 * (p + 1)
        if best is None or aic < best[3]:
            best = (p, beta, rss, aic)
    return best


def _sinusoid(n, noise):
    t = np.arange(n) / FS
    return np.sin(2 * np.pi * 5.0 * t) + noise * np.random.default_rng(5).normal(size=n)


AIC_SEARCH_SIGNALS = {
    "ar2": lambda: simulate_ar([0.6, -0.2], 0.0, 1.0, 50000, seed=42),
    "near-unit-root": lambda: simulate_ar([1.79992, -0.81], 0.0, 0.5, 40000, seed=31),
    "white-noise": lambda: np.random.default_rng(7).normal(0.0, 2.0, 20000),
    "sinusoid-plus-1e-3-noise": lambda: _sinusoid(20000, 1e-3),
    "ar1-dc-offset-1e4": lambda: simulate_ar([0.9], 0.0, 1.0, 20000, seed=3) + 1e4,
}


@pytest.mark.parametrize(
    "name,max_order",
    [(name, 8) for name in AIC_SEARCH_SIGNALS] + [("sinusoid-plus-1e-3-noise", 64)],
)
def test_aic_search_bit_identical_to_qr_at_every_order(name, max_order):
    """The one-QR search picks the order of a per-order QR search on the
    common rows and returns bitwise `_ols_ar(x[P-p:], p)`."""
    x = AIC_SEARCH_SIGNALS[name]()
    p, beta, rss, aic = full_aic_search(x, max_order)
    model = fit_ar(TimeSeries(x, FS), max_order=max_order, criterion="aic")
    assert model.order_p == p
    assert model.intercept_c == beta[0]
    assert np.array_equal(model.coeffs_alpha, beta[1:])
    assert model.sigma2 == rss / (x.size - max_order)
    assert model.aic == aic
    assert model.n_train == x.size


def test_aic_order_does_not_depend_on_units():
    """Scaling the series by s shifts every order's AIC by m ln s^2 alike,
    so an AR(2) gets one order at every scale from 1e-6 to 1e6."""
    x = lfilter([1.0], [1.0, -0.6, 0.2], np.random.default_rng(0).normal(size=20000))
    chosen = {
        k: fit_ar(TimeSeries(x * 10.0**k, FS), max_order=16, criterion="aic").order_p
        for k in range(-6, 7)
    }
    assert len(set(chosen.values())) == 1, chosen


@pytest.mark.parametrize("offset", [0.0, 1e3], ids=["no-offset", "offset-1e3"])
def test_fit_pure_sinusoid_degenerate(offset):
    """A pure tone is an exact AR(2): every higher order's design is rank
    deficient, and QR rejects it."""
    ts = TimeSeries(_sinusoid(20000, 0.0) + offset, FS)
    with pytest.raises(NumericError, match="degenerate signal"):
        fit_ar(ts, max_order=8)


@pytest.mark.parametrize("scale", [1e-13, 1e13])
def test_fit_extreme_amplitude_degenerate(scale):
    """QR's rank test compares the lag pivots with the intercept's, so a
    well-shaped series at 1e-13 or 1e13 scale is rejected."""
    x = simulate_ar([0.6, -0.2], 0.0, scale, 5000, seed=42)
    with pytest.raises(NumericError, match="degenerate signal"):
        fit_ar(TimeSeries(x, FS), max_order=8)


def test_fit_raises_when_qr_rejects_only_higher_orders():
    """At 1e-12 scale QR accepts AR(1)'s design but rejects order 2 and up,
    so the search raises even though order 1 alone would fit."""
    x = simulate_ar([0.9], 0.0, 10.0**-12.1, 5000, seed=3)
    _ols_ar(x, 1)
    with pytest.raises(NumericError, match="degenerate signal"):
        _ols_ar(x, 2)
    with pytest.raises(NumericError, match="degenerate signal"):
        fit_ar(TimeSeries(x, FS), max_order=8)


@pytest.mark.parametrize("name", ["ar2", "ar1-dc-offset-1e4"])
def test_aic_search_logs_orders_screened_and_refit(name, caplog):
    caplog.set_level(logging.DEBUG, logger="geyserstate.filters")
    fit_ar(TimeSeries(AIC_SEARCH_SIGNALS[name](), FS), max_order=8, criterion="aic")
    rows = AIC_SEARCH_SIGNALS[name]().size - 8
    assert re.search(
        rf"AR order search: screened 8 orders on {rows} common rows from one QR, refit p=\d+$",
        caplog.text, re.M,
    )


# -- prediction and PEF --------------------------------------------------------

def test_one_step_prediction_hand_cases():
    m1 = ArModel(order_p=1, intercept_c=0.0, coeffs_alpha=np.array([1.0]), sigma2=0.0)
    out = ar_predict_one_step(m1, TimeSeries(np.array([3.0, 5.0, 7.0]), FS))
    assert list(out.values) == [3.0, 3.0, 5.0]

    m2 = ArModel(order_p=2, intercept_c=1.0, coeffs_alpha=np.array([0.5, 0.25]), sigma2=0.0)
    out2 = ar_predict_one_step(m2, TimeSeries(np.array([4.0, 8.0, 0.0, 0.0]), FS))
    assert out2.values[2] == pytest.approx(1.0 + 0.5 * 8.0 + 0.25 * 4.0)


def test_one_step_prediction_needs_history():
    m = ArModel(order_p=3, intercept_c=0.0, coeffs_alpha=np.zeros(3), sigma2=1.0)
    with pytest.raises(DataError, match="shorter"):
        ar_predict_one_step(m, TimeSeries(np.array([1.0, 2.0]), FS))


def test_prediction_r2_on_predictable_process():
    x = simulate_ar([0.98], 0.0, 1.0, 100000, seed=11)
    ts = TimeSeries(x, FS)
    model = fit_ar(ts.slice(0, 5000), max_order=4, criterion="aic")
    rest = ts.slice(5000, len(ts))
    pred = ar_predict_one_step(model, rest)
    r2 = r2_score(rest.slice(model.order_p, len(rest)),
                  pred.with_values(pred.values).slice(model.order_p, len(rest)))
    assert r2 >= 0.85


def test_pef_variance_matches_innovations():
    x = simulate_ar([0.98], 0.0, 1.0, 100000, seed=13)
    ts = TimeSeries(x, FS)
    model = fit_ar(ts, max_order=4, criterion="aic")
    residual = pef(ts, model)
    var_in = float(np.var(ts.values))
    ratio = float(np.var(residual.values[model.order_p:])) / var_in
    assert ratio == pytest.approx(model.sigma2 / var_in, rel=0.10)
    assert float(np.var(residual.values)) <= var_in


def test_pef_preserves_isolated_spike():
    x = simulate_ar([0.98], 0.0, 1.0, 60000, seed=17)
    spike = 50.0
    x[30000] += spike
    ts = TimeSeries(x, FS)
    model = fit_ar(ts.slice(0, 5000), max_order=4, criterion="aic")
    residual = pef(ts, model).values
    assert abs(residual[30000]) >= 0.8 * spike


def test_one_step_prediction_matches_the_whole_array_sum():
    """The prediction accumulates in place, term by term in lag order:
    c + a1 x[t-1] + ... + ap x[t-p], bit for bit."""
    rng = np.random.default_rng(23)
    x = rng.normal(size=3000) * 1e3
    alpha = rng.normal(size=7) * 0.3
    m = ArModel(order_p=7, intercept_c=0.125, coeffs_alpha=alpha, sigma2=1.0)
    acc = np.full(x.size - 7, 0.125)
    for i in range(1, 8):
        acc = acc + alpha[i - 1] * x[7 - i : x.size - i]
    pred = ar_predict_one_step(m, TimeSeries(x, FS)).values
    assert pred[7:].tobytes() == acc.tobytes()
    assert pred[:7].tobytes() == x[:7].tobytes()
    resid = pef(TimeSeries(x, FS), m).values
    assert resid[7:].tobytes() == (x[7:] - acc).tobytes()


def test_pef_zero_input_and_alignment():
    m = ArModel(order_p=2, intercept_c=0.0, coeffs_alpha=np.array([0.5, 0.2]), sigma2=1.0)
    zero = TimeSeries(np.full(100, 1e-300), FS)  # effectively zero, passes non-empty checks
    out = pef(zero, m)
    assert np.allclose(out.values, 0.0, atol=1e-290)
    rng = np.random.default_rng(19)
    ts = TimeSeries(rng.normal(size=500), FS, t0_s=7.0)
    resid = pef(ts, m)
    pred = ar_predict_one_step(m, ts)
    assert np.array_equal(resid.values[2:], ts.values[2:] - pred.values[2:])
    assert np.all(resid.values[:2] == 0.0)
    assert resid.t0_s == ts.t0_s and resid.fs_hz == ts.fs_hz


# -- r2 ------------------------------------------------------------------------

def test_r2_hand_cases():
    a = TimeSeries(np.array([1.0, 2.0, 3.0]), FS)
    assert r2_score(a, a) == pytest.approx(1.0)
    assert r2_score(a, a.with_values(np.full(3, 2.0))) == pytest.approx(0.0)
    assert r2_score(a, a.with_values(np.array([1.0, 2.0, 4.0]))) == pytest.approx(0.5)


def test_r2_validation():
    a = TimeSeries(np.array([1.0, 2.0, 3.0]), FS)
    with pytest.raises(DataError, match="length"):
        r2_score(a, TimeSeries(np.array([1.0, 2.0]), FS))
    with pytest.raises(NumericError, match="zero variance"):
        r2_score(TimeSeries(np.full(3, 2.0), FS), a)


@pytest.mark.parametrize(
    "actual, predicted, named",
    [
        ([1e308, 1.7e308, -1e308], [0.0, 0.0, 0.0], "mean"),
        ([1e308, -1e308, 0.0], [0.0, 0.0, 0.0], "TSS"),
        ([1.0, 2.0, 3.0], [1e308, -1e308, 0.0], "RSS"),
    ],
    ids=["mean", "tss", "rss"],
)
def test_r2_whose_sums_overflow_is_a_numeric_error(actual, predicted, named):
    """No RuntimeWarning (the test config makes one an error) and no NaN."""
    a = TimeSeries(np.array(actual), FS)
    with pytest.raises(NumericError, match=f"R2 is not finite: the {named} overflows"):
        r2_score(a, a.with_values(np.array(predicted)))


def test_r2_squares_as_the_power_of_two():
    rng = np.random.default_rng(29)
    a = rng.normal(size=4001) * 7.0 + 3.0
    p = a + rng.normal(size=a.size)
    expected = 1.0 - float(np.sum((a - p) ** 2)) / float(np.sum((a - a.mean()) ** 2))
    assert r2_score(TimeSeries(a, FS), TimeSeries(p, FS)) == expected


# -- persistence ---------------------------------------------------------------

def test_ar_model_roundtrip(tmp_path):
    """Each written line parses back with float()/int() to the exact value."""
    x = simulate_ar([0.6, -0.2], 0.1, 1.0, 5000, seed=23)
    model = fit_ar(TimeSeries(x, FS), max_order=5, criterion="aic")
    path = tmp_path / "ar.txt"
    save_ar_model(model, str(path), header_comments=["seed=23"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=23"
    fields = dict(line.split("=", 1) for line in lines[1:])
    assert list(fields) == ["p", "c", "alpha", "sigma2"]
    assert int(fields["p"]) == model.order_p
    assert float(fields["c"]) == model.intercept_c
    alpha = [float(v) for v in fields["alpha"].split(",")]
    assert np.array_equal(alpha, model.coeffs_alpha)
    assert float(fields["sigma2"]) == model.sigma2


# -- two-stage chain property ----------------------------------------------------

def test_chain_suppresses_ambient_while_keeping_transient():
    """After the high-pass, the prediction-error stage must cut the remaining
    stationary noise variance at least in half while an isolated transient
    keeps at least 80% of its amplitude."""
    n = 120000
    rng = np.random.default_rng(31)
    drift = 40.0 * np.sin(2 * np.pi * 0.01 * np.arange(n) / FS)
    ambient = simulate_ar([1.79992, -0.81], 0.0, 0.5, n, seed=31)
    raw = drift + ambient
    spike_at = 70000
    spike = 25.0
    raw[spike_at] += spike

    cascade = design_butterworth_highpass(4, 0.1, FS)
    x_h = apply_filter(cascade, TimeSeries(raw, FS))
    quiet = x_h.slice(5000, 45000)  # away from both the spike and the warm-up
    model = fit_ar(quiet, max_order=8, criterion="aic")
    residual = pef(x_h, model)

    retained = abs(residual.values[spike_at]) / spike
    assert retained >= 0.80

    var_bh = float(np.var(x_h.values[5000:45000]))
    var_pef = float(np.var(residual.values[5000:45000]))
    assert var_pef <= 0.5 * var_bh



def _power_db(num: np.ndarray, den: np.ndarray) -> float:
    return 10 * math.log10(float(np.sum(num**2)) / float(np.sum(den**2)))


def test_pef_raises_the_event_snr_of_the_default_synth():
    """The paper's filtering claim, measured on the default synth at seed 42
    (with the amplitude cap off, as in bench/default.cfg).

    By the synth's draw-order contract, the same config with no events gives
    the noise layers bit for bit, so `full - noise` is the event layer.  The
    high-pass is linear, and so is the PEF for the model `filter` fits, once
    its intercept cancels in the difference; so each stage's SNR in the
    Class-2 and Class-3 spans is exact.  Measured at seed 42: the PEF raises
    it by 13.1 and 19.8 dB over the high-pass, while the event layer loses
    11.2 (chirp) and 5.5 dB (tone).  Both floors were fixed beforehand: 6 dB
    is under half the smallest gain, and -20 dB far below either loss.
    """
    values = default_config()
    values["synth.enforce_amplitude_cap"] = False
    config, policy = synth_config(values, 42), label_policy(values)
    raw, events = generate(config)
    noise, _ = generate(replace(config, event_times_s=()))
    cascade = design_butterworth_highpass(
        values["filter.order"], values["filter.corner_hz"], raw.fs_hz
    )
    bh, bh_noise = apply_filter(cascade, raw), apply_filter(cascade, noise)
    segment = select_noise_segment(bh, events, values["ar.train_fraction"], policy)
    model = fit_ar(segment, values["ar.max_order"], values["ar.criterion"])
    residual, residual_noise = pef(bh, model), pef(bh_noise, model)
    classes = sample_classes(raw, events, policy)
    for cls in (CLASS_PRECURSOR, CLASS_ERUPTION):
        span = classes == cls
        noise_bh, noise_pef = bh_noise.values[span], residual_noise.values[span]
        event_bh = bh.values[span] - noise_bh
        event_pef = residual.values[span] - noise_pef
        gain = _power_db(event_pef, noise_pef) - _power_db(event_bh, noise_bh)
        assert gain >= 6.0, f"class {cls}: the PEF raises the SNR by {gain:.1f} dB"
        loss = _power_db(event_pef, event_bh)
        assert loss >= -20.0, f"class {cls}: the PEF takes {-loss:.1f} dB of the events"
