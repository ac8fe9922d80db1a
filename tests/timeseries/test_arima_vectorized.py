"""The vectorized forecasting paths match the defining recursions.

``ARIMAFit.forecast`` / ``rolling_forecast`` / ``forecast_interval`` run
scipy's C ``_linear_filter``, loaded from its extension file, seeded by
a port of ``scipy.signal.lfiltic``; these tests pin them against
straightforward per-step reference loops (the textbook recursions)
across the whole order grid, pin the loaded filter, the ``lfiltic`` port
and the prediction band's psi-weights bitwise against the public
``scipy.signal`` functions, pin the CSS fit and its Nelder-Mead port
bitwise against ``scipy.signal.lfilter`` and ``scipy.optimize.minimize``
(the fit through ``tests/oracles/kernels.py``), and pin the order
search's shared-differencing fast path against fitting each candidate
from scratch.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import optimize

from repro.timeseries import arima
from repro.timeseries.arima import ARIMA, ARIMAFit
from repro.timeseries.differencing import integrate_forecast
from repro.timeseries.order_selection import select_order

from ..oracles.kernels import reference_css_fit

ORDERS = [
    (p, d, q) for p in range(4) for d in range(3) for q in range(4)
]


@pytest.fixture(scope="module")
def series():
    rng = np.random.default_rng(3)
    return np.cumsum(rng.normal(0.2, 1.0, 240)) + 50.0


def reference_forecast(fit: ARIMAFit, steps: int) -> np.ndarray:
    """Per-step recursion: future innovations at their zero mean."""
    p, d, q = fit.order
    y_hist = list(fit.train_tail[-max(p, 1):]) if p else []
    eps_hist = list(fit.eps_tail[-q:]) if q else []
    preds = np.empty(steps)
    for h in range(steps):
        pred = fit.const
        if p:
            lags = y_hist[-p:][::-1]
            pred += float(np.dot(fit.phi[: len(lags)], lags))
        if q:
            lags_e = eps_hist[-q:][::-1]
            pred += float(np.dot(fit.theta[: len(lags_e)], lags_e))
        preds[h] = pred
        if p:
            y_hist.append(pred)
        if q:
            eps_hist.append(0.0)
    return integrate_forecast(preds, fit.diff_tail) if d else preds


def reference_rolling(fit: ARIMAFit, series) -> np.ndarray:
    """Per-step walk with truth feedback on the differenced scale."""
    cont = np.asarray(series, dtype=float)
    p, d, q = fit.order
    level_tails = list(fit.diff_tail) if d else []
    y_hist = list(fit.train_tail)
    eps_hist = list(fit.eps_tail)
    preds = np.empty(cont.size)
    for t, truth in enumerate(cont):
        pred_diff = fit.const
        if p:
            lags = y_hist[-p:][::-1]
            pred_diff += float(np.dot(fit.phi[: len(lags)], lags))
        if q and eps_hist:
            lags_e = eps_hist[-q:][::-1]
            pred_diff += float(np.dot(fit.theta[: len(lags_e)], lags_e))
        preds[t] = sum(level_tails) + pred_diff
        truth_diff = truth
        for level in range(d):
            stepped = truth_diff - level_tails[level]
            level_tails[level] = truth_diff
            truth_diff = stepped
        y_hist.append(truth_diff)
        y_hist = y_hist[-(max(p, 1) + 1):]
        if q:
            eps_hist.append(truth_diff - pred_diff)
            eps_hist = eps_hist[-q:]
    return preds


def reference_psi(fit: ARIMAFit, steps: int) -> np.ndarray:
    """psi-weight recursion of the MA(inf) representation."""
    p, q = fit.phi.size, fit.theta.size
    psi = np.zeros(steps)
    for h in range(steps):
        if h == 0:
            value = 1.0
        else:
            value = float(fit.theta[h - 1]) if h - 1 < q else 0.0
            for i in range(min(p, h)):
                value += float(fit.phi[i]) * psi[h - 1 - i]
        psi[h] = value
    return psi


@pytest.mark.parametrize("order", ORDERS)
def test_forecast_matches_reference(series, order):
    fit = ARIMA(order).fit(series[:160])
    np.testing.assert_allclose(fit.forecast(12), reference_forecast(fit, 12),
                               rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("order", ORDERS)
def test_rolling_forecast_matches_reference(series, order):
    fit = ARIMA(order).fit(series[:160])
    np.testing.assert_allclose(
        fit.rolling_forecast(series[160:]), reference_rolling(fit, series[160:]),
        rtol=1e-9, atol=1e-9,
    )


@pytest.mark.parametrize("order", [(2, 1, 2), (3, 0, 1), (0, 2, 3), (1, 0, 0)])
def test_interval_psi_matches_reference(series, order):
    fit = ARIMA(order).fit(series[:160])
    point, lower, upper = fit.forecast_interval(10)
    psi = reference_psi(fit, 10)
    var = fit.sigma2 * np.cumsum(psi**2)
    if fit.order[1]:
        var = fit.sigma2 * np.cumsum(np.cumsum(psi) ** 2)
    half = 1.96 * np.sqrt(var)
    np.testing.assert_allclose(upper - point, half, rtol=1e-9)
    np.testing.assert_allclose(point - lower, half, rtol=1e-9)


def _assert_same_bits(got: ARIMAFit, want: ARIMAFit) -> None:
    for name in ("const", "sigma2", "loglike"):
        assert np.float64(getattr(got, name)).tobytes() == np.float64(
            getattr(want, name)
        ).tobytes(), name
    for name in ("phi", "theta", "eps_tail", "train_tail", "diff_tail"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.order == want.order and got.n_obs == want.n_obs


@pytest.mark.parametrize("order", ORDERS)
def test_memoised_fit_is_bitwise_the_reference(series, order):
    """The fit through the Nelder-Mead port is bitwise the fit through
    ``scipy.optimize.minimize``.  (The id predates the port, when a memo
    sat in front of the objective; it is kept so the 48 case ids stay.)"""
    want, _ = reference_css_fit(order, series[:160])
    _assert_same_bits(ARIMA(order).fit(series[:160]), want)


def test_fit_stops_at_a_fixed_point_with_the_scipy_bits_at_maxiter(monkeypatch):
    """A CSS near 1e9 never meets the absolute ``fatol``: the reference
    runs to ``maxiter``, while the port stops at the simplex's bitwise
    fixed point with the same answer."""
    rng = np.random.default_rng(1)
    y = np.cumsum(rng.normal(0.0, 3000.0, 160)) + 2e5
    order = (2, 1, 2)
    want, result = reference_css_fit(order, y)
    assert result.status == 2 and result.nit == 500 * 5
    assert np.unique(result.final_simplex[1]).size > 1

    calls = []
    original = arima._nelder_mead

    def counted(func, *args, **kwargs):
        def wrapped(x):
            calls.append(1)
            return func(x)

        return original(wrapped, *args, **kwargs)

    monkeypatch.setattr(arima, "_nelder_mead", counted)
    _assert_same_bits(ARIMA(order).fit(y), want)
    # Each pass evaluates at least once: fewer calls than the reference's
    # means the port returned before ``maxiter``.
    assert 0 < len(calls) < result.nfev


# -- the Nelder-Mead port ------------------------------------------------


def _scipy_nelder_mead(func, x0, maxiter, xatol, fatol):
    return optimize.minimize(
        func, x0, method="Nelder-Mead",
        options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol},
    )


def _flat_valley(x):
    """Depends on ``x[0]`` only: vertices that differ elsewhere tie."""
    return float((x[0] - 0.75) ** 2)


def _shifted_bowl(x):
    return float(np.sum((x - np.arange(x.size)) ** 2)) + 1.0


NELDER_MEAD_CASES = [
    # (objective, x0 seed, N, zero entry at, maxiter, xatol, fatol)
    (optimize.rosen, 1, 2, None, 400, 1e-4, 1e-4),
    (optimize.rosen, 2, 2, None, 4000, 0.0, 0.0),
    (optimize.rosen, 3, 5, None, 1000, 1e-6, 1e-8),
    (optimize.rosen, 4, 5, 2, 5000, 0.0, 0.0),
    (_flat_valley, 5, 3, None, 600, 1e-6, 1e-8),
    (_flat_valley, 6, 3, 1, 600, 0.0, 0.0),
    (_shifted_bowl, 7, 1, 0, 500, 0.0, 0.0),
    (_shifted_bowl, 8, 1, None, 200, 1e-4, 1e-4),
    (_shifted_bowl, 9, 5, 0, 5000, 0.0, 0.0),
]


@pytest.mark.parametrize("case", NELDER_MEAD_CASES)
def test_nelder_mead_is_bitwise_scipy(case):
    func, seed, n, zero_at, maxiter, xatol, fatol = case
    x0 = np.random.default_rng(seed).uniform(-2.0, 2.0, n)
    if zero_at is not None:
        x0[zero_at] = 0.0  # the ``zdelt`` branch of the initial simplex
    want = _scipy_nelder_mead(func, x0, maxiter, xatol, fatol)
    got = arima._nelder_mead(func, x0, maxiter, xatol, fatol)
    assert got.dtype == want.x.dtype and got.tobytes() == want.x.tobytes()


# -- the C filter and its initial state -----------------------------------


def _signed_zeros(rng, values: np.ndarray) -> np.ndarray:
    """``values`` with about a quarter of the entries set to ``±0.0``."""
    out = values.copy()
    hit = rng.random(out.size) < 0.25
    out[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    return out


def _assert_bitwise(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("q", [1, 2, 3])
def test_loaded_filter_is_bitwise_lfilter(q, seed):
    """The filter loaded from the extension file is ``lfilter``'s, with
    and without an initial state, for the all-pole ``b == [1.0]`` the
    fit uses and for the longer ``b`` of the psi-weights."""
    from scipy import signal

    rng = np.random.default_rng(seed)
    linear_filter = arima._load_linear_filter()
    a = np.concatenate(([1.0], _signed_zeros(rng, rng.normal(0.0, 0.5, q))))
    x = _signed_zeros(rng, rng.normal(0.0, 10.0, int(rng.integers(1, 40))))
    for b in (np.ones(1), np.concatenate(([1.0], _signed_zeros(rng, rng.normal(size=q))))):
        _assert_bitwise(linear_filter(b, a, x, -1), signal.lfilter(b, a, x))
        zi = _signed_zeros(rng, rng.normal(size=max(a.size, b.size) - 1))
        got, got_zf = linear_filter(b, a, x, -1, zi)
        want, want_zf = signal.lfilter(b, a, x, zi=zi)
        _assert_bitwise(got, want)
        _assert_bitwise(got_zf, want_zf)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("q", [1, 2, 3])
def test_lfiltic_port_is_bitwise_scipy(q, seed):
    """Every history length up to ``len(a) - 1``, the shorter ones
    through the zero padding, with zero coefficients and zero outputs of
    both signs, whose sums are where ``0.0 - s`` and ``-s`` part."""
    from scipy import signal

    rng = np.random.default_rng(seed)
    a = np.concatenate(([1.0], _signed_zeros(rng, rng.normal(0.0, 0.5, q))))
    y = _signed_zeros(rng, rng.normal(0.0, 10.0, q))
    for size in range(q + 1):
        _assert_bitwise(arima._lfiltic(a, y[:size]), signal.lfiltic([1.0], a, y[:size]))
    for zero in (0.0, -0.0):
        _assert_bitwise(arima._lfiltic(a, np.full(q, zero)), signal.lfiltic([1.0], a, np.full(q, zero)))


@pytest.mark.parametrize("order", [(0, 0, 1), (0, 1, 2), (0, 2, 3), (0, 0, 0), (2, 1, 1)])
def test_interval_is_bitwise_lfilter_psi(series, order):
    """The band's psi-weights are ``lfilter``'s: at ``p == 0``, where
    ``a == [1.0]`` and scipy convolves instead of running the C filter,
    with zero MA coefficients of both signs and horizons shorter than
    ``b``, as well as at ``p > 0``."""
    import dataclasses

    from scipy import signal

    fit = ARIMA(order).fit(series[:160])
    fits = [fit]
    if fit.theta.size:
        theta = fit.theta.copy()
        theta[:2] = [0.0, -0.0][: theta.size]
        fits.append(dataclasses.replace(fit, theta=theta))
    for f in fits:
        for steps in (1, 2, 10):
            impulse = np.zeros(steps)
            impulse[0] = 1.0
            psi = signal.lfilter(
                np.concatenate(([1.0], f.theta)), np.concatenate(([1.0], -f.phi)), impulse
            )
            if f.order[1]:
                psi = np.cumsum(psi)
            half = 1.96 * np.sqrt(f.sigma2 * np.cumsum(psi**2))
            point, lower, upper = f.forecast_interval(steps)
            _assert_bitwise(point, f.forecast(steps))
            _assert_bitwise(lower, point - half)
            _assert_bitwise(upper, point + half)


def test_rolling_forecast_empty(series):
    fit = ARIMA((1, 1, 1)).fit(series[:60])
    assert fit.rolling_forecast([]).shape == (0,)


# -- the shared-differencing order search -------------------------------


def test_fit_differenced_equals_fit(series):
    from repro.timeseries.differencing import difference

    y = series[:120]
    for order in [(2, 1, 2), (0, 2, 1), (3, 0, 0)]:
        d = order[1]
        a = ARIMA(order).fit(y)
        b = ARIMA(order).fit_differenced(difference(y, d) if d else y, y)
        assert a.aic == b.aic
        assert a.const == b.const
        np.testing.assert_array_equal(a.phi, b.phi)
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.train_tail, b.train_tail)
        np.testing.assert_array_equal(a.diff_tail, b.diff_tail)
        np.testing.assert_array_equal(a.eps_tail, b.eps_tail)


def test_fit_differenced_rejects_wrong_length(series):
    with pytest.raises(ValueError, match="does not match"):
        ARIMA((1, 1, 0)).fit_differenced(series[:50], series[:60])


def test_select_order_scores_identical_to_naive(series):
    """Differencing once per d must not move a single score."""
    y = series[:150]
    naive = {}
    for d in range(2):
        for p in range(3):
            for q in range(3):
                try:
                    fit = ARIMA((p, d, q)).fit(y)
                except (ValueError, np.linalg.LinAlgError):
                    continue
                if np.isfinite(fit.aic):
                    naive[(p, d, q)] = float(fit.aic)
    result = select_order(y, max_p=2, max_d=1, max_q=2)
    assert result.scores == naive
    assert result.best_order == min(naive, key=naive.get)
