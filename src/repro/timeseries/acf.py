"""Autocorrelation tooling: ACF, PACF and a Ljung-Box whiteness test.

These are the diagnostics a standard ARIMA workflow needs: the ACF/PACF
guide order selection, and the Ljung-Box statistic checks that the fitted
model's residuals look like white noise.
"""

from __future__ import annotations

import numpy as np

__all__ = ["acf", "pacf", "ljung_box"]


def acf(series, nlags: int) -> np.ndarray:
    """Sample autocorrelation function for lags ``0..nlags``.

    Uses the standard biased estimator (divides by ``n``), which keeps the
    estimated autocovariance sequence positive semi-definite — a property
    the Durbin-Levinson recursion in :func:`pacf` relies on.
    """
    y = np.asarray(series, dtype=float)
    n = y.size
    if n < 2:
        raise ValueError(f"need at least 2 observations, got {n}")
    if nlags < 0:
        raise ValueError(f"nlags must be non-negative, got {nlags}")
    nlags = min(nlags, n - 1)
    y = y - y.mean()
    denom = float(np.dot(y, y))
    if denom == 0.0:
        # Constant series: autocorrelation is undefined; by convention
        # return 1 at lag 0 and 0 elsewhere.
        out = np.zeros(nlags + 1)
        out[0] = 1.0
        return out
    out = np.empty(nlags + 1)
    out[0] = 1.0
    for k in range(1, nlags + 1):
        out[k] = float(np.dot(y[:-k], y[k:])) / denom
    return out


def pacf(series, nlags: int) -> np.ndarray:
    """Partial autocorrelation function via the Durbin-Levinson recursion.

    Returns lags ``0..nlags`` with ``pacf[0] == 1``.
    """
    rho = acf(series, nlags)
    nlags = rho.size - 1
    out = np.empty(nlags + 1)
    out[0] = 1.0
    if nlags == 0:
        return out
    phi_prev = np.zeros(0)
    for k in range(1, nlags + 1):
        if k == 1:
            phi_kk = rho[1]
            phi_new = np.array([phi_kk])
        else:
            num = rho[k] - float(np.dot(phi_prev, rho[k - 1 : 0 : -1]))
            den = 1.0 - float(np.dot(phi_prev, rho[1:k]))
            phi_kk = num / den if abs(den) > 1e-12 else 0.0
            phi_new = np.empty(k)
            phi_new[:-1] = phi_prev - phi_kk * phi_prev[::-1]
            phi_new[-1] = phi_kk
        out[k] = phi_kk
        phi_prev = phi_new
    return out


def ljung_box(residuals, nlags: int = 10, fitted_params: int = 0) -> tuple[float, float]:
    """Ljung-Box portmanteau test on residuals.

    Returns ``(Q statistic, p-value)``.  ``fitted_params`` is subtracted
    from the degrees of freedom (``p + q`` for an ARMA fit).  A large
    p-value means we cannot reject residual whiteness.
    """
    from scipy import stats

    r = np.asarray(residuals, dtype=float)
    n = r.size
    if n <= nlags:
        raise ValueError(f"need more than nlags={nlags} residuals, got {n}")
    rho = acf(r, nlags)[1:]
    q = n * (n + 2) * float(np.sum(rho**2 / (n - np.arange(1, nlags + 1))))
    dof = max(1, nlags - fitted_params)
    pvalue = float(stats.chi2.sf(q, dof))
    return q, pvalue
