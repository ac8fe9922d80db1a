"""Prediction analyses (§IV-A Figs 12-13 + Table IV; abstract finding 2).

Two predictors are implemented:

* **Source dispersion forecasting** — fit an ARIMA model to the first
  half of a family's geolocation-distance series and predict the rest
  with rolling one-step forecasts, exactly the paper's protocol.  The
  Table IV comparison (mean / std / cosine similarity) comes from
  :func:`repro.timeseries.metrics.compare_forecast`.

* **Next-attack-time prediction** — for targets hit repeatedly, the
  inter-attack intervals show strong patterns (§III-B); fitting the
  interval series predicts when the next attack on that target starts.

The default-protocol forecast is memoized on the shared
:class:`AnalysisContext` (Table IV and the CLI ``predict`` subcommand
share it), and both predictors consume context views — the dispersion
series and the per-target attack index — instead of rescanning columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..timeseries.arima import ARIMA, ARIMAFit
from ..timeseries.metrics import ForecastComparison, compare_forecast, error_rates
from ..timeseries.order_selection import select_order
from .context import AnalysisContext, AnalysisSource
from .geolocation import SYMMETRY_TOLERANCE_KM

__all__ = [
    "DispersionForecast",
    "predict_family_dispersion",
    "NextAttackPrediction",
    "predict_next_attack_time",
    "MIN_SERIES_POINTS",
]

#: Minimum series length to train on (the paper drops Darkshell for lack
#: of data points).
MIN_SERIES_POINTS = 40

#: The paper's fixed ARIMA order (the default protocol).
DEFAULT_ORDER = (2, 1, 2)


@dataclass(frozen=True)
class DispersionForecast:
    """Figs 12-13 / Table IV material for one family."""

    family: str
    order: tuple[int, int, int]
    train: np.ndarray
    truth: np.ndarray
    prediction: np.ndarray
    errors: np.ndarray
    comparison: ForecastComparison
    fit: ARIMAFit


def _dispersion_series(
    ctx: AnalysisContext, family: str, asymmetric_only: bool
) -> np.ndarray:
    """A family's dispersion values in time order.

    Table IV's ground-truth means match the *asymmetric* component of the
    distributions (e.g. Blackenergy ≈ 3,970 km), so by default the
    symmetric (≈0) snapshots are removed before modelling — they would
    otherwise dominate the series with zeros.
    """
    _, values = ctx.attack_dispersions(family)
    if asymmetric_only:
        values = values[values >= SYMMETRY_TOLERANCE_KM]
    return values


def predict_family_dispersion(
    source: AnalysisSource,
    family: str,
    order: tuple[int, int, int] | None = DEFAULT_ORDER,
    train_fraction: float = 0.5,
    asymmetric_only: bool = True,
) -> DispersionForecast:
    """Train on the first half of the dispersion series, predict the rest.

    ``order=None`` runs an AIC grid search instead of the fixed ARIMA
    order (the ablation benchmark compares both).  Raises ``ValueError``
    when the family has too few points — the paper makes the same call
    for Darkshell.  The default protocol is memoized on the shared
    context.
    """
    ctx = AnalysisContext.of(source)
    if order == DEFAULT_ORDER and train_fraction == 0.5 and asymmetric_only:
        return ctx.dispersion_forecast(family)
    return _predict_family_dispersion(ctx, family, order, train_fraction, asymmetric_only)


def _predict_family_dispersion(
    ctx: AnalysisContext,
    family: str,
    order: tuple[int, int, int] | None = DEFAULT_ORDER,
    train_fraction: float = 0.5,
    asymmetric_only: bool = True,
) -> DispersionForecast:
    if not 0.1 <= train_fraction <= 0.9:
        raise ValueError(f"train_fraction out of [0.1, 0.9]: {train_fraction}")
    series = _dispersion_series(ctx, family, asymmetric_only)
    if series.size < MIN_SERIES_POINTS:
        raise ValueError(
            f"{family}: only {series.size} usable dispersion points "
            f"(need {MIN_SERIES_POINTS}); not enough data to train"
        )
    split = int(series.size * train_fraction)
    train, test = series[:split], series[split:]
    if order is None:
        search = select_order(train, max_p=2, max_d=1, max_q=2)
        fit = search.best_fit
        chosen = search.best_order
    else:
        fit = ARIMA(order).fit(train)
        chosen = order
    prediction = fit.rolling_forecast(test)
    # Dispersion values are non-negative by definition; clamp the model.
    prediction = np.maximum(prediction, 0.0)
    return DispersionForecast(
        family=family,
        order=chosen,
        train=train,
        truth=test,
        prediction=prediction,
        errors=error_rates(test, prediction),
        comparison=compare_forecast(test, prediction),
        fit=fit,
    )


@dataclass(frozen=True)
class NextAttackPrediction:
    """Start-time prediction for the next attack on one target."""

    target_index: int
    n_attacks: int
    last_attack_at: float
    predicted_next_at: float
    predicted_interval: float
    interval_mean: float
    interval_std: float


def predict_next_attack_time(
    source: AnalysisSource, target_index: int, min_attacks: int = 5
) -> NextAttackPrediction:
    """Predict when the given target will be attacked next.

    Uses the target's inter-attack interval series: an AR(1) one-step
    forecast when there is enough history, otherwise the mean interval.
    Raises ``ValueError`` for targets without enough repeat attacks.
    """
    ctx = AnalysisContext.of(source)
    # The per-target grouped index replaces a full-column mask per call;
    # attack indices are chronological, so the starts arrive sorted.
    starts = ctx.dataset.start[ctx.target_attacks(int(target_index))]
    if starts.size < min_attacks:
        raise ValueError(
            f"target {target_index} was attacked {starts.size} times; "
            f"need at least {min_attacks} for interval prediction"
        )
    intervals = np.diff(starts)
    if intervals.size >= MIN_SERIES_POINTS:
        fit = ARIMA((1, 0, 0)).fit(intervals)
        predicted = float(max(fit.forecast(1)[0], 0.0))
    else:
        predicted = float(np.mean(intervals))
    last = float(starts[-1])
    return NextAttackPrediction(
        target_index=int(target_index),
        n_attacks=int(starts.size),
        last_attack_at=last,
        predicted_next_at=last + predicted,
        predicted_interval=predicted,
        interval_mean=float(np.mean(intervals)),
        interval_std=float(np.std(intervals)),
    )
