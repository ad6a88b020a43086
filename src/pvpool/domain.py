"""Shared data model for the collective PV-plus-storage pipeline.

Every type validates its own invariants on construction and keeps its array
fields write-protected, so downstream code can share instances freely.  No
algorithms live here; planning, allocation and operation import these types.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# solver outputs may undershoot zero by rounding noise; anything worse
# than this is a real sign error
_NONNEG_TOL = 1e-9


class DomainError(ValueError):
    """Invalid domain data; carries every detected problem in .errors."""

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# present_value_factor sums one discount factor per year of the horizon
MAX_HORIZON_YEARS = 100


def is_number(value):
    """A finite number given as an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def is_count(value):
    """A period count: a whole number >= 1 given as a number, not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) \
        and float(value).is_integer() and value >= 1


def probability_problems(probabilities):
    """Why a vector is not scenario probabilities, empty if it is: they are
    a nonempty vector of finite, nonnegative numbers summing to 1 within
    1e-9."""
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.ndim != 1 or not probs.size:
        return ["probabilities must be a nonempty vector"]
    if not np.isfinite(probs).all() or np.any(probs < 0):
        return ["probabilities must be finite and nonnegative"]
    return [] if abs(probs.sum() - 1.0) <= 1e-9 else ["probabilities sum != 1"]


def _frozen(values, dtype=np.float64):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _clamped_nonneg(values, what):
    """Copy, reject genuine negatives, zero out rounding noise."""
    arr = np.array(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} entries must be finite")
    if np.any(arr < -_NONNEG_TOL):
        raise DomainError(f"{what} entries must be nonnegative")
    np.maximum(arr, 0.0, out=arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeGrid:
    """Uniform discretization: period length in hours and period count."""

    delta_hours: float
    num_periods: int
    periods_per_year: int = 17520  # 30-minute metering intervals

    def __post_init__(self):
        errors = []
        if not (np.isfinite(self.delta_hours) and self.delta_hours > 0):
            errors.append("delta_hours must be positive")
        for name in ("num_periods", "periods_per_year"):
            if not is_count(getattr(self, name)):
                errors.append(f"{name} must be a positive integer")
        if errors:
            raise DomainError(errors)
        object.__setattr__(self, "delta_hours", float(self.delta_hours))
        object.__setattr__(self, "num_periods", int(self.num_periods))
        object.__setattr__(self, "periods_per_year", int(self.periods_per_year))


def _load_problems(values, consumer_ids):
    problems = []
    if values.ndim != 2:
        problems.append("load values must be a periods x consumers matrix")
        return problems
    if len(consumer_ids) != values.shape[1]:
        problems.append("consumer id count must match load columns")
    if len(set(consumer_ids)) != len(consumer_ids):
        problems.append("consumer ids must be unique")
    if not np.isfinite(values).all():
        problems.append("load entries must be finite")
    elif np.any(values < 0):
        problems.append("negative load")
    return problems


@dataclass(frozen=True)
class LoadMatrix:
    """Metered consumption in kWh per period, one column per consumer."""

    values: np.ndarray
    consumer_ids: tuple

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
        ids = tuple(str(c) for c in self.consumer_ids)
        problems = _load_problems(values, ids)
        if problems:
            raise DomainError(problems)
        object.__setattr__(self, "values", _frozen(values))
        object.__setattr__(self, "consumer_ids", ids)

    @property
    def num_periods(self):
        return self.values.shape[0]

    @property
    def num_consumers(self):
        return self.values.shape[1]

    def aggregate(self):
        """Total load per period (the collective's l)."""
        return self.values.sum(axis=1)


def _solar_problems(alphas, probabilities):
    problems = []
    if alphas.ndim != 2:
        problems.append("alphas must be a periods x scenarios matrix")
        return problems
    if probabilities.shape != (alphas.shape[1],):
        problems.append("probability count must match scenario columns")
    if not np.isfinite(alphas).all():
        problems.append("alpha entries must be finite")
    elif np.any(alphas < 0) or np.any(alphas > 1):
        problems.append("alpha out of range [0, 1]")
    return problems + probability_problems(probabilities)


@dataclass(frozen=True)
class SolarScenarioSet:
    """Per-unit PV output scenarios (columns) with their probabilities."""

    alphas: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        alphas = np.atleast_2d(np.asarray(self.alphas, dtype=np.float64))
        probs = np.atleast_1d(np.asarray(self.probabilities, dtype=np.float64))
        problems = _solar_problems(alphas, probs)
        if problems:
            raise DomainError(problems)
        object.__setattr__(self, "alphas", _frozen(alphas))
        object.__setattr__(self, "probabilities", _frozen(probs))

    @property
    def num_periods(self):
        return self.alphas.shape[0]

    @property
    def num_scenarios(self):
        return self.alphas.shape[1]


def _tariff_problems(grid_energy_price, fixed_charge, export_price, export_tax,
                     local_price):
    problems = []
    for name, vec in (("grid_energy_price", grid_energy_price),
                      ("export_price", export_price),
                      ("export_tax", export_tax)):
        if vec.ndim != 1:
            problems.append(f"{name} must be a vector")
        elif not np.isfinite(vec).all():
            problems.append(f"{name} entries must be finite")
    if problems:
        return problems
    if np.any(grid_energy_price < 0):
        problems.append("grid_energy_price entries must be nonnegative")
    if not (len(grid_energy_price) == len(export_price) == len(export_tax)):
        problems.append("tariff vectors must share one length")
    if not (np.isfinite(fixed_charge) and fixed_charge >= 0):
        problems.append("fixed charge must be nonnegative")
    if not np.isfinite(local_price) or local_price < 0:
        problems.append("local price must be nonnegative")
    return problems


@dataclass(frozen=True)
class Tariff:
    """Prices seen by the collective, all in EUR.

    grid_energy_price and fixed_charge define each consumer's grid bill as a
    linear function of their per-period deficit; export_price is what the
    operator earns per surplus kWh, export_tax what it owes per surplus kWh,
    and local_price the internal price of locally produced energy.
    """

    grid_energy_price: np.ndarray
    fixed_charge: float
    export_price: np.ndarray
    export_tax: np.ndarray
    local_price: float

    def __post_init__(self):
        price = np.atleast_1d(np.asarray(self.grid_energy_price, dtype=np.float64))
        exp_p = np.atleast_1d(np.asarray(self.export_price, dtype=np.float64))
        exp_t = np.atleast_1d(np.asarray(self.export_tax, dtype=np.float64))
        problems = _tariff_problems(price, float(self.fixed_charge), exp_p,
                                    exp_t, float(self.local_price))
        if problems:
            raise DomainError(problems)
        object.__setattr__(self, "grid_energy_price", _frozen(price))
        object.__setattr__(self, "export_price", _frozen(exp_p))
        object.__setattr__(self, "export_tax", _frozen(exp_t))
        object.__setattr__(self, "fixed_charge", float(self.fixed_charge))
        object.__setattr__(self, "local_price", float(self.local_price))

    @property
    def num_periods(self):
        return self.grid_energy_price.shape[0]


def _catalog_problems(options, label):
    problems = []
    if not options:
        problems.append(f"{label} inverter list must be nonempty")
        return problems
    caps = [cap for cap, _ in options]
    if any(cap < 0 or cost < 0 for cap, cost in options):
        problems.append(f"{label} inverter capacities and costs must be nonnegative")
    if any(b <= a for a, b in zip(caps, caps[1:])):
        problems.append(f"{label} inverter capacities must be strictly increasing")
    return problems


@dataclass(frozen=True)
class InverterCatalog:
    """Available inverter sizes as (capacity kW, cost EUR) pairs."""

    pv_options: tuple
    es_options: tuple

    def __post_init__(self):
        pv = tuple((float(c), float(k)) for c, k in self.pv_options)
        es = tuple((float(c), float(k)) for c, k in self.es_options)
        problems = _catalog_problems(pv, "pv") + _catalog_problems(es, "es")
        if problems:
            raise DomainError(problems)
        object.__setattr__(self, "pv_options", pv)
        object.__setattr__(self, "es_options", es)


@dataclass(frozen=True)
class SubsidyRule:
    """Per-kW construction subsidy granted up to a capacity threshold.

    annual=False treats the grant as one-time revenue in the first year;
    annual=True repeats it every year of the horizon.
    """

    rate_per_kw: float = 0.0
    max_capacity_kw: float = np.inf
    annual: bool = False

    def __post_init__(self):
        errors = []
        if not (np.isfinite(self.rate_per_kw) and self.rate_per_kw >= 0):
            errors.append("subsidy rate must be nonnegative")
        if np.isnan(self.max_capacity_kw) or self.max_capacity_kw < 0:
            errors.append("subsidy capacity threshold must be nonnegative")
        if errors:
            raise DomainError(errors)
        object.__setattr__(self, "rate_per_kw", float(self.rate_per_kw))
        object.__setattr__(self, "max_capacity_kw", float(self.max_capacity_kw))
        object.__setattr__(self, "annual", bool(self.annual))

    def amount(self, pv_capacity_kw):
        """Grant earned by a build of the given size (0 above the threshold)."""
        if pv_capacity_kw <= self.max_capacity_kw:
            return self.rate_per_kw * pv_capacity_kw
        return 0.0


def _tech_econ_problems(p):
    problems = []
    tiers = p.beta_pv_tiers
    if not tiers:
        problems.append("beta_pv_tiers must be nonempty")
    else:
        if tiers[0][0] != 0.0:
            problems.append("first pv cost tier must start at 0 kW")
        thresholds = [t for t, _ in tiers]
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            problems.append("pv cost tier thresholds must be strictly increasing")
        if any(r < 0 for _, r in tiers):
            problems.append("pv cost rates must be nonnegative")
    for name in ("beta_es", "beta_es_use", "beta_mnt", "grid_connection_cost"):
        v = getattr(p, name)
        if not (np.isfinite(v) and v >= 0):
            problems.append(f"{name} must be nonnegative")
    if not (np.isfinite(p.kappa) and p.kappa > 0):
        problems.append("kappa must be positive")
    if not (np.isfinite(p.discount_rate) and p.discount_rate >= 0):
        problems.append("discount_rate must be nonnegative")
    if not (is_count(p.horizon_years)
            and p.horizon_years <= MAX_HORIZON_YEARS):
        problems.append("horizon_years must be a whole number of years from"
                        f" 1 to {MAX_HORIZON_YEARS}")
    if not (0 < p.es_roundtrip_efficiency <= 1):
        problems.append("es_roundtrip_efficiency must lie in (0, 1]")
    return problems


@dataclass(frozen=True)
class TechEconParams:
    """Technology and economics of the installation.

    beta_pv_tiers lists (threshold kW, rate EUR/kW) pairs; the rate whose
    bracket contains the built capacity applies to the whole build, and a
    capacity exactly on a threshold is priced by the later (cheaper) tier.
    beta_es is EUR per kWh of storage energy capacity, kappa the fixed
    energy-to-power ratio in hours, so storage energy = kappa * power.
    """

    beta_pv_tiers: tuple
    beta_es: float
    beta_es_use: float
    beta_mnt: float
    grid_connection_cost: float
    subsidy: SubsidyRule = field(default_factory=SubsidyRule)
    kappa: float = 2.0
    discount_rate: float = 0.03
    horizon_years: int = 20
    es_roundtrip_efficiency: float = 0.9

    def __post_init__(self):
        tiers = tuple((float(t), float(r)) for t, r in self.beta_pv_tiers)
        object.__setattr__(self, "beta_pv_tiers", tiers)
        for name in ("beta_es", "beta_es_use", "beta_mnt",
                     "grid_connection_cost", "kappa", "discount_rate",
                     "es_roundtrip_efficiency"):
            object.__setattr__(self, name, float(getattr(self, name)))
        problems = _tech_econ_problems(self)
        if not isinstance(self.subsidy, SubsidyRule):
            problems.append("subsidy must be a SubsidyRule")
        if problems:
            raise DomainError(problems)
        object.__setattr__(self, "horizon_years", int(self.horizon_years))

    def pv_rate(self, capacity_kw):
        """Per-kW PV cost for a build of the given total size."""
        rate = self.beta_pv_tiers[0][1]
        for threshold, tier_rate in self.beta_pv_tiers:
            if capacity_kw >= threshold:
                rate = tier_rate
        return rate

    def present_value_factor(self):
        """Sum of yearly discount factors over the horizon."""
        r = self.discount_rate
        return float(sum((1.0 + r) ** (-a) for a in range(1, self.horizon_years + 1)))


@dataclass(frozen=True)
class SizingDecision:
    """Chosen capacities and inverters; the plan the investor builds.

    Inverter index None with zero capacity and cost denotes the null option
    (nothing installed on that side).  The storage energy-to-power coupling
    is established by the sizing solver that constructs instances.
    """

    pv_capacity_kw: float
    es_power_kw: float
    es_energy_kwh: float
    pv_inverter_index: int | None
    pv_inverter_capacity_kw: float
    pv_inverter_cost: float
    es_inverter_index: int | None
    es_inverter_capacity_kw: float
    es_inverter_cost: float

    def __post_init__(self):
        errors = []
        for name in ("pv_capacity_kw", "es_power_kw", "es_energy_kwh",
                     "pv_inverter_capacity_kw", "pv_inverter_cost",
                     "es_inverter_capacity_kw", "es_inverter_cost"):
            v = float(getattr(self, name))
            if not (np.isfinite(v) and v >= -_NONNEG_TOL):
                errors.append(f"{name} must be nonnegative")
            object.__setattr__(self, name, max(v, 0.0))
        if self.pv_capacity_kw > self.pv_inverter_capacity_kw + 1e-9:
            errors.append("pv capacity exceeds its inverter rating")
        if self.es_power_kw > self.es_inverter_capacity_kw + 1e-9:
            errors.append("es power exceeds its inverter rating")
        for side in ("pv", "es"):
            idx = getattr(self, f"{side}_inverter_index")
            if idx is None:
                if getattr(self, f"{side}_inverter_capacity_kw") != 0.0 \
                        or getattr(self, f"{side}_inverter_cost") != 0.0:
                    errors.append(f"null {side} inverter must have zero capacity and cost")
            elif int(idx) != idx or idx < 0:
                errors.append(f"{side} inverter index must be None or a nonnegative integer")
            else:
                object.__setattr__(self, f"{side}_inverter_index", int(idx))
        if errors:
            raise DomainError(errors)

    @property
    def builds_anything(self):
        return self.pv_inverter_index is not None or self.es_inverter_index is not None


@dataclass(frozen=True)
class DispatchSeries:
    """One scenario's energy flows in kWh per period.

    charge/discharge are battery flows, pv_gen the production, grid_import
    the collective's residual purchase, surplus the exported remainder and
    to_consumers the locally served energy; soc has one extra entry for the
    initial state.
    """

    charge: np.ndarray
    discharge: np.ndarray
    pv_gen: np.ndarray
    grid_import: np.ndarray
    surplus: np.ndarray
    to_consumers: np.ndarray
    soc: np.ndarray

    def __post_init__(self):
        fields = ("charge", "discharge", "pv_gen", "grid_import", "surplus",
                  "to_consumers", "soc")
        for name in fields:
            arr = _clamped_nonneg(np.atleast_1d(getattr(self, name)), name)
            object.__setattr__(self, name, arr)
        t = self.charge.shape[0]
        same = all(getattr(self, n).shape == (t,) for n in fields[:-1])
        if not same or self.soc.shape != (t + 1,):
            raise DomainError("dispatch series lengths are inconsistent")

    @property
    def num_periods(self):
        return self.charge.shape[0]


def check_dispatch(series, aggregate_load, tol=1e-6):
    """Cross-check a dispatch against the aggregate load it should serve.

    Returns human-readable violation strings: served + imported energy must
    reconstruct the load each period, and import and surplus must never
    overlap beyond rounding (simultaneous buy and sell is a modeling error).
    """
    load = np.asarray(aggregate_load, dtype=np.float64)
    problems = []
    if load.shape != (series.num_periods,):
        return ["aggregate load length does not match the dispatch"]
    gap = series.to_consumers + series.grid_import - load
    for t in np.flatnonzero(np.abs(gap) > tol):
        problems.append(
            f"period {t}: served {series.to_consumers[t]:.9g} + import "
            f"{series.grid_import[t]:.9g} != load {load[t]:.9g}")
    overlap = np.minimum(series.grid_import, series.surplus)
    for t in np.flatnonzero(overlap > tol):
        problems.append(
            f"period {t}: import and surplus overlap by {overlap[t]:.9g} kWh")
    return problems


@dataclass(frozen=True)
class RepartitionKey:
    """Per-period split of locally served energy across consumers (kWh)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
        arr = _clamped_nonneg(values, "key")
        object.__setattr__(self, "values", arr)

    @property
    def num_periods(self):
        return self.values.shape[0]

    @property
    def num_consumers(self):
        return self.values.shape[1]


def check_key(key, loads, served, tol=1e-8):
    """Validate a repartition key against loads and served energy.

    The two defining conditions: no consumer ever receives more than their
    load, and each period distributes exactly min(served, total load).
    Returns violation strings, empty when the key is valid.
    """
    g = np.asarray(served, dtype=np.float64)
    lv = loads.values if isinstance(loads, LoadMatrix) else np.asarray(loads, dtype=np.float64)
    kv = key.values if isinstance(key, RepartitionKey) else np.asarray(key, dtype=np.float64)
    problems = []
    if kv.shape != lv.shape:
        return ["key shape does not match loads"]
    if g.shape != (lv.shape[0],):
        return ["served energy length does not match loads"]
    over = kv - lv
    for t, i in zip(*np.nonzero(over > tol)):
        problems.append(
            f"period {t} consumer {i}: allocated {kv[t, i]:.9g} exceeds load {lv[t, i]:.9g}")
    if np.any(kv < -tol):
        problems.append("key has negative entries")
    target = np.minimum(g, lv.sum(axis=1))
    gap = kv.sum(axis=1) - target
    for t in np.flatnonzero(np.abs(gap) > tol):
        problems.append(
            f"period {t}: row sum {kv[t].sum():.12g} != min(served, load) {target[t]:.12g}")
    return problems


@dataclass(frozen=True)
class RealizedTrajectory:
    """What actually happened: realized per-unit solar and realized loads."""

    alphas: np.ndarray
    loads: np.ndarray

    def __post_init__(self):
        alphas = np.atleast_1d(np.asarray(self.alphas, dtype=np.float64))
        loads = np.atleast_2d(np.asarray(self.loads, dtype=np.float64))
        errors = []
        if alphas.ndim != 1:
            errors.append("realized alphas must be a vector")
        elif not np.isfinite(alphas).all() or np.any(alphas < 0) or np.any(alphas > 1):
            errors.append("alpha out of range [0, 1]")
        if not np.isfinite(loads).all() or np.any(loads < 0):
            errors.append("negative load")
        if loads.shape[0] != alphas.shape[0]:
            errors.append("realized loads and alphas must share one length")
        if errors:
            raise DomainError(errors)
        object.__setattr__(self, "alphas", _frozen(alphas))
        object.__setattr__(self, "loads", _frozen(loads))

    @property
    def num_periods(self):
        return self.alphas.shape[0]

    @property
    def num_consumers(self):
        return self.loads.shape[1]


@dataclass(frozen=True)
class InputBundle:
    """Cross-validated planning inputs, produced by validate_inputs."""

    grid: TimeGrid
    loads: LoadMatrix
    scenarios: SolarScenarioSet
    tariff: Tariff
    params: TechEconParams


def validate_inputs(grid, loads, scenarios, tariff, params):
    """Check the full input set for consistency and return an InputBundle.

    Each type checks its own invariants when built and is frozen, so only
    the cross-object checks remain: every series must live on the same
    time grid.  Raises DomainError listing all problems at once.
    """
    errors = []
    t = grid.num_periods
    if loads.num_periods != t:
        errors.append(f"loads cover {loads.num_periods} periods, grid has {t}")
    if scenarios.num_periods != t:
        errors.append(f"scenarios cover {scenarios.num_periods} periods, grid has {t}")
    if tariff.num_periods != t:
        errors.append(f"tariff covers {tariff.num_periods} periods, grid has {t}")
    if errors:
        raise DomainError(errors)
    return InputBundle(grid, loads, scenarios, tariff, params)
