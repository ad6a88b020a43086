"""Shared data model for the collective PV-plus-storage pipeline.

Every type validates its own invariants on construction and keeps its array
fields write-protected, so downstream code can share instances freely.  No
algorithms live here; planning, allocation and operation import these types.

Each rule on a value is stated here once.  The types take plain Python
values (numbers, lists and tuples, as a JSON file gives them) as well as
NumPy scalars and arrays, so a value read from a config file meets the same
rule as one built in code; `io` checks only the file's shape and names the
file in the error.  A number is finite, real and not a bool (`is_number`),
and each message names the field it is about.  So is every entry of an
array field (`number_array`), which is stored as a read-only, C-contiguous
float64 copy; `storage` and `operation` check their numbers here too.
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
    """A finite real number that is not a bool: an int, a float or a NumPy
    integer or floating scalar (any `numbers.Real`)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) \
        and math.isfinite(value)


def is_count(value):
    """A period count: a whole number >= 1 given as a number, not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) \
        and float(value).is_integer() and value >= 1


def is_nonnegative(value):
    return is_number(value) and value >= 0


def is_positive(value):
    return is_number(value) and value > 0


def is_seed(value):
    """A random generator's seed: an unsigned 64-bit integer, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) \
        and 0 <= value < 2**64


def below(values, low):
    """Where values lie below low by more than rounding noise: the entries
    under low that `number_array` refuses (it reads the rest as low)."""
    return np.asarray(values) < low - _NONNEG_TOL


def rule_problems(obj, rules):
    """One message per field of obj that breaks its rule; rules holds
    (field name, test, what the value must be) triples."""
    return [f"{name} must be {what}, not {getattr(obj, name)!r}"
            for name, test, what in rules if not test(getattr(obj, name))]


def _pair_problems(pairs, name, what):
    """Why pairs is not a nonempty list of [what] pairs of nonnegative
    finite numbers whose first entries strictly increase; a bad pair is
    named by its index."""
    if not isinstance(pairs, (list, tuple)) or not pairs:
        return [f"{name} must be a nonempty list of {what} pairs, not {pairs!r}"]
    problems = [f"{name}[{j}] must be {what}, two nonnegative finite numbers,"
                f" not {pair!r}" for j, pair in enumerate(pairs)
                if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                        and all(map(is_nonnegative, pair)))]
    if not problems and any(b[0] <= a[0] for a, b in zip(pairs, pairs[1:])):
        problems.append(f"the first entries of {name} must be strictly increasing")
    return problems


def _float_pairs(pairs):
    return tuple((float(a), float(b)) for a, b in pairs)


_SHAPES = ("a number", "a vector", "a matrix")


def _entry_problem(name, low, high, bad):
    """The message for an entry `bad` that breaks `number_array`'s rule."""
    bounds = {(0.0, math.inf): " and nonnegative", (-math.inf, math.inf): ""}
    what = bounds.get((low, high), f" and in [{low:g}, {high:g}]")
    where = ""
    if is_number(bad):
        where = f"negative {name}: " if bad < 0.0 <= low \
            else f"{name} out of range: "
    return f"{where}{name} must be finite{what}, not {bad!r}"


def number_array(value, name, ndim, low=-math.inf, high=math.inf):
    """value as a read-only, C-contiguous float64 array of ndim dimensions,
    and the problems found; the array is None when there are any.

    A number is a one-entry vector and a vector a one-row matrix, as
    np.atleast_1d and np.atleast_2d read them; more dimensions are refused.
    Every entry is a number (`is_number`: no bool, no text), finite and
    within [low, high], except that an entry less than 1e-9 below low is
    rounding noise and reads as low.  A number or a numeric ndarray is
    checked as a whole; anything else, a list or a tuple say, entry by
    entry, and a ragged nesting, whose entries NumPy leaves as lists,
    tuples or arrays, is refused by its shape.  The array is a copy, so no
    caller's array or view is kept.
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        arr = np.array(value, dtype=np.float64, order="C")
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        arr = np.array(float(value))
    else:
        try:
            cells = np.array(value, dtype=object)
            kinds = set(map(type, cells.flat))
        except ValueError:  # a ragged nesting NumPy cannot make an array
            kinds = {list}
        # one it can make is an array of lists, tuples or arrays
        if any(issubclass(kind, (list, tuple, np.ndarray)) for kind in kinds):
            return None, [f"{name} must be {_SHAPES[ndim]} of numbers"]
        odd = {kind for kind in kinds
               if issubclass(kind, bool) or not issubclass(kind, numbers.Real)}
        if odd:
            bad = next(x for x in cells.flat if type(x) in odd)
            return None, [_entry_problem(name, low, high, bad)]
        arr = cells.astype(np.float64)
    if arr.ndim > ndim:
        return None, [f"{name} must be {_SHAPES[ndim]},"
                      f" not an array of shape {arr.shape}"]
    arr = arr.reshape((1,) * (ndim - arr.ndim) + arr.shape)
    if arr.size:
        # NaN and infinity reach the extremes, so two reductions see all
        lowest, highest = float(arr.min()), float(arr.max())
        if not (math.isfinite(lowest) and math.isfinite(highest)
                and not below(lowest, low) and highest <= high):
            nonfinite = arr[~np.isfinite(arr)]
            if nonfinite.size:
                bad = float(nonfinite[0])
            else:
                bad = lowest if below(lowest, low) else highest
            return None, [_entry_problem(name, low, high, bad)]
        if lowest <= low:
            np.maximum(arr, low, out=arr)
    arr.setflags(write=False)
    return arr, []


def store_numbers(obj, fields):
    """Check each (field, ndim[, low[, high]]) of obj with `number_array`,
    named as the field, and store what passes: an array, or a float for
    ndim 0.  Returns the problems."""
    problems = []
    for name, ndim, *bounds in fields:
        arr, more = number_array(getattr(obj, name), name, ndim, *bounds)
        problems += more
        if arr is not None:
            object.__setattr__(obj, name, float(arr) if ndim == 0 else arr)
    return problems


def probability_array(probabilities):
    """Scenario probabilities as a `number_array` vector and why they are
    not, empty if they are: a nonempty vector of finite, nonnegative
    numbers summing to 1 within 1e-9."""
    probs, problems = number_array(probabilities, "probabilities", 1, 0.0)
    if problems or probs.size == 0:
        return None, problems or ["probabilities must be a nonempty vector"]
    if abs(probs.sum() - 1.0) > 1e-9:
        return None, ["probabilities sum != 1"]
    return probs, []


@dataclass(frozen=True)
class TimeGrid:
    """Uniform discretization: period length in hours and period count."""

    delta_hours: float
    num_periods: int
    periods_per_year: int = 17520  # 30-minute metering intervals

    def __post_init__(self):
        problems = rule_problems(self, (
            ("delta_hours", is_positive, "a positive number of hours"),
            ("num_periods", is_count, "a positive integer"),
            ("periods_per_year", is_count, "a positive integer")))
        if problems:
            raise DomainError(problems)
        object.__setattr__(self, "delta_hours", float(self.delta_hours))
        object.__setattr__(self, "num_periods", int(self.num_periods))
        object.__setattr__(self, "periods_per_year", int(self.periods_per_year))


@dataclass(frozen=True)
class LoadMatrix:
    """Metered consumption in kWh per period, one column per consumer."""

    values: np.ndarray
    consumer_ids: tuple

    def __post_init__(self):
        values, problems = number_array(self.values, "load values", 2, 0.0)
        ids = tuple(str(c) for c in self.consumer_ids)
        if values is not None and len(ids) != values.shape[1]:
            problems.append("consumer id count must match load columns")
        if len(set(ids)) != len(ids):
            problems.append("consumer ids must be unique")
        if problems:
            raise DomainError(problems)
        object.__setattr__(self, "values", values)
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


@dataclass(frozen=True)
class SolarScenarioSet:
    """Per-unit PV output scenarios (columns) with their probabilities."""

    alphas: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        alphas, problems = number_array(self.alphas, "alpha", 2, 0.0, 1.0)
        probs, more = probability_array(self.probabilities)
        problems += more
        if not problems and probs.shape != (alphas.shape[1],):
            problems.append("probability count must match scenario columns")
        if problems:
            raise DomainError(problems)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "probabilities", probs)

    @property
    def num_periods(self):
        return self.alphas.shape[0]

    @property
    def num_scenarios(self):
        return self.alphas.shape[1]


@dataclass(frozen=True)
class Tariff:
    """Prices seen by the collective, all in EUR.

    grid_energy_price and fixed_charge define each consumer's grid bill as a
    linear function of their per-period deficit; export_price is what the
    operator earns per surplus kWh, export_tax what it owes per surplus kWh,
    and local_price the internal price of locally produced energy.  Each of
    the three series is a vector or a number, which applies to every period
    of the others (a tariff of numbers only has one period).
    """

    grid_energy_price: np.ndarray
    fixed_charge: float
    export_price: np.ndarray
    export_tax: np.ndarray
    local_price: float

    def __post_init__(self):
        series = ("grid_energy_price", "export_price", "export_tax")
        problems = store_numbers(self, (
            ("grid_energy_price", 1, 0.0), ("export_price", 1),
            ("export_tax", 1)))
        problems += rule_problems(self, [
            (name, is_nonnegative, "a nonnegative finite number")
            for name in ("fixed_charge", "local_price")])
        if not problems:
            sizes = {getattr(self, name).size for name in series}
            if 0 in sizes or len(sizes - {1}) > 1:
                problems.append("tariff vectors must be nonempty and share one length")
        if problems:
            raise DomainError(problems)
        for name in series:  # a number applies to every period
            object.__setattr__(self, name, number_array(np.broadcast_to(
                getattr(self, name), max(sizes)), name, 1)[0])
        object.__setattr__(self, "fixed_charge", float(self.fixed_charge))
        object.__setattr__(self, "local_price", float(self.local_price))

    @property
    def num_periods(self):
        return self.grid_energy_price.shape[0]


@dataclass(frozen=True)
class InverterCatalog:
    """Available inverter sizes as (capacity kW, cost EUR) pairs."""

    pv_options: tuple
    es_options: tuple

    def __post_init__(self):
        names = ("pv_options", "es_options")
        problems = [p for name in names for p in _pair_problems(
            getattr(self, name), name, "[capacity_kw, cost_eur]")]
        if problems:
            raise DomainError(problems)
        for name in names:
            object.__setattr__(self, name, _float_pairs(getattr(self, name)))


@dataclass(frozen=True)
class SubsidyRule:
    """Per-kW construction subsidy granted up to a capacity threshold.

    annual=False treats the grant as one-time revenue in the first year;
    annual=True repeats it every year of the horizon.  The threshold may be
    infinite (no cap), the rate may not.
    """

    rate_per_kw: float = 0.0
    max_capacity_kw: float = np.inf
    annual: bool = False

    def __post_init__(self):
        problems = rule_problems(self, (
            ("rate_per_kw", is_nonnegative, "a nonnegative finite number"),
            ("max_capacity_kw", lambda v: isinstance(v, numbers.Real)
             and not isinstance(v, bool) and v >= 0,
             "a nonnegative number or infinity"),
            ("annual", lambda v: isinstance(v, bool), "a bool")))
        if problems:
            raise DomainError(problems)
        object.__setattr__(self, "rate_per_kw", float(self.rate_per_kw))
        object.__setattr__(self, "max_capacity_kw", float(self.max_capacity_kw))

    def amount(self, pv_capacity_kw):
        """Grant earned by a build of the given size (0 above the threshold)."""
        if pv_capacity_kw <= self.max_capacity_kw:
            return self.rate_per_kw * pv_capacity_kw
        return 0.0


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
        problems = _pair_problems(self.beta_pv_tiers, "beta_pv_tiers",
                                  "[threshold_kw, rate_eur_per_kw]")
        if not problems and self.beta_pv_tiers[0][0] != 0:
            problems.append("the first tier of beta_pv_tiers must start at 0 kW")
        costs = ("beta_es", "beta_es_use", "beta_mnt", "grid_connection_cost")
        problems += rule_problems(self, [
            *((name, is_nonnegative, "a nonnegative finite number")
              for name in (*costs, "discount_rate")),
            ("kappa", is_positive, "a positive finite number"),
            ("horizon_years", lambda v: is_count(v) and v <= MAX_HORIZON_YEARS,
             f"a whole number of years from 1 to {MAX_HORIZON_YEARS}"),
            ("es_roundtrip_efficiency", lambda v: is_positive(v) and v <= 1,
             "a number in (0, 1]"),
            ("subsidy", lambda v: isinstance(v, SubsidyRule), "a SubsidyRule")])
        if problems:
            raise DomainError(problems)
        object.__setattr__(self, "beta_pv_tiers", _float_pairs(self.beta_pv_tiers))
        for name in (*costs, "kappa", "discount_rate", "es_roundtrip_efficiency"):
            object.__setattr__(self, name, float(getattr(self, name)))
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
        errors = rule_problems(self, [
            (f"{side}_inverter_index",
             lambda v: v is None or is_number(v) and is_count(v + 1),
             "None or a whole number >= 0") for side in ("pv", "es")])
        errors += store_numbers(self, [(name, 0, 0.0) for name in (
            "pv_capacity_kw", "es_power_kw", "es_energy_kwh",
            "pv_inverter_capacity_kw", "pv_inverter_cost",
            "es_inverter_capacity_kw", "es_inverter_cost")])
        if errors:
            raise DomainError(errors)
        if self.pv_capacity_kw > self.pv_inverter_capacity_kw + 1e-9:
            errors.append("pv capacity exceeds its inverter rating")
        if self.es_power_kw > self.es_inverter_capacity_kw + 1e-9:
            errors.append("es power exceeds its inverter rating")
        for side in ("pv", "es"):
            idx = getattr(self, f"{side}_inverter_index")
            if idx is not None:
                object.__setattr__(self, f"{side}_inverter_index", int(idx))
            elif getattr(self, f"{side}_inverter_capacity_kw") != 0.0 \
                    or getattr(self, f"{side}_inverter_cost") != 0.0:
                errors.append(f"null {side} inverter must have zero capacity and cost")
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
        problems = store_numbers(self, [(name, 1, 0.0) for name in fields])
        if problems:
            raise DomainError(problems)
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
        values, problems = number_array(self.values, "key values", 2, 0.0)
        if problems:
            raise DomainError(problems)
        object.__setattr__(self, "values", values)

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
        alphas, errors = number_array(self.alphas, "realized alpha", 1, 0.0, 1.0)
        loads, more = number_array(self.loads, "realized loads", 2, 0.0)
        errors += more
        if not errors and loads.shape[0] != alphas.shape[0]:
            errors.append("realized loads and alphas must share one length")
        if errors:
            raise DomainError(errors)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "loads", loads)

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
