"""File formats, project configuration, and synthetic data.

Everything here is plumbing around the planning and operation modules: CSV
readers and writers for load and solar data, a JSON project configuration
with two bundled parameter presets, and a seeded generator that fabricates
a plausible collective when no metered data is at hand.

The readers check a file's shape: JSON objects, required sections and
known keys, CSV rows of numbers.  The `domain` types rule on every value,
and each refusal comes back as a DataFileError that names the file and,
in a config, the section.

Numbers are written at repr precision, so a write/read trip reproduces each
float64 exactly and reports produced from the same config and seed are
byte-identical.  The same holds for the plan file (`write_plan_json`), which
stores a whole sizing result so later commands need not solve it again.
"""

import csv
import hashlib
import inspect
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .domain import (
    DispatchSeries,
    DomainError,
    InverterCatalog,
    LoadMatrix,
    RealizedTrajectory,
    SizingDecision,
    SolarScenarioSet,
    SubsidyRule,
    Tariff,
    TechEconParams,
    TimeGrid,
    validate_inputs,
)
from .operation import HorizonConfig
from .sizing import SizingEconomics, SizingResult


class DataFileError(ValueError):
    """A data or config file could not be parsed; message carries file and
    line context."""


# ---------------------------------------------------------------------------
# CSV tables


def _read_table(path):
    """Read a rectangular CSV into (header cells, float matrix).

    Blank lines are skipped; every other row must match the header width and
    parse as numbers.  Errors name the file and 1-based line.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [cell.strip() for cell in next(reader)]
        except StopIteration:
            raise DataFileError(f"{path}: file is empty") from None
        width = len(header)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise DataFileError(
                    f"{path}:{lineno}: ragged row, expected {width} cells"
                    f" but found {len(row)}")
            parsed = []
            for col, cell in enumerate(row):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise DataFileError(
                        f"{path}:{lineno}: non-numeric cell {cell.strip()!r}"
                        f" in column {header[col]!r}") from None
            rows.append(parsed)
    if not rows:
        raise DataFileError(f"{path}: no data rows after the header")
    return header, np.array(rows, dtype=np.float64)


def _write_table(path, header, values):
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in values:
            writer.writerow([repr(float(v)) for v in row])


def load_loads_csv(path):
    """Read a consumer load matrix.

    The header row holds consumer ids, each following row one metering
    period in kWh.  The shape must be strictly rectangular and every value
    numeric and nonnegative.
    """
    header, values = _read_table(path)
    bad = np.argwhere(values < 0)
    if bad.size:
        t, i = bad[0]
        raise DataFileError(
            f"{path}:{t + 2}: negative load {values[t, i]!r}"
            f" for consumer {header[i]!r}")
    try:
        return LoadMatrix(values, tuple(header))
    except DomainError as exc:
        raise DataFileError(f"{path}: {exc}") from exc


def write_loads_csv(path, loads):
    """Inverse of load_loads_csv."""
    _write_table(path, loads.consumer_ids, loads.values)


def load_solar_csv(path):
    """Read solar scenarios: first row scenario probabilities, remaining
    rows per-period production in per unit of installed capacity."""
    path = Path(path)
    header, values = _read_table(path)
    try:
        probabilities = np.array([float(cell) for cell in header])
    except ValueError:
        raise DataFileError(
            f"{path}:1: probability row contains a non-numeric cell") from None
    try:
        return SolarScenarioSet(values, probabilities)
    except DomainError as exc:
        raise DataFileError(f"{path}: {exc}") from exc


def write_solar_csv(path, scenarios):
    """Inverse of load_solar_csv."""
    _write_table(path, [repr(float(p)) for p in scenarios.probabilities],
                 scenarios.alphas)


def load_realized_csv(alphas_path, loads_path):
    """Read a realized trajectory from its two files: a one-column alpha
    series and a realized load matrix in the loads format."""
    header, alphas = _read_table(alphas_path)
    if alphas.shape[1] != 1:
        raise DataFileError(
            f"{alphas_path}: expected a single alpha column,"
            f" found {alphas.shape[1]}")
    loads = load_loads_csv(loads_path)
    try:
        return RealizedTrajectory(alphas[:, 0], loads.values)
    except DomainError as exc:
        raise DataFileError(f"{alphas_path}: {exc}") from exc


def write_realized_csv(alphas_path, loads_path, trajectory, consumer_ids):
    _write_table(alphas_path, ("alpha",), trajectory.alphas[:, None])
    _write_table(loads_path, consumer_ids, trajectory.loads)


def write_key_csv(path, key_values, consumer_ids):
    """Write a key of repartition in the loads CSV format.

    Solver readback can leave allocations a hair below zero; those are
    snapped to 0 so the strict loader accepts the file again.  Anything
    materially negative is left alone and will fail rereading, loudly.
    """
    values = np.asarray(key_values, dtype=np.float64)
    values = np.where((values < 0.0) & (values > -1e-9), 0.0, values)
    _write_table(path, consumer_ids, values)


def write_matrix_csv(path, header, values):
    """Generic table writer for report time series (negatives allowed)."""
    _write_table(path, header, values)


# ---------------------------------------------------------------------------
# JSON helpers


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(path, payload):
    """Write a report; sorted keys and repr floats keep equal runs
    byte-identical.

    The text goes to a temporary file beside the target, which then
    replaces it, so a killed command leaves the old file or the new one,
    never half of one.
    """
    path = Path(path)
    text = json.dumps(payload, sort_keys=True, indent=2, default=_json_default)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_catalog_json(path):
    """Read an inverter catalog: {"pv_options": [[kW, EUR], ...],
    "es_options": [[kW, EUR], ...]}.  `InverterCatalog` rules on the pairs
    and names a bad one (`pv_options[j]`); the error names the file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataFileError(f"{path}: {exc}") from exc
    try:
        options = payload["pv_options"], payload["es_options"]
    except (KeyError, TypeError) as exc:
        raise DataFileError(
            f"{path}: catalog needs pv_options and es_options lists"
            f" of [capacity_kw, cost_eur] pairs") from exc
    try:
        return InverterCatalog(*options)
    except DomainError as exc:
        raise DataFileError(f"{path}: {exc}") from exc


def write_catalog_json(path, catalog):
    dump_json(path, {"pv_options": [list(o) for o in catalog.pv_options],
                     "es_options": [list(o) for o in catalog.es_options]})


# ---------------------------------------------------------------------------
# The plan: a sizing result with the digest of the inputs it was solved from

PLAN_FORMAT = 2  # part of the digest; bump when the stored values change


def write_plan_json(path, sizing, digest):
    """Store a SizingResult: decision, economics, objective, flags,
    scenario probabilities and every dispatch array, at repr precision."""
    dump_json(path, {
        "digest": digest,
        "decision": asdict(sizing.decision),
        "economics": asdict(sizing.economics),
        "objective": sizing.objective,
        "flags": list(sizing.flags),
        "probabilities": sizing.probabilities,
        "dispatches": [asdict(d) for d in sizing.dispatches],
    })


def load_plan_json(path, digest, bundle):
    """Inverse of write_plan_json for the inputs named by `digest`.

    Returns None when there is no plan at `path` or it was solved from
    other inputs (another digest).  A plan with the right digest that is
    malformed or does not fit `bundle` (scenario count, period count,
    probabilities) raises DataFileError.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        return None
    except json.JSONDecodeError as exc:
        raise DataFileError(f"{path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataFileError(f"{path}: a plan is a JSON object")
    if payload.get("digest") != digest:
        return None
    scen, t_len = bundle.scenarios, bundle.grid.num_periods
    try:
        decision = SizingDecision(**payload["decision"])
        economics = SizingEconomics(**{k: float(v) for k, v in
                                       payload["economics"].items()})
        dispatches = tuple(
            DispatchSeries(**{name: np.array(values, dtype=np.float64)
                              for name, values in d.items()})
            for d in payload["dispatches"])
        probabilities = np.array(payload["probabilities"], dtype=np.float64)
        objective = float(payload["objective"])
        flags = tuple(str(f) for f in payload["flags"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataFileError(
            f"{path}: malformed plan: {type(exc).__name__}: {exc}") from exc
    if len(dispatches) != scen.num_scenarios \
            or not np.array_equal(probabilities, scen.probabilities):
        raise DataFileError(
            f"{path}: plan has {len(dispatches)} scenarios and probabilities"
            f" {probabilities.tolist()}, the inputs have {scen.num_scenarios}"
            f" and {scen.probabilities.tolist()}")
    if any(d.num_periods != t_len for d in dispatches):
        raise DataFileError(
            f"{path}: plan dispatches do not span the {t_len} input periods")
    return SizingResult(decision, dispatches, scen.probabilities, objective,
                        economics, flags)


# ---------------------------------------------------------------------------
# Parameter presets

# Shared hardware list: four inverter sizes priced at 72 EUR/kW.
_INVERTERS = ((50.0, 3600.0), (99.0, 7128.0), (157.0, 11304.0),
              (249.0, 17928.0))

# Values the source material leaves open (utilization and maintenance
# coefficients, connection cost, fixed charge) are filled with ordinary
# magnitudes; both presets share them so case comparisons isolate the PV
# price and export compensation assumptions.
_COMMON_TECH = {
    "beta_es": 158.0,
    "beta_es_use": 0.01,
    "beta_mnt": 15.0,
    "grid_connection_cost": 1000.0,
    "subsidy": {"rate_per_kw": 100.0, "max_capacity_kw": 100.0,
                "annual": False},
    "kappa": 2.0,
    "discount_rate": 0.03,
    "horizon_years": 20,
    "es_roundtrip_efficiency": 0.9,
}

PRESETS = {
    # cheap PV, surplus paid at a feed-in price
    "baseline": {
        "tech_econ": dict(_COMMON_TECH,
                          beta_pv_tiers=((0.0, 1100.0), (100.0, 950.0))),
        "tariff": {"grid_energy_price": 0.13, "fixed_charge": 0.0,
                   "export_price": 0.06, "export_tax": 0.0,
                   "local_price": 0.09},
        "catalog": {"pv_options": _INVERTERS, "es_options": _INVERTERS},
    },
    # expensive PV, no compensation for grid injections
    "pessimistic": {
        "tech_econ": dict(_COMMON_TECH,
                          beta_pv_tiers=((0.0, 1680.0), (100.0, 1580.0))),
        "tariff": {"grid_energy_price": 0.13, "fixed_charge": 0.0,
                   "export_price": 0.0, "export_tax": 0.0,
                   "local_price": 0.115},
        "catalog": {"pv_options": _INVERTERS, "es_options": _INVERTERS},
    },
}


def preset_config(case):
    """Parameter bundle for a named case (deep copies, safe to edit)."""
    try:
        preset = PRESETS[case]
    except KeyError:
        raise DataFileError(
            f"unknown case {case!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    return json.loads(json.dumps(preset, default=_json_default))


def _section(kind, fields, name):
    """kind(**fields) for the config section `name`.

    The section must be a JSON object holding every key that kind needs
    and no other; kind rules on the values.  Each refusal is a
    DataFileError naming the section and the key.
    """
    if not isinstance(fields, dict):
        raise DataFileError(f"{name} must be a JSON object,"
                            f" not {type(fields).__name__}")
    params = inspect.signature(kind).parameters
    for key in fields:
        if key not in params:
            raise DataFileError(f"{name}.{key} is not a known key")
    missing = [key for key, p in params.items()
               if p.default is p.empty and key not in fields]
    if missing:
        raise DataFileError(f"{name} missing {', '.join(missing)}")
    try:
        return kind(**fields)
    except DomainError as exc:
        raise DataFileError(f"{name}: {exc}") from exc


def params_from_mapping(mapping):
    """Build TechEconParams from a config dict (tiers and subsidy are plain
    lists/dicts in the file; a null subsidy is the default one).

    `TechEconParams` and `SubsidyRule` rule on the values; an unknown or
    missing key, or a value they refuse, is a DataFileError naming it
    under tech_econ.
    """
    fields = dict(mapping)
    subsidy = fields.pop("subsidy", None)
    if subsidy is not None:
        fields["subsidy"] = _section(SubsidyRule, subsidy, "tech_econ.subsidy")
    return _section(TechEconParams, fields, "tech_econ")


# ---------------------------------------------------------------------------
# Project configuration

_CONFIG_KEYS = ("case", "seed", "delta_hours", "periods_per_year",
                "loads_csv", "solar_csv", "catalog_json",
                "realized_alphas_csv", "realized_loads_csv", "tariff",
                "tech_econ", "horizon")
_TARIFF_SERIES = ("grid_energy_price", "export_price", "export_tax")


@dataclass(frozen=True)
class ProjectConfig:
    """One pipeline run as described by a JSON file.

    path is the config file.  The paths it names are resolved against its
    directory and must exist when it is loaded.  Tariff series may be
    numbers in the file; they are broadcast to the period count once the
    loads are read.
    """

    path: Path
    case: str
    seed: int
    delta_hours: float
    periods_per_year: int
    loads_path: Path
    solar_path: Path
    catalog_path: Path
    realized_alphas_path: Path
    realized_loads_path: Path
    tariff_fields: dict
    params: TechEconParams
    horizon: HorizonConfig

    @classmethod
    def from_file(cls, path):
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            raise DataFileError(f"{path}: no such config file") from None
        except json.JSONDecodeError as exc:
            raise DataFileError(f"{path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise DataFileError(f"{path}: a config must be a JSON object,"
                                f" not {type(payload).__name__}")
        # a misspelt key would otherwise leave its setting at the default
        for key in payload:
            if key not in _CONFIG_KEYS:
                raise DataFileError(f"{path}: {key} is not a known key")
        for key in ("tariff", "tech_econ"):
            if not isinstance(payload.get(key), dict):
                raise DataFileError(f"{path}: missing {key} section")
        seed = payload.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int) \
                or not 0 <= seed < 2**64:
            raise DataFileError(f"{path}: seed must be an unsigned 64-bit"
                                f" integer, not {seed!r}")
        try:
            # the period count comes with the loads (load_inputs)
            grid = TimeGrid(payload.get("delta_hours", 0.5), 1,
                            payload.get("periods_per_year", 17520))
            # its rules run now; build_tariff gives it the loads' periods
            _section(Tariff, payload["tariff"], "tariff")
            params = params_from_mapping(payload["tech_econ"])
            horizon = _section(HorizonConfig, payload.get("horizon", {}),
                               "horizon")
        except (DataFileError, DomainError) as exc:
            raise DataFileError(f"{path}: {exc}") from exc
        base = path.parent

        def resolve(key, required=True):
            name = payload.get(key)
            if name is None:
                if required:
                    raise DataFileError(f"{path}: missing {key!r}")
                return None
            if not isinstance(name, str):
                raise DataFileError(f"{path}: {key} must be a file name,"
                                    f" not {name!r}")
            target = base / name
            if not target.exists():
                raise DataFileError(f"{path}: {key} -> {target} does not exist")
            return target

        return cls(
            path=path,
            case=str(payload.get("case", "custom")),
            seed=seed,
            delta_hours=grid.delta_hours,
            periods_per_year=grid.periods_per_year,
            loads_path=resolve("loads_csv"),
            solar_path=resolve("solar_csv"),
            catalog_path=resolve("catalog_json"),
            realized_alphas_path=resolve("realized_alphas_csv", required=False),
            realized_loads_path=resolve("realized_loads_csv", required=False),
            tariff_fields=dict(payload["tariff"]),
            params=params,
            horizon=horizon,
        )

    def build_tariff(self, num_periods):
        """The Tariff over num_periods: a number in the file applies to
        every period, a list must give one entry per period.  from_file
        has had `Tariff` rule on the values."""
        fields = dict(self.tariff_fields)
        for name in _TARIFF_SERIES:
            arr = np.asarray(fields[name], dtype=np.float64)
            if arr.ndim and arr.shape != (num_periods,):
                raise DataFileError(
                    f"{self.path}: tariff.{name} has {arr.shape[0]} entries,"
                    f" the load data has {num_periods} periods")
            fields[name] = np.broadcast_to(arr, (num_periods,))
        return Tariff(**fields)

    def load_inputs(self):
        """Read the referenced files and return (InputBundle, InverterCatalog)."""
        loads = load_loads_csv(self.loads_path)
        scenarios = load_solar_csv(self.solar_path)
        catalog = load_catalog_json(self.catalog_path)
        grid = TimeGrid(self.delta_hours, loads.num_periods,
                        self.periods_per_year)
        tariff = self.build_tariff(loads.num_periods)
        return validate_inputs(grid, loads, scenarios, tariff,
                               self.params), catalog

    def plan_digest(self):
        """SHA-256 naming the inputs a plan is solved from.

        It covers the bytes of the loads, solar and catalog files, the
        grid, tariff and tech_econ settings, the package version and the
        plan format.  The horizon and the realized files do not enter
        sizing and are left out.
        """
        settings = {
            "files": [hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in (self.loads_path, self.solar_path,
                                self.catalog_path)],
            "delta_hours": self.delta_hours,
            "periods_per_year": self.periods_per_year,
            "tariff": self.tariff_fields,
            "tech_econ": asdict(self.params),
            "version": __version__,
            "format": PLAN_FORMAT,
        }
        text = json.dumps(settings, sort_keys=True, default=_json_default)
        return hashlib.sha256(text.encode()).hexdigest()

    def load_realized(self):
        if self.realized_alphas_path is None or self.realized_loads_path is None:
            raise DataFileError(
                "config lists no realized trajectory files"
                " (realized_alphas_csv / realized_loads_csv)")
        return load_realized_csv(self.realized_alphas_path,
                                 self.realized_loads_path)


# ---------------------------------------------------------------------------
# Synthetic data

PERIODS_PER_DAY = 48  # 30-minute metering grid


def generate_synthetic(seed, num_consumers, days, num_scenarios=10):
    """Fabricate a collective: loads, solar scenarios, and a realized year.

    Loads follow a two-hump residential day scaled per consumer to 8-16 kWh,
    with 20% multiplicative noise and clipped at zero.  Solar scenarios are
    a clear-sky bell scaled by per-scenario daily cloudiness in [0.2, 1].
    The realized trajectory picks one scenario per day from the scenario
    distribution and redraws the load noise.

    Deterministic for a given seed and argument set: all streams come from
    one generator in fixed order, so changing any count also changes later
    draws.
    """
    if num_consumers < 1 or days < 1 or num_scenarios < 1:
        raise ValueError("need at least one consumer, day, and scenario")
    rng = np.random.default_rng(seed)
    t_total = PERIODS_PER_DAY * days
    hours = (np.arange(PERIODS_PER_DAY) + 0.5) * 0.5

    shape = (0.35 + 0.45 * np.exp(-0.5 * ((hours - 8.0) / 2.0) ** 2)
             + 0.85 * np.exp(-0.5 * ((hours - 19.5) / 2.8) ** 2))
    shape /= shape.sum()
    daily = rng.uniform(8.0, 16.0, size=num_consumers)
    base = np.tile(shape, days)[:, None] * daily[None, :]
    wobble = 1.0 + 0.2 * rng.standard_normal((t_total, num_consumers))
    ids = tuple(f"c{i + 1:02d}" for i in range(num_consumers))
    loads = LoadMatrix(np.maximum(base * wobble, 0.0), ids)

    # daylight between 06:30 and 20:00
    frac = (hours - 6.5) / (20.0 - 6.5)
    bell = np.where((frac > 0.0) & (frac < 1.0),
                    np.sin(np.pi * np.clip(frac, 0.0, 1.0)) ** 1.3, 0.0)
    cloud = rng.uniform(0.2, 1.0, size=(days, num_scenarios))
    ripple = 1.0 - 0.1 * np.abs(rng.standard_normal((t_total, num_scenarios)))
    alphas = np.clip(np.tile(bell, days)[:, None]
                     * np.repeat(cloud, PERIODS_PER_DAY, axis=0) * ripple,
                     0.0, 1.0)
    probabilities = rng.dirichlet(np.full(num_scenarios, 3.0))
    scenarios = SolarScenarioSet(alphas, probabilities)

    picks = rng.choice(num_scenarios, size=days, p=probabilities)
    columns = np.repeat(picks, PERIODS_PER_DAY)
    drift = 1.0 - 0.05 * np.abs(rng.standard_normal(t_total))
    real_alpha = np.clip(alphas[np.arange(t_total), columns] * drift, 0.0, 1.0)
    rewobble = 1.0 + 0.2 * rng.standard_normal((t_total, num_consumers))
    real_loads = np.maximum(base * rewobble, 0.0)
    realized = RealizedTrajectory(real_alpha, real_loads)
    return loads, scenarios, realized
