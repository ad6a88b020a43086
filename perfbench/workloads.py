"""The benchmark's workloads: what each sets up, times and checks.

Every workload uses the `baseline` preset and `generate_synthetic(seed, ...)`.

pipeline-day   the user's path through the in-process CLI: gen, size,
               allocate, simulate --algorithm proposed.  `allocate` and
               `simulate` each solve sizing again, so sizing LPs dominate.
operate-4day   a fixed sizing decision (the pipeline-day optimum) and a plan
               over closed-form served energy, then `run_year` with the
               proposed controller: one control QP and one settlement QP
               per period, and no LP.

The greedy rule's settlement, `myopic_settle`, is not a workload: its key QP
ends `iteration_limit` on ordinary periods of some seeds, so `run_year`
raises, and a workload must not fail on any seed.
"""

import hashlib
import io as textio
import json
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import pvpool
from probes import CAPTURE
from pvpool import allocation, cli, domain, io, operation, sizing, storage

DELTA_HOURS = 0.5
PERIODS_PER_YEAR = 17520
HORIZON = {"control_periods": 1, "prediction_periods": 48, "theta": 1.0}


class StageLog:
    """Times the stages of one iteration and counts the ones that failed.

    A stage fails when it raises or, for a CLI command, exits nonzero.  A
    failed stage is counted against the run, not fatal to it.
    """

    def __init__(self):
        self.spans = {}  # stage -> (start, end) on perf_counter
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, name, fn, *args):
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed stage is reported, not fatal
            result = None
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
        self.spans[name] = (start, perf_counter())
        return result

    def run_cli(self, name, argv):
        out = textio.StringIO()
        with redirect_stdout(out):
            code = self.run(name, cli.cli_main, [str(a) for a in argv])
        if code not in (0, None):
            self.failed += 1
            self.errors.append(f"{name}: exit code {code}")
        return code == 0


# ---------------------------------------------------------------------------
# inputs

def _digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def _bundle(seed, consumers, days, scenarios):
    preset = io.preset_config("baseline")
    loads, solar, realized = io.generate_synthetic(seed, consumers, days,
                                                   scenarios)
    t_len = loads.num_periods
    fields = preset["tariff"]
    tariff = domain.Tariff(
        np.full(t_len, fields["grid_energy_price"]), fields["fixed_charge"],
        np.full(t_len, fields["export_price"]),
        np.full(t_len, fields["export_tax"]), fields["local_price"])
    params = io.params_from_mapping(preset["tech_econ"])
    grid = domain.TimeGrid(DELTA_HOURS, t_len, PERIODS_PER_YEAR)
    bundle = domain.validate_inputs(grid, loads, solar, tariff, params)
    return bundle, realized, preset


def _decision(preset, pv_kw, pv_inverter, es_kw, es_kwh, es_inverter):
    pv_cap, pv_cost = preset["catalog"]["pv_options"][pv_inverter]
    es_cap, es_cost = preset["catalog"]["es_options"][es_inverter]
    return domain.SizingDecision(pv_kw, es_kw, es_kwh, pv_inverter, pv_cap,
                                 pv_cost, es_inverter, es_cap, es_cost)


def _idle_served(bundle, decision):
    """Served energy per scenario with the battery idle: min(load, PV)."""
    load = bundle.loads.aggregate()
    zeros = np.zeros_like(load)
    served = []
    for alpha in bundle.scenarios.alphas.T:
        gen = sizing.pv_production(alpha, decision.pv_capacity_kw,
                                   DELTA_HOURS)
        served.append(sizing.split_flows(load, zeros, zeros, gen)[2])
    return served


# ---------------------------------------------------------------------------
# checks

def _key_partial_share(served_by_scenario, loads):
    """Share of key rows the key QP leaves free: not pinned full or empty.

    Uses the pins of the key QP: a row is full when served energy covers
    the total load and empty when nothing is served.
    """
    values = loads.values if isinstance(loads, domain.LoadMatrix) else loads
    total = values.sum(axis=1)
    free = rows = 0
    for served in served_by_scenario:
        target = np.minimum(np.maximum(np.asarray(served), 0.0), total)
        full = target >= total - 1e-12
        empty = target <= 1e-12
        free += int(np.count_nonzero(~full & ~empty))
        rows += total.shape[0]
    return free / rows


def _served_partial_share(report, realized_loads):
    """Share of periods with 0 < served < realized load."""
    served = report.dispatch.to_consumers
    load = realized_loads.sum(axis=1)
    partial = (served > 1e-9) & (served < load - 1e-9)
    return float(np.count_nonzero(partial)) / served.shape[0]


class Invariants:
    """Counts the package's own invariant checks over every artifact."""

    def __init__(self):
        self.dispatch = 0
        self.key = 0
        self.feasible = 0

    @property
    def total(self):
        return self.dispatch + self.key + self.feasible

    def sizing(self, result, bundle):
        load = bundle.loads.aggregate()
        spec = storage.StorageSpec.from_sizing(result.decision, bundle.params)
        for d in result.dispatches:
            self.dispatch += len(domain.check_dispatch(d, load))
            self.feasible += len(storage.check_feasible(
                spec, d.charge, d.discharge, DELTA_HOURS))

    def plan(self, plan, served_by_scenario, loads):
        for key, served in zip(plan.keys, served_by_scenario):
            self.key += len(domain.check_key(key, loads, served))

    def year(self, report, decision, bundle, realized):
        d = report.dispatch
        self.dispatch += len(domain.check_dispatch(d, realized.loads.sum(1)))
        self.key += len(domain.check_key(report.keys, realized.loads,
                                         d.to_consumers))
        # run_year operates the battery without the cyclic condition
        spec = storage.StorageSpec.from_sizing(decision, bundle.params,
                                               cyclic=False)
        self.feasible += len(storage.check_feasible(
            spec, d.charge, d.discharge, DELTA_HOURS))


def _report_problems(report, plan, decision, bundle):
    """Recompute a YearReport's totals from its own series."""
    problems = []
    if not np.allclose(report.delivered, report.keys.sum(axis=0),
                       rtol=1e-9, atol=1e-9):
        problems.append("delivered energy differs from the key's totals")
    promise = sum(p * a for p, a in zip(plan.probabilities, plan.allocations))
    if not np.allclose(plan.promise, promise, rtol=1e-9, atol=1e-9):
        problems.append("promise is not the expected scenario allocation")
    d, tariff, params = report.dispatch, bundle.tariff, bundle.params
    t_len = d.num_periods
    cost = (tariff.grid_energy_price @ d.grid_import
            + tariff.fixed_charge * bundle.loads.num_consumers * t_len
            + tariff.export_tax @ d.surplus
            + params.beta_es_use * (d.charge.sum() + d.discharge.sum())
            + params.beta_mnt * decision.pv_capacity_kw
            * t_len / bundle.grid.periods_per_year
            - tariff.export_price @ d.surplus)
    if not np.isclose(cost, report.net_operating_cost, rtol=1e-9, atol=1e-6):
        problems.append(f"operating cost {report.net_operating_cost!r} does"
                        f" not add up to {cost!r}")
    return problems


class Outcome:
    """Quality figures, invariant counts and problems of one iteration."""

    def __init__(self):
        self.quality = {}
        self.invariants = Invariants()
        self.problems = []

    def figures(self):
        """Everything that must repeat bit for bit for one seed."""
        inv = self.invariants
        return dict(self.quality, **{
            "checks.invariant_violations": inv.total,
            "checks.dispatch_violations": inv.dispatch,
            "checks.key_violations": inv.key,
            "checks.feasible_violations": inv.feasible})


# ---------------------------------------------------------------------------
# workloads

class PipelineDay:
    """gen, size, allocate and simulate through the in-process CLI."""

    # the checks read artifacts that exist only inside the CLI commands
    capture = CAPTURE

    def __init__(self, consumers=15, days=1, scenarios=2):
        self.shape = (consumers, days, scenarios)

    def setup(self, seed):
        # the reference inputs the CLI's gen must reproduce
        self.seed = seed
        self.bundle, self.realized, _ = _bundle(seed, *self.shape)
        return _digest(self.bundle.loads.values, self.bundle.scenarios.alphas,
                       self.realized.loads, self.realized.alphas)

    def iterate(self, log, workdir):
        consumers, days, scenarios = self.shape
        config = workdir / "config.json"
        log.run_cli("gen", ["gen", "--out", workdir, "--seed", self.seed,
                            "--case", "baseline", "--consumers", consumers,
                            "--days", days, "--scenarios", scenarios])
        log.run_cli("size", ["size", "--config", config])
        log.run_cli("allocate", ["allocate", "--config", config])
        log.run_cli("simulate", ["simulate", "--config", config,
                                 "--algorithm", "proposed"])

    def check(self, recorder, workdir):
        out = Outcome()
        bundle, realized = self.bundle, self.realized
        written = io.load_loads_csv(workdir / "loads.csv")
        if not np.array_equal(written.values, bundle.loads.values):
            out.problems.append("gen wrote other loads than the seed gives")
        sizings = [s.result for s in recorder.named("sizing")]
        plans = recorder.named("key")
        years = recorder.named("run_year")
        reports = [workdir / name for name in (
            "sizing_report.json", "allocation_report.json",
            "report_proposed.json")]
        if not (sizings and plans and years) \
                or not all(p.exists() for p in reports):
            out.problems.append("a stage produced no artifact")
            return out
        for result in sizings:
            out.invariants.sizing(result, bundle)
        for span in plans:
            served = span.args[0]
            out.invariants.plan(span.result, served, bundle.loads)
        year = years[-1].result
        out.invariants.year(year, sizings[-1].decision, bundle, realized)
        out.problems += _report_problems(year, plans[-1].result,
                                         sizings[-1].decision, bundle)

        size_rep, alloc_rep, year_rep = (json.loads(p.read_text())
                                         for p in reports)
        benefit = allocation.net_benefit(sizings[0])
        if size_rep["net_benefit_eur"] != benefit:
            out.problems.append("sizing report disagrees with the solve")
        if alloc_rep["expected_variance"] != plans[0].result.expected_variance:
            out.problems.append("allocation report disagrees with the plan")
        if year_rep["max_abs_mismatch_kwh"] != year.max_abs_mismatch:
            out.problems.append("simulate report disagrees with the run")
        out.quality = {
            "quality.net_benefit_eur": benefit,
            "quality.key_variance_kwh2": alloc_rep["expected_variance"],
            "quality.max_mismatch_kwh": year_rep["max_abs_mismatch_kwh"],
            "quality.operating_cost_eur": year_rep["costs_eur"]["net_operating"],
            "allocation.partial_share": _key_partial_share(
                plans[0].args[0], bundle.loads),
            "operation.partial_share": _served_partial_share(
                year, realized.loads),
        }
        return out


class FixedPlan:
    """A fixed decision and idle-battery plan, then one span simulated
    with the proposed controller."""

    capture = ()

    def __init__(self, consumers, days, scenarios,
                 pv_kw, pv_inverter, es_kw, es_kwh, es_inverter):
        self.shape = (consumers, days, scenarios)
        self.sizes = (pv_kw, pv_inverter, es_kw, es_kwh, es_inverter)

    def setup(self, seed):
        self.bundle, self.realized, preset = _bundle(seed, *self.shape)
        self.decision = _decision(preset, *self.sizes)
        self.served = _idle_served(self.bundle, self.decision)
        self.horizon = operation.HorizonConfig(**HORIZON)
        return _digest(self.bundle.loads.values, self.bundle.scenarios.alphas,
                       self.realized.loads, self.realized.alphas, *self.served)

    def iterate(self, log, workdir):
        bundle = self.bundle
        self.plan = log.run("allocate", allocation.min_variance_key,
                            self.served, bundle.loads,
                            bundle.scenarios.probabilities)
        self.year = None
        if self.plan is not None:
            self.year = log.run("simulate", operation.run_year, bundle,
                                self.plan, self.decision, self.realized,
                                self.horizon, "proposed")

    def check(self, recorder, workdir):
        out = Outcome()
        if self.plan is None or self.year is None:
            out.problems.append("a stage produced no artifact")
            return out
        bundle, plan, year = self.bundle, self.plan, self.year
        out.invariants.plan(plan, self.served, bundle.loads)
        out.invariants.year(year, self.decision, bundle, self.realized)
        out.problems += _report_problems(year, plan, self.decision, bundle)
        out.quality = {
            "quality.net_benefit_eur": 0.0,
            "quality.key_variance_kwh2": plan.expected_variance,
            "quality.max_mismatch_kwh": year.max_abs_mismatch,
            "quality.operating_cost_eur": year.net_operating_cost,
            "allocation.partial_share": _key_partial_share(self.served,
                                                           bundle.loads),
            "operation.partial_share": _served_partial_share(
                year, self.realized.loads),
        }
        return out


def make(name, smoke=False):
    """The named workload at its benchmark size, or tiny for a smoke run."""
    if name == "pipeline-day":
        # sizing solves 55 LPs at any consumer count; one scenario keeps the
        # smoke run short, five consumers keep the plant worth building
        return PipelineDay(5, 1, 1) if smoke else PipelineDay()
    if name == "operate-4day":
        shape = (2, 1, 2) if smoke else (15, 4, 10)
        return FixedPlan(*shape, 249.0, 3, 36.0, 72.0, 0)
    raise KeyError(name)


def source_digest():
    """Hash of the package sources, naming the code a result came from."""
    h = hashlib.sha256()
    root = Path(pvpool.__file__).parent
    for path in sorted(root.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]
