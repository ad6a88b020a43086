"""Command line surface: gen, size, allocate, simulate, sweep.

Run as `python -m pvpool <command> ...`.  Every command reads one JSON
config (except gen, which writes one) and emits JSON reports plus CSV time
series into the output directory.  Exit codes: 0 success, 1 runtime error
with a diagnostic on stderr, 2 usage error.

The plan is solved once and kept as `plan.json` in the output directory:
the sizing decision and each scenario's battery schedule, from which
`sizing.plan_result` remakes every flow and money figure.  `size` always
solves it and rewrites the file; running `size` again is how to refresh it.
`allocate`, `simulate` and `sweep` reuse the file when its digest matches
the loads, solar and catalog files and the config's grid, tariff and
tech_econ settings; otherwise they solve the plan and write the file for
the next command.  The horizon and the realized files do not enter the
digest.  A plan whose digest matches but that cannot be read is an error.
"""

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .allocation import (
    PriceRange,
    breakeven_prices,
    gamma_price_map,
    min_variance_key,
    net_benefit,
    sells_local_energy,
)
from .io import (
    PRESETS,
    ProjectConfig,
    dump_json,
    generate_synthetic,
    load_plan_json,
    preset_config,
    write_catalog_json,
    write_key_csv,
    write_loads_csv,
    write_matrix_csv,
    write_plan_json,
    write_realized_csv,
    write_solar_csv,
)
from .domain import InverterCatalog, is_seed
from .operation import ALGORITHMS, run_year
from .sizing import CutPool, investor_profit, solve_sizing

_NOTHING_TO_SHARE = "the plan sells no local energy; skipping the prices"


def _out_dir(args):
    out = Path(args.out) if args.out else Path(args.config).parent
    out.mkdir(parents=True, exist_ok=True)
    return out


def _plan(config, out, reuse=True):
    """(bundle, catalog, sizing result) for a config.

    With `reuse`, the plan stored in `out` is read when its digest matches
    the config's inputs; otherwise it is solved and stored there.
    """
    bundle, catalog = config.load_inputs()
    path = out / "plan.json"
    digest = config.plan_digest()
    sizing = load_plan_json(path, digest, bundle) if reuse else None
    if sizing is None:
        sizing = solve_sizing(bundle, catalog)
        write_plan_json(path, sizing, digest)
    return bundle, catalog, sizing


def _promise(bundle, sizing):
    """Min-variance keys and promise over the plan's served energy."""
    served = [d.to_consumers for d in sizing.dispatches]
    return min_variance_key(served, bundle.loads, sizing.probabilities)


def _sizing_payload(config, sizing):
    return {
        "case": config.case,
        "seed": config.seed,
        "objective_eur": sizing.objective,
        "net_benefit_eur": net_benefit(sizing),
        "decision": asdict(sizing.decision),
        "economics": asdict(sizing.economics),
        "flags": list(sizing.flags),
    }


def _cmd_gen(args):
    # the config's seed must load again (ProjectConfig takes the seeds
    # `is_seed` takes), so nothing is written for another one
    if not is_seed(args.seed):
        raise ValueError(f"--seed must lie in [0, 2**64 - 1], not {args.seed}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    preset = preset_config(args.case)
    loads, scenarios, realized = generate_synthetic(
        args.seed, args.consumers, args.days, args.scenarios)
    write_loads_csv(out / "loads.csv", loads)
    write_solar_csv(out / "solar.csv", scenarios)
    write_realized_csv(out / "realized_alphas.csv", out / "realized_loads.csv",
                       realized, loads.consumer_ids)
    write_catalog_json(out / "catalog.json",
                       InverterCatalog(**preset["catalog"]))
    dump_json(out / "config.json", {
        "case": args.case,
        "seed": args.seed,
        "delta_hours": 0.5,
        "periods_per_year": 17520,
        "loads_csv": "loads.csv",
        "solar_csv": "solar.csv",
        "catalog_json": "catalog.json",
        "realized_alphas_csv": "realized_alphas.csv",
        "realized_loads_csv": "realized_loads.csv",
        "tariff": preset["tariff"],
        "tech_econ": preset["tech_econ"],
        "horizon": {"prediction_periods": 48, "theta": 1.0},
    })
    print(f"wrote {args.consumers} consumers x {48 * args.days} periods,"
          f" {args.scenarios} scenarios under {out}")
    print(f"config: {out / 'config.json'}")
    return 0


def _cmd_size(args):
    config = ProjectConfig.from_file(args.config)
    out = _out_dir(args)
    _, _, sizing = _plan(config, out, reuse=False)
    dump_json(out / "sizing_report.json", _sizing_payload(config, sizing))
    d = sizing.decision
    print(f"pv {d.pv_capacity_kw:.1f} kW, storage {d.es_power_kw:.1f} kW /"
          f" {d.es_energy_kwh:.1f} kWh, objective {sizing.objective:.2f} EUR,"
          f" net benefit {net_benefit(sizing):.2f} EUR")
    print(f"report: {out / 'sizing_report.json'}")
    print(f"plan: {out / 'plan.json'}")
    return 0


def _price_table(sizing, params, pairs):
    """Investor profit and consumer savings at each (gamma, price) pair,
    keyed as in allocation_report.json and sweep_price.csv."""
    benefit = net_benefit(sizing)
    rows = []
    for gamma, price in pairs:
        profit = investor_profit(price, sizing, params)
        rows.append({"gamma": gamma, "price_eur_per_kwh": price,
                     "investor_profit_eur": profit,
                     "consumer_savings_eur": benefit - profit})
    return rows


def _cmd_allocate(args):
    config = ProjectConfig.from_file(args.config)
    out = _out_dir(args)
    bundle, _, sizing = _plan(config, out)
    benefit = net_benefit(sizing)
    if sells_local_energy(sizing):
        prices = breakeven_prices(sizing, bundle.params)
        table = _price_table(sizing, bundle.params, [
            (g, gamma_price_map(sizing, bundle.params, gamma=g))
            for g in (0.0, 0.5, 1.0)])
        print("price (EUR/kWh)  gamma  investor profit (EUR)"
              "  consumer savings (EUR)")
    else:
        prices, table = PriceRange(None, None), []
        print(_NOTHING_TO_SHARE)
    for row in table:
        print(f"{row['price_eur_per_kwh']:>15.4f}"
              f"  {row['gamma']:>5.2f}"
              f"  {row['investor_profit_eur']:>21.2f}"
              f"  {row['consumer_savings_eur']:>22.2f}")

    plan = _promise(bundle, sizing)
    dump_json(out / "allocation_report.json", {
        "case": config.case,
        "seed": config.seed,
        "net_benefit_eur": benefit,
        "investor_breakeven_eur_per_kwh": prices.investor_breakeven,
        "consumer_breakeven_eur_per_kwh": prices.consumer_breakeven,
        "gamma_table": table,
        "promise_kwh": plan.promise,
        "expected_variance": plan.expected_variance,
        "scenario_probabilities": plan.probabilities,
        "consumers": list(bundle.loads.consumer_ids),
    })
    for widx, key in enumerate(plan.keys):
        write_key_csv(out / f"key_scenario_{widx:02d}.csv", key.values,
                      bundle.loads.consumer_ids)
    print(f"report: {out / 'allocation_report.json'}")
    return 0


def _year_payload(config, report, consumer_ids):
    return {
        "case": config.case,
        "seed": config.seed,
        "algorithm": report.algorithm,
        "consumers": list(consumer_ids),
        "delivered_kwh": report.delivered,
        "promise_kwh": report.promise,
        "end_mismatch_kwh": report.end_mismatch,
        "mismatch_pct": report.mismatch_pct,
        "max_abs_mismatch_kwh": report.max_abs_mismatch,
        "cumulative_deficit_kwh": report.cumulative_deficit,
        "cold_retries": report.cold_retries,
        "costs_eur": {
            "grid_energy": report.grid_energy_cost,
            "fixed": report.fixed_cost,
            "export_revenue": report.export_revenue,
            "export_tax": report.export_tax_cost,
            "utilization": report.utilization_cost,
            "maintenance": report.maintenance_cost,
            "net_operating": report.net_operating_cost,
        },
    }


def _cmd_simulate(args):
    config = ProjectConfig.from_file(args.config)
    out = _out_dir(args)
    bundle, _, sizing = _plan(config, out)
    realized = config.load_realized()
    report = run_year(bundle, _promise(bundle, sizing), sizing.decision,
                      realized, config.horizon, algorithm=args.algorithm)

    ids = bundle.loads.consumer_ids
    alg = report.algorithm
    dump_json(out / f"report_{alg}.json", _year_payload(config, report, ids))
    write_key_csv(out / f"key_{alg}.csv", report.keys, ids)
    write_matrix_csv(out / f"mismatch_{alg}.csv", ids, report.mismatch_series)
    dd = report.dispatch
    columns = np.column_stack([
        np.arange(dd.num_periods, dtype=np.float64), dd.charge, dd.discharge,
        dd.pv_gen, dd.grid_import, dd.surplus, dd.to_consumers, dd.soc[1:]])
    write_matrix_csv(out / f"dispatch_{alg}.csv",
                     ("period", "charge_kwh", "discharge_kwh", "pv_gen_kwh",
                      "grid_import_kwh", "surplus_kwh", "to_consumers_kwh",
                      "soc_end_kwh"), columns)
    print(f"{alg}: max |mismatch| {report.max_abs_mismatch:.3f} kWh,"
          f" deficit {report.cumulative_deficit:.3f} kWh,"
          f" net operating cost {report.net_operating_cost:.2f} EUR")
    print(f"report: {out / f'report_{alg}.json'}")
    return 0


def _parse_floats(text, flag):
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated numbers") from None
    if not values:
        raise ValueError(f"{flag} lists no values")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{flag} expects finite numbers")
    return values


def _cmd_sweep(args):
    config = ProjectConfig.from_file(args.config)
    caps, prices = (None if text is None else _parse_floats(text, flag)
                    for text, flag in ((args.capacities, "--capacities"),
                                       (args.prices, "--prices")))
    out = _out_dir(args)
    bundle, catalog, sizing = _plan(config, out)
    params = bundle.params
    months = 12 * params.horizon_years
    n = bundle.loads.num_consumers
    p_local = bundle.tariff.local_price

    # a PV plant is never larger than its inverter
    top = max(cap for cap, _ in catalog.pv_options)
    if caps is None:
        caps = np.linspace(0.0, top, 6).tolist()
    elif not all(0.0 <= cap <= top for cap in caps):
        raise ValueError(f"--capacities must lie in [0, {top:g}] kW: the"
                         f" largest PV inverter is {top:g} kW")
    # the pinned points share one pool's cuts and solved dispatch LPs
    pool = CutPool(bundle)
    cap_rows = []
    for cap in caps:
        pinned = solve_sizing(bundle, catalog, pv_capacity_fixed=cap, pool=pool)
        eco = pinned.economics
        consumer_pv = eco.pvf * (eco.annual_grid_cost_with
                                 + p_local * eco.annual_local_energy)
        cap_rows.append([cap, pinned.objective, net_benefit(pinned),
                         consumer_pv / (n * months)])
    write_matrix_csv(out / "sweep_capacity.csv",
                     ("pv_capacity_kw", "objective_eur", "net_benefit_eur",
                      "monthly_cost_per_consumer_eur"), cap_rows)
    print(f"capacity sweep over {len(cap_rows)} points:"
          f" {out / 'sweep_capacity.csv'}")

    if not sells_local_energy(sizing):
        print(_NOTHING_TO_SHARE)
        return 0
    if prices is not None:
        pairs = [(gamma_price_map(sizing, params, price=p), p)
                 for p in prices]
    else:
        gammas = (0.0, 0.25, 0.5, 0.75, 1.0)
        pairs = [(g, gamma_price_map(sizing, params, gamma=g)) for g in gammas]
    header = ("price_eur_per_kwh", "gamma", "investor_profit_eur",
              "consumer_savings_eur")
    price_rows = [[row[name] for name in header]
                  for row in _price_table(sizing, params, pairs)]
    write_matrix_csv(out / "sweep_price.csv", header, price_rows)
    print(f"price sweep over {len(price_rows)} points:"
          f" {out / 'sweep_price.csv'}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pvpool",
        description="Plan and operate a shared solar-plus-storage collective.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    gen = sub.add_parser("gen", help="write a synthetic data set and config")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--case", default="baseline", choices=sorted(PRESETS))
    gen.add_argument("--consumers", type=int, default=15)
    gen.add_argument("--days", type=int, default=7)
    gen.add_argument("--scenarios", type=int, default=10)
    gen.set_defaults(handler=_cmd_gen)

    size = sub.add_parser("size", help="solve the sizing problem")
    size.add_argument("--config", required=True)
    size.add_argument("--out", help="output directory (default: config's)")
    size.set_defaults(handler=_cmd_size)

    allocate = sub.add_parser(
        "allocate", help="benefit split, price range, and repartition keys")
    allocate.add_argument("--config", required=True)
    allocate.add_argument("--out", help="output directory (default: config's)")
    allocate.set_defaults(handler=_cmd_allocate)

    simulate = sub.add_parser(
        "simulate", help="run a year of operation against realized data")
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--out", help="output directory (default: config's)")
    simulate.add_argument("--algorithm", default="proposed",
                          choices=ALGORITHMS)
    simulate.set_defaults(handler=_cmd_simulate)

    sweep = sub.add_parser(
        "sweep", help="capacity and price sweeps around the plan")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", help="output directory (default: config's)")
    sweep.add_argument("--capacities",
                       help="comma-separated PV capacities in kW")
    sweep.add_argument("--prices",
                       help="comma-separated local prices in EUR/kWh")
    sweep.set_defaults(handler=_cmd_sweep)
    return parser


def cli_main(argv=None):
    """Parse argv and run one command; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage or help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory. {exc}".rstrip(), file=sys.stderr)
        return 1
