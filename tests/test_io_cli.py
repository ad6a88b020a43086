"""File format, config, synthetic data, and command line tests."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pvpool
from pvpool import cli, io, numerics, sizing
from pvpool.cli import cli_main
from pvpool.domain import InverterCatalog, LoadMatrix, SolarScenarioSet, check_key
from pvpool.io import (
    DataFileError,
    PRESETS,
    ProjectConfig,
    dump_json,
    generate_synthetic,
    load_catalog_json,
    load_loads_csv,
    load_plan_json,
    load_realized_csv,
    load_solar_csv,
    preset_config,
    write_catalog_json,
    write_key_csv,
    write_loads_csv,
    write_plan_json,
    write_realized_csv,
    write_solar_csv,
)
from pvpool.sizing import solve_sizing


# ---------------------------------------------------------------------------
# CSV round trips and loader errors


def test_loads_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(5)
    for trial in range(20):
        t = int(rng.integers(1, 40))
        n = int(rng.integers(1, 6))
        values = rng.uniform(0.0, 9.0, size=(t, n)) * rng.choice(
            [1e-7, 1.0, 1e5], size=(t, n))
        loads = LoadMatrix(values, tuple(f"h{i}" for i in range(n)))
        path = tmp_path / f"loads_{trial}.csv"
        write_loads_csv(path, loads)
        back = load_loads_csv(path)
        assert back.consumer_ids == loads.consumer_ids
        # repr precision makes the trip exact, not merely 1e-12 close
        assert back.values.tobytes() == loads.values.tobytes()


def test_loads_csv_2x2_well_formed(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text("a,b\n1.0,2.0\n3.5,0.0\n")
    loads = load_loads_csv(path)
    assert loads.values.shape == (2, 2)
    assert loads.consumer_ids == ("a", "b")


def test_loads_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1.0,2.0\n3.5\n4.0,5.0\n")
    with pytest.raises(DataFileError, match=r"ragged.csv:3.*ragged"):
        load_loads_csv(path)


def test_loads_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "text.csv"
    path.write_text("a,b\n1.0,2.0\n3.5,oops\n")
    with pytest.raises(DataFileError, match=r"text.csv:3.*'oops'"):
        load_loads_csv(path)


def test_loads_csv_negative_value(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("a,b\n1.0,2.0\n3.5,-0.25\n")
    with pytest.raises(DataFileError, match=r"neg.csv:3.*negative"):
        load_loads_csv(path)


def test_loads_csv_empty_and_header_only(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataFileError, match="empty"):
        load_loads_csv(empty)
    header_only = tmp_path / "header.csv"
    header_only.write_text("a,b\n")
    with pytest.raises(DataFileError, match="no data rows"):
        load_loads_csv(header_only)


def test_solar_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(11)
    for trial in range(20):
        t = int(rng.integers(1, 30))
        w = int(rng.integers(1, 5))
        alphas = rng.uniform(0.0, 1.0, size=(t, w))
        probs = rng.dirichlet(np.ones(w))
        scen = SolarScenarioSet(alphas, probs)
        path = tmp_path / f"solar_{trial}.csv"
        write_solar_csv(path, scen)
        back = load_solar_csv(path)
        assert back.alphas.tobytes() == scen.alphas.tobytes()
        assert back.probabilities.tobytes() == scen.probabilities.tobytes()


def test_solar_csv_bad_probabilities(tmp_path):
    path = tmp_path / "probs.csv"
    path.write_text("0.5,0.4\n0.1,0.2\n")
    with pytest.raises(DataFileError, match="sum"):
        load_solar_csv(path)


def test_solar_csv_alpha_out_of_range(tmp_path):
    path = tmp_path / "range.csv"
    path.write_text("0.5,0.5\n0.1,1.5\n")
    with pytest.raises(DataFileError, match=r"\[0, 1\]"):
        load_solar_csv(path)


def test_realized_csv_roundtrip(tmp_path):
    _, _, realized = generate_synthetic(4, 3, 2, num_scenarios=2)
    ids = ("c01", "c02", "c03")
    write_realized_csv(tmp_path / "a.csv", tmp_path / "l.csv", realized, ids)
    back = load_realized_csv(tmp_path / "a.csv", tmp_path / "l.csv")
    assert back.alphas.tobytes() == realized.alphas.tobytes()
    assert back.loads.tobytes() == realized.loads.tobytes()


def test_catalog_json_roundtrip_and_errors(tmp_path):
    catalog = InverterCatalog(((5.0, 360.0), (20.0, 1440.0)), ((8.0, 576.0),))
    path = tmp_path / "catalog.json"
    write_catalog_json(path, catalog)
    back = load_catalog_json(path)
    assert back.pv_options == catalog.pv_options
    assert back.es_options == catalog.es_options

    bad = tmp_path / "bad.json"
    bad.write_text('{"pv_options": [[5, 360]]}')
    with pytest.raises(DataFileError, match="es_options"):
        load_catalog_json(bad)
    bad.write_text("not json")
    with pytest.raises(DataFileError):
        load_catalog_json(bad)

    # capacities and costs follow the tariff's number rule, and the error
    # names the file and the option
    for key, options in (("pv_options", [[float("nan"), 1]]),
                         ("pv_options", [["50", True]]),
                         ("es_options", [[4.0, True]]),
                         ("es_options", [[4.0, 288.0], [None, 576.0]])):
        payload = {"pv_options": [[6.0, 432.0]], "es_options": [[4.0, 288.0]]}
        payload[key] = options
        bad.write_text(json.dumps(payload))
        with pytest.raises(DataFileError) as err:
            load_catalog_json(bad)
        where = f"{key}[{len(options) - 1}]"
        assert str(bad) in str(err.value) and where in str(err.value)


def test_key_csv_snaps_solver_noise(tmp_path):
    key = np.array([[0.5, -1e-12], [0.25, 0.75]])
    path = tmp_path / "key.csv"
    write_key_csv(path, key, ("a", "b"))
    back = load_loads_csv(path)
    assert back.values[0, 1] == 0.0
    assert back.values[1, 1] == 0.75
    # a materially negative entry must not be hidden
    write_key_csv(path, np.array([[0.5, -0.2]]), ("a", "b"))
    with pytest.raises(DataFileError, match="negative"):
        load_loads_csv(path)


def test_dump_json_is_key_order_independent(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    dump_json(a, {"x": np.arange(3.0), "y": 1.5, "z": np.float64(2.0)})
    dump_json(b, {"z": np.float64(2.0), "y": 1.5, "x": np.arange(3.0)})
    assert a.read_bytes() == b.read_bytes()


def test_dump_json_never_leaves_half_a_file(tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    dump_json(path, {"old": 1.0})
    before = path.read_bytes()

    def killed(src, dst):
        raise OSError("killed before the rename")

    monkeypatch.setattr(io.os, "replace", killed)
    with pytest.raises(OSError, match="killed"):
        dump_json(path, {"new": list(range(1000))})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


# ---------------------------------------------------------------------------
# Synthetic data


def test_generate_synthetic_deterministic():
    first = generate_synthetic(99, 4, 3)
    second = generate_synthetic(99, 4, 3)
    assert first[0].values.tobytes() == second[0].values.tobytes()
    assert first[1].alphas.tobytes() == second[1].alphas.tobytes()
    assert first[1].probabilities.tobytes() == second[1].probabilities.tobytes()
    assert first[2].alphas.tobytes() == second[2].alphas.tobytes()
    assert first[2].loads.tobytes() == second[2].loads.tobytes()
    other = generate_synthetic(100, 4, 3)
    assert first[0].values.tobytes() != other[0].values.tobytes()


def test_generate_synthetic_shapes_single_day():
    loads, scenarios, realized = generate_synthetic(1, 1, 1, num_scenarios=6)
    assert loads.values.shape == (48, 1)
    assert scenarios.alphas.shape == (48, 6)
    assert realized.alphas.shape == (48,)
    assert realized.loads.shape == (48, 1)
    assert scenarios.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_generate_synthetic_alpha_extremes_million_scan():
    # 48 * 2084 * 10 > 1e6 generated alpha values, all clipped into [0, 1]
    _, scenarios, realized = generate_synthetic(7, 1, 2084, num_scenarios=10)
    assert scenarios.alphas.size >= 10**6
    assert float(scenarios.alphas.min()) >= 0.0
    assert float(scenarios.alphas.max()) <= 1.0
    assert float(realized.alphas.min()) >= 0.0
    assert float(realized.alphas.max()) <= 1.0


def test_generate_synthetic_loads_nonnegative_diurnal():
    loads, _, realized = generate_synthetic(21, 5, 4)
    assert np.all(loads.values >= 0.0)
    assert np.all(realized.loads >= 0.0)
    # evening peak should dominate 4am on average
    per_period = loads.values.sum(axis=1).reshape(4, 48).mean(axis=0)
    assert per_period[39] > 2.0 * per_period[8]


def test_generate_synthetic_rejects_empty():
    with pytest.raises(ValueError):
        generate_synthetic(0, 0, 1)


# ---------------------------------------------------------------------------
# Presets and project config


def test_preset_baseline_and_pessimistic_values():
    base = preset_config("baseline")
    pess = preset_config("pessimistic")
    assert base["tech_econ"]["beta_pv_tiers"] == [[0.0, 1100.0], [100.0, 950.0]]
    assert pess["tech_econ"]["beta_pv_tiers"] == [[0.0, 1680.0], [100.0, 1580.0]]
    assert base["tariff"]["export_price"] == 0.06
    assert pess["tariff"]["export_price"] == 0.0
    for preset in (base, pess):
        tech = preset["tech_econ"]
        assert tech["beta_es"] == 158.0
        assert tech["es_roundtrip_efficiency"] == 0.9
        assert tech["horizon_years"] == 20
        assert tech["discount_rate"] == 0.03
        assert tech["subsidy"] == {"rate_per_kw": 100.0,
                                   "max_capacity_kw": 100.0, "annual": False}
        assert preset["tariff"]["grid_energy_price"] == 0.13
        caps = [opt[0] for opt in preset["catalog"]["pv_options"]]
        assert caps == [50.0, 99.0, 157.0, 249.0]
        for cap, cost in preset["catalog"]["pv_options"]:
            assert cost == pytest.approx(72.0 * cap)
    # mutating a copy must not touch the stored preset
    base["tech_econ"]["beta_es"] = 0.0
    assert PRESETS["baseline"]["tech_econ"]["beta_es"] == 158.0


def _gen_dir(tmp_path, seed=3, consumers=2, days=1, scenarios=2,
             small_catalog=True, prediction_periods=16):
    out = tmp_path / f"proj{seed}"
    rc = cli_main(["gen", "--seed", str(seed), "--out", str(out),
                   "--consumers", str(consumers), "--days", str(days),
                   "--scenarios", str(scenarios)])
    assert rc == 0
    if small_catalog:
        # the preset catalog makes sizing enumerate dozens of candidate
        # LPs; a two-option catalog keeps these tests quick
        (out / "catalog.json").write_text(json.dumps(
            {"pv_options": [[6.0, 432.0], [12.0, 864.0]],
             "es_options": [[4.0, 288.0]]}))
    cfg = json.loads((out / "config.json").read_text())
    cfg["horizon"]["prediction_periods"] = prediction_periods
    (out / "config.json").write_text(json.dumps(cfg, sort_keys=True))
    return out


def test_project_config_loads_generated_bundle(tmp_path):
    out = _gen_dir(tmp_path)
    config = ProjectConfig.from_file(out / "config.json")
    assert config.case == "baseline"
    assert config.seed == 3
    bundle, catalog = config.load_inputs()
    assert bundle.grid.num_periods == 48
    assert bundle.grid.delta_hours == 0.5
    assert bundle.loads.num_consumers == 2
    assert bundle.tariff.grid_energy_price.shape == (48,)
    assert bundle.tariff.grid_energy_price[0] == 0.13
    assert len(catalog.pv_options) == 2
    realized = config.load_realized()
    assert realized.loads.shape == (48, 2)


def test_project_config_errors(tmp_path):
    missing = tmp_path / "nothing.json"
    with pytest.raises(DataFileError, match="no such config"):
        ProjectConfig.from_file(missing)

    out = _gen_dir(tmp_path, seed=8)
    cfg = json.loads((out / "config.json").read_text())

    broken = dict(cfg)
    broken["loads_csv"] = "gone.csv"
    path = out / "broken.json"
    path.write_text(json.dumps(broken))
    with pytest.raises(DataFileError, match="does not exist"):
        ProjectConfig.from_file(path)
    broken["loads_csv"] = 5
    path.write_text(json.dumps(broken))
    with pytest.raises(DataFileError, match="loads_csv must be a file name"):
        ProjectConfig.from_file(path)

    broken = dict(cfg)
    broken["seed"] = -1
    path.write_text(json.dumps(broken))
    with pytest.raises(DataFileError, match="seed"):
        ProjectConfig.from_file(path)

    broken = dict(cfg)
    del broken["tariff"]["local_price"]
    path.write_text(json.dumps(broken))
    with pytest.raises(DataFileError, match="local_price"):
        ProjectConfig.from_file(path)

    for text in ("[1]", '"x"'):
        path.write_text(text)
        with pytest.raises(DataFileError, match="JSON object") as err:
            ProjectConfig.from_file(path)
        assert str(path) in str(err.value)


def _config_with(tmp_path, section, key, value):
    """A generated config with one setting replaced; returns its path."""
    out = _gen_dir(tmp_path, seed=4)
    cfg = json.loads((out / "config.json").read_text())
    (cfg[section] if section else cfg)[key] = value
    path = out / "edited.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("section, key, value", [
    ("horizon", "control_periods", 1.5),
    ("horizon", "control_periods", 2),
    ("horizon", "prediction_periods", 47.9),
    (None, "periods_per_year", 17520.7),
    (None, "delta_hours", "x"),
    (None, "seed", True),
    ("tariff", "fixed_charge", None),
    ("tariff", "export_price", "x"),
    ("tech_econ", "subsidy", {"rate": 1}),
    ("tech_econ", "subsidy", {"rate_per_kw": None}),
    ("tech_econ", "subsidy", {"rate_per_kw": 1, "max_capacity_kw": None}),
    ("tech_econ", "subsidy", 5),
    ("tech_econ", "subsidy", {"rate_per_kw": 1, "annual": "no"}),
    ("tech_econ", "horizon_years", 1e30),
    ("tech_econ", "horizon_years", float("inf")),
    ("tech_econ", "horizon_years", float("nan")),
    ("tech_econ", "kappa", "x"),
    ("tech_econ", "beta_es", True),
    ("tech_econ", "es_roundtrip_efficiency", "0.9"),
    ("horizon", "theta", True),
    ("horizon", "theta", "1.0"),
    ("tariff", "local_price", -1.0),
    ("tariff", "fixed_charge", -1.0),
    ("tariff", "grid_energy_price", -0.1),
])
def test_config_rejects_malformed_numbers(tmp_path, section, key, value):
    # each value meets its domain type's rule (counts are whole numbers,
    # never truncated; numbers are finite, neither bools nor strings;
    # prices are nonnegative), and the error names the file and the key
    path = _config_with(tmp_path, section, key, value)
    with pytest.raises(DataFileError) as err:
        ProjectConfig.from_file(path)
    assert str(path) in str(err.value) and key in str(err.value)
    if section:
        assert section in str(err.value)


def test_config_naming_one_control_period_still_loads(tmp_path):
    # gen no longer writes control_periods; older configs carry it as 1,
    # and they load the same horizon as a config without it
    path = _config_with(tmp_path, "horizon", "control_periods", 1)
    assert ProjectConfig.from_file(path).horizon == \
        ProjectConfig.from_file(path.parent / "config.json").horizon


def test_config_loads_an_uncapped_subsidy(tmp_path):
    # JSON's Infinity is SubsidyRule's default threshold: no cap
    path = _config_with(tmp_path, "tech_econ", "subsidy",
                        {"rate_per_kw": 100.0, "max_capacity_kw": float("inf")})
    assert "Infinity" in path.read_text()
    subsidy = ProjectConfig.from_file(path).params.subsidy
    assert subsidy.max_capacity_kw == float("inf")


def test_config_refuses_unknown_keys(tmp_path):
    # a misspelt section or tariff field is refused, not left at its
    # default (a missing horizon runs theta = 1) or carried into the digest
    for section, key, value in ((None, "horzion", {"theta": 0.0}),
                                ("tariff", "export_prize", 0.06)):
        path = _config_with(tmp_path, section, key, value)
        with pytest.raises(DataFileError, match="is not a known key") as err:
            ProjectConfig.from_file(path)
        assert str(path) in str(err.value) and key in str(err.value)


def test_cli_null_delta_hours_is_an_error_not_a_traceback(tmp_path, capsys):
    path = _config_with(tmp_path, None, "delta_hours", None)
    assert cli_main(["size", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "delta_hours" in err


def test_tariff_series_broadcast_and_mismatch(tmp_path):
    out = _gen_dir(tmp_path, seed=9)
    cfg = json.loads((out / "config.json").read_text())
    cfg["tariff"]["grid_energy_price"] = [0.13] * 48
    path = out / "vector.json"
    path.write_text(json.dumps(cfg))
    config = ProjectConfig.from_file(path)
    bundle, _ = config.load_inputs()
    assert bundle.tariff.grid_energy_price.shape == (48,)

    cfg["tariff"]["grid_energy_price"] = [0.13] * 7
    path.write_text(json.dumps(cfg))
    with pytest.raises(DataFileError, match="48 periods") as err:
        ProjectConfig.from_file(path).load_inputs()
    assert str(path) in str(err.value)


# ---------------------------------------------------------------------------
# Command line


def test_cli_usage_errors_exit_2(tmp_path):
    assert cli_main(["frobnicate"]) == 2
    assert cli_main(["size"]) == 2  # missing --config
    assert cli_main(["size", "--config", "x.json", "--bogus"]) == 2
    assert cli_main(["simulate", "--config", "x.json",
                     "--algorithm", "nope"]) == 2
    assert cli_main([]) == 2
    assert cli_main(["--help"]) == 0


def test_cli_runtime_errors_exit_1(tmp_path, capsys):
    assert cli_main(["size", "--config", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_gen_refuses_a_seed_outside_64_bits(tmp_path, capsys):
    # the config would carry a seed that every other command refuses
    for seed in ("18446744073709551616", "-1"):
        out = tmp_path / f"gen{seed}"
        assert cli_main(["gen", "--seed", seed, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --seed must lie in [0, 2**64 - 1]")
        assert not (out / "config.json").exists()


def test_cli_out_of_memory_is_an_error_line(tmp_path, monkeypatch, capsys):
    # a data set too large to allocate ends in an error line, not a traceback
    for message, line in (
            ("Unable to allocate 35.8 GiB",
             "error: out of memory. Unable to allocate 35.8 GiB\n"),
            ("", "error: out of memory.\n")):
        def exhausted(*args, message=message):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "generate_synthetic", exhausted)
        assert cli_main(["gen", "--out", str(tmp_path / "big"),
                         "--days", "100000000"]) == 1
        assert capsys.readouterr().err == line


def test_cli_gen_then_size_happy_path(tmp_path):
    out = _gen_dir(tmp_path, seed=7)
    for name in ("loads.csv", "solar.csv", "realized_alphas.csv",
                 "realized_loads.csv", "catalog.json", "config.json"):
        assert (out / name).exists()
    rc = cli_main(["size", "--config", str(out / "config.json")])
    assert rc == 0
    report = json.loads((out / "sizing_report.json").read_text())
    assert report["decision"]["pv_capacity_kw"] >= 0.0
    assert "net_benefit_eur" in report
    assert report["economics"]["capex_total"] >= 0.0


def test_cli_allocate_prints_gamma_table(tmp_path, capsys):
    out = _gen_dir(tmp_path, seed=12)
    rc = cli_main(["allocate", "--config", str(out / "config.json")])
    assert rc == 0
    stdout = capsys.readouterr().out
    for gamma in ("0.00", "0.50", "1.00"):
        assert gamma in stdout

    report = json.loads((out / "allocation_report.json").read_text())
    gammas = [row["gamma"] for row in report["gamma_table"]]
    assert gammas == [0.0, 0.5, 1.0]
    lo = report["investor_breakeven_eur_per_kwh"]
    hi = report["consumer_breakeven_eur_per_kwh"]
    assert report["gamma_table"][0]["price_eur_per_kwh"] == pytest.approx(lo)
    assert report["gamma_table"][-1]["price_eur_per_kwh"] == pytest.approx(hi)
    assert (out / "key_scenario_00.csv").exists()
    assert (out / "key_scenario_01.csv").exists()
    # emitted keys obey the conservative allocation rules on read-back
    plan_loads = load_loads_csv(out / "loads.csv")
    key = load_loads_csv(out / "key_scenario_00.csv")
    flags = check_key(key.values, plan_loads.values,
                      key.values.sum(axis=1), tol=1e-6)
    assert not flags


@pytest.mark.parametrize("algorithm",
                         ["proposed", "mpc_myopic", "rulebased_myopic"])
def test_cli_simulate_key_csv_revalidates(tmp_path, algorithm):
    out = _gen_dir(tmp_path, seed=5)
    rc = cli_main(["simulate", "--config", str(out / "config.json"),
                   "--algorithm", algorithm])
    assert rc == 0
    key = load_loads_csv(out / f"key_{algorithm}.csv")
    realized = load_loads_csv(out / "realized_loads.csv")
    _, dispatch = io._read_table(out / f"dispatch_{algorithm}.csv")
    served = dispatch[:, 6]  # to_consumers column
    flags = check_key(key.values, realized.values, served, tol=1e-6)
    assert not flags

    report = json.loads((out / f"report_{algorithm}.json").read_text())
    assert report["algorithm"] == algorithm
    assert len(report["delivered_kwh"]) == 2
    assert report["cumulative_deficit_kwh"] >= 0.0
    header, mismatch = io._read_table(out / f"mismatch_{algorithm}.csv")
    assert header == ["c01", "c02"]
    assert mismatch.shape == (48, 2)
    assert mismatch[-1, 0] == pytest.approx(
        report["end_mismatch_kwh"][0], abs=1e-9)


def test_cli_sweep_writes_both_tables(tmp_path):
    out = _gen_dir(tmp_path, seed=6)
    rc = cli_main(["sweep", "--config", str(out / "config.json"),
                   "--capacities", "0,6,12", "--prices", "0.05,0.10"])
    assert rc == 0
    header, caps = io._read_table(out / "sweep_capacity.csv")
    assert header[0] == "pv_capacity_kw"
    assert caps.shape[0] == 3
    assert caps[0, 2] == pytest.approx(0.0, abs=1e-9)  # no build, no benefit
    header, prices = io._read_table(out / "sweep_price.csv")
    assert prices.shape == (2, 4)
    # investor profit + consumer savings always split the same pie
    assert prices[:, 2] + prices[:, 3] == pytest.approx(
        prices[0, 2] + prices[0, 3])


def test_cli_runs_every_command_on_a_plan_with_nothing_to_share(tmp_path,
                                                               capsys):
    # on this data set size builds nothing and reports a net benefit of a
    # few 1e-12 EUR, which is rounding: no local energy is sold, so
    # allocate and sweep skip the prices with the same line and exit 0
    out = tmp_path / "nothing"
    assert cli_main(["gen", "--case", "pessimistic", "--consumers", "3",
                     "--days", "1", "--scenarios", "3", "--seed", "0",
                     "--out", str(out)]) == 0
    config = str(out / "config.json")
    assert cli_main(["size", "--config", config]) == 0
    sized = json.loads((out / "sizing_report.json").read_text())
    assert sized["economics"]["annual_local_energy"] == 0.0
    capsys.readouterr()
    skipped = []
    for argv in (["allocate"], ["simulate", "--algorithm", "proposed"],
                 ["simulate", "--algorithm", "mpc_myopic"],
                 ["simulate", "--algorithm", "rulebased_myopic"], ["sweep"]):
        assert cli_main(argv + ["--config", config]) == 0, argv
        lines = capsys.readouterr().out.splitlines()
        skipped += [line for line in lines if "skipping" in line]
    assert skipped == [cli._NOTHING_TO_SHARE] * 2
    report = json.loads((out / "allocation_report.json").read_text())
    assert report["investor_breakeven_eur_per_kwh"] is None
    assert report["consumer_breakeven_eur_per_kwh"] is None
    assert report["gamma_table"] == []
    assert report["promise_kwh"] == [0.0, 0.0, 0.0]
    assert (out / "key_scenario_02.csv").exists()
    assert (out / "sweep_capacity.csv").exists()
    assert not (out / "sweep_price.csv").exists()


@pytest.mark.parametrize("flag, value", [
    ("--capacities", "nan"), ("--capacities", "-5"), ("--capacities", "1e309"),
    ("--capacities", "6,13"), ("--prices", "nan"), ("--capacities", ""),
    ("--prices", "")])
def test_cli_sweep_refuses_bad_values(tmp_path, capsys, flag, value):
    # the small catalog's largest PV inverter is 12 kW; a refused value
    # names its flag and writes no sweep table (an empty flag too: it
    # lists no values, it does not ask for the default sweep)
    out = _gen_dir(tmp_path, seed=6)
    assert cli_main(["sweep", "--config", str(out / "config.json"),
                     flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert not list(out.glob("sweep_*.csv"))


def test_cli_sweep_shares_one_cut_pool(tmp_path, monkeypatch):
    out = _gen_dir(tmp_path, seed=6)
    config = str(out / "config.json")
    assert cli_main(["size", "--config", config]) == 0
    caps = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
    bundle, catalog = ProjectConfig.from_file(config).load_inputs()
    periods = bundle.grid.num_periods
    dispatch_lps = []

    def counting(lp, **kwargs):
        if lp.c.shape[0] == 5 * periods:  # five columns per period
            dispatch_lps.append(lp)
        return numerics.solve_lp(lp, **kwargs)

    monkeypatch.setattr(sizing, "solve_lp", counting)
    assert cli_main(["sweep", "--config", config,
                     "--capacities", ",".join(map(str, caps))]) == 0
    swept = len(dispatch_lps)
    dispatch_lps.clear()
    _, rows = io._read_table(out / "sweep_capacity.csv")
    for cap, objective in zip(caps, rows[:, 1]):
        fresh = solve_sizing(bundle, catalog, pv_capacity_fixed=cap)
        assert objective == pytest.approx(fresh.objective, rel=1e-9)
    assert 0 < swept < len(dispatch_lps)


def test_cli_reports_byte_identical_across_runs(tmp_path):
    out = _gen_dir(tmp_path, seed=31)
    config = str(out / "config.json")
    runs = []
    for run in ("one", "two"):
        dest = tmp_path / run
        assert cli_main(["size", "--config", config, "--out", str(dest)]) == 0
        assert cli_main(["allocate", "--config", config,
                         "--out", str(dest)]) == 0
        assert cli_main(["simulate", "--config", config,
                         "--out", str(dest)]) == 0
        assert cli_main(["sweep", "--config", config, "--out", str(dest),
                         "--capacities", "0,12"]) == 0
        runs.append(dest)
    first = sorted(p.name for p in runs[0].iterdir())
    second = sorted(p.name for p in runs[1].iterdir())
    assert first == second
    for name in first:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_cli_gen_deterministic_and_distinct_seeds(tmp_path):
    a = _gen_dir(tmp_path / "a", seed=42, small_catalog=False)
    b = _gen_dir(tmp_path / "b", seed=42, small_catalog=False)
    c = _gen_dir(tmp_path / "c", seed=43, small_catalog=False)
    for name in ("loads.csv", "solar.csv", "realized_alphas.csv",
                 "realized_loads.csv", "catalog.json", "config.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "loads.csv").read_bytes() != (c / "loads.csv").read_bytes()


# ---------------------------------------------------------------------------
# The plan artifact


def _base_solves(monkeypatch):
    """Count the unpinned solve_sizing calls the CLI makes (the base plan);
    sweep's capacity points pin the PV size and are not counted."""
    calls = []
    real = cli.solve_sizing

    def counting(bundle, catalog, **kwargs):
        if kwargs.get("pv_capacity_fixed") is None:
            calls.append(kwargs)
        return real(bundle, catalog, **kwargs)

    monkeypatch.setattr(cli, "solve_sizing", counting)
    return calls


def test_plan_json_roundtrip_bit_exact(tmp_path):
    out = _gen_dir(tmp_path, seed=17)
    config = ProjectConfig.from_file(out / "config.json")
    bundle, catalog = config.load_inputs()
    sizing = dataclasses.replace(
        solve_sizing(bundle, catalog),
        flags=("scenario 0 period 3: import/export overlap 2e-06 kWh",))
    path = tmp_path / "plan.json"
    digest = config.plan_digest()
    write_plan_json(path, sizing, digest)
    back = load_plan_json(path, digest, bundle)

    assert back.decision == sizing.decision
    assert back.objective == sizing.objective
    assert back.flags == sizing.flags
    for field in dataclasses.fields(sizing.economics):
        assert getattr(back.economics, field.name) \
            == getattr(sizing.economics, field.name), field.name
    assert back.probabilities.tobytes() == sizing.probabilities.tobytes()
    assert len(back.dispatches) == len(sizing.dispatches) == 2
    for got, want in zip(back.dispatches, sizing.dispatches):
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert np.array_equal(a, b), field.name
            assert a.tobytes() == b.tobytes(), field.name

    # another digest names other inputs; no file means no plan
    assert load_plan_json(path, "0" * 64, bundle) is None
    assert load_plan_json(tmp_path / "absent.json", digest, bundle) is None


def test_cli_commands_reuse_the_sized_plan(tmp_path, monkeypatch):
    out = _gen_dir(tmp_path, seed=13)
    config = str(out / "config.json")
    solves = _base_solves(monkeypatch)
    assert cli_main(["size", "--config", config]) == 0
    assert len(solves) == 1
    assert (out / "plan.json").exists()
    assert cli_main(["allocate", "--config", config]) == 0
    assert cli_main(["simulate", "--config", config]) == 0
    assert cli_main(["sweep", "--config", config,
                     "--capacities", "0,12"]) == 0
    assert len(solves) == 1
    # size always solves again
    assert cli_main(["size", "--config", config]) == 0
    assert len(solves) == 2


def test_plan_digest_follows_sizing_inputs_only(tmp_path, monkeypatch):
    out = _gen_dir(tmp_path, seed=14)
    config = out / "config.json"
    solves = _base_solves(monkeypatch)
    assert cli_main(["size", "--config", str(config)]) == 0

    def edit(change):
        cfg = json.loads(config.read_text())
        change(cfg)
        config.write_text(json.dumps(cfg, sort_keys=True))
        before = len(solves)
        assert cli_main(["allocate", "--config", str(config)]) == 0
        return len(solves) - before

    assert edit(lambda c: c["horizon"].update(prediction_periods=8)) == 0
    assert edit(lambda c: c["tariff"].update(grid_energy_price=0.14)) == 1
    assert edit(lambda c: c["tech_econ"].update(beta_es=150.0)) == 1
    assert edit(lambda c: None) == 0
    loads = out / "loads.csv"
    loads.write_text(loads.read_text().replace("c01", "x01", 1))
    assert edit(lambda c: None) == 1
    assert edit(lambda c: None) == 0


def test_cold_and_warm_commands_write_identical_reports(tmp_path):
    out = _gen_dir(tmp_path, seed=15)
    config = str(out / "config.json")
    cold_alloc, cold_sim, warm = (tmp_path / n for n in ("ca", "cs", "warm"))
    assert cli_main(["allocate", "--config", config,
                     "--out", str(cold_alloc)]) == 0
    assert cli_main(["simulate", "--config", config,
                     "--out", str(cold_sim)]) == 0
    for command in ("size", "allocate", "simulate"):
        assert cli_main([command, "--config", config,
                         "--out", str(warm)]) == 0
    for cold in (cold_alloc, cold_sim):
        names = sorted(p.name for p in cold.iterdir())
        assert "plan.json" in names
        for name in names:
            assert (cold / name).read_bytes() == (warm / name).read_bytes(), name


def test_malformed_plan_with_matching_digest_is_an_error(tmp_path, capsys):
    out = _gen_dir(tmp_path, seed=16)
    config = str(out / "config.json")
    assert cli_main(["size", "--config", config]) == 0
    plan_path = out / "plan.json"
    good = json.loads(plan_path.read_text())

    def drop_key(p):
        del p["economics"]

    def drop_scenario(p):
        p["dispatches"].pop()

    def short_series(p):
        p["dispatches"][0]["charge"].pop()

    def other_probabilities(p):
        p["probabilities"] = [0.5, 0.5]

    for corrupt in (drop_key, drop_scenario, short_series,
                    other_probabilities):
        bad = json.loads(json.dumps(good))
        corrupt(bad)
        plan_path.write_text(json.dumps(bad))
        capsys.readouterr()
        assert cli_main(["allocate", "--config", config]) == 1, corrupt
        err = capsys.readouterr().err
        assert "error:" in err and "plan.json" in err, corrupt
        assert "Traceback" not in err

    plan_path.write_text('{"digest": ')
    assert cli_main(["simulate", "--config", config]) == 1
    assert "plan.json" in capsys.readouterr().err


def test_size_then_allocate_as_separate_processes(tmp_path):
    out = _gen_dir(tmp_path, seed=18)
    config = str(out / "config.json")
    src = str(Path(pvpool.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(command):
        proc = subprocess.run(
            [sys.executable, "-m", "pvpool", command, "--config", config],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    run("size")
    plan = out / "plan.json"
    written = (plan.stat().st_mtime_ns, plan.read_bytes())
    run("allocate")
    # allocate read the plan and did not write it again
    assert (plan.stat().st_mtime_ns, plan.read_bytes()) == written
    assert (out / "allocation_report.json").exists()


def test_import_sets_one_blas_thread_unless_the_user_did():
    # pvpool sets the BLAS thread variables before NumPy loads; a value the
    # user set survives
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    src = str(Path(pvpool.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = f"import pvpool, os; print(*(os.environ[k] for k in {names!r}))"

    def seen(**user):
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(env, **user), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    assert seen() == ["1", "1", "1"]
    assert seen(OPENBLAS_NUM_THREADS="3") == ["3", "1", "1"]
