"""Domain type validation and cross-input consistency checks."""

import re

import numpy as np
import pytest

from pvpool.domain import (
    DispatchSeries,
    DomainError,
    InverterCatalog,
    LoadMatrix,
    RealizedTrajectory,
    RepartitionKey,
    SizingDecision,
    SolarScenarioSet,
    SubsidyRule,
    Tariff,
    TechEconParams,
    TimeGrid,
    check_dispatch,
    check_key,
    number_array,
    validate_inputs,
)
from pvpool.operation import HorizonWindow, OperationState, settle
from pvpool.storage import StorageSpec


def _grid(t=4):
    return TimeGrid(0.5, t, periods_per_year=17520)


def _loads(t=4, n=2):
    return LoadMatrix(np.full((t, n), 1.5), tuple(f"c{i}" for i in range(n)))


def _scenarios(t=4, w=3):
    return SolarScenarioSet(np.full((t, w), 0.5), np.full(w, 1.0 / w))


def _tariff(t=4):
    return Tariff(np.full(t, 0.13), 0.15, np.full(t, 0.06), np.zeros(t), 0.115)


def _params(**overrides):
    base = dict(beta_pv_tiers=((0.0, 1100.0), (100.0, 950.0)), beta_es=158.0,
                beta_es_use=0.01, beta_mnt=10.0, grid_connection_cost=1000.0)
    base.update(overrides)
    return TechEconParams(**base)


def test_consistent_inputs_accepted():
    bundle = validate_inputs(_grid(), _loads(), _scenarios(), _tariff(), _params())
    assert bundle.loads.num_consumers == 2
    assert bundle.grid.num_periods == 4


def test_alpha_out_of_range_rejected():
    with pytest.raises(DomainError, match="alpha out of range"):
        SolarScenarioSet(np.full((4, 1), 1.2), np.array([1.0]))


def test_probabilities_must_sum_to_one():
    with pytest.raises(DomainError, match="probabilities sum"):
        SolarScenarioSet(np.full((4, 2), 0.5), np.array([0.6, 0.6]))


def test_no_scenario_rejected():
    # sizing divides by the scenario count: a bundle without one is refused
    with pytest.raises(DomainError, match="nonempty"):
        SolarScenarioSet(np.zeros((4, 0)), [])


def test_negative_load_rejected():
    with pytest.raises(DomainError, match="negative load"):
        LoadMatrix(np.array([[1.0, -0.1]]), ("a", "b"))


def test_duplicate_consumer_ids_rejected():
    with pytest.raises(DomainError, match="unique"):
        LoadMatrix(np.ones((2, 2)), ("a", "a"))


def test_grid_mismatch_collected_by_validate():
    with pytest.raises(DomainError) as exc:
        validate_inputs(_grid(8), _loads(4), _scenarios(6), _tariff(4), _params())
    joined = str(exc.value)
    assert "loads cover 4 periods" in joined
    assert "scenarios cover 6 periods" in joined
    assert "tariff covers 4 periods" in joined


def test_timegrid_rejects_nonpositive_delta():
    with pytest.raises(DomainError):
        TimeGrid(0.0, 4)
    with pytest.raises(DomainError):
        TimeGrid(0.5, 0)


@pytest.mark.parametrize("build, field", [
    (lambda: InverterCatalog(((float("nan"), 1.0),), ((4.0, 288.0),)),
     "pv_options[0]"),
    (lambda: SubsidyRule(annual="no"), "annual"),
    (lambda: _params(kappa=True), "kappa"),
    (lambda: Tariff(np.full(4, 0.13), 0.0, np.full(4, 0.06), np.zeros(4),
                    True), "local_price"),
    (lambda: Tariff(["0.1"], 0.0, [0.06], [0.0], 0.1), "grid_energy_price"),
    (lambda: Tariff([0.1, 0.1], 0.0, [0.06, True], [0.0, 0.0], 0.1),
     "export_price"),
    (lambda: TimeGrid(True, 48), "delta_hours"),
], ids=["catalog-nan", "subsidy-annual-str", "kappa-bool", "local_price-bool",
        "series-of-str", "series-with-bool", "delta_hours-bool"])
def test_values_that_are_not_numbers_are_refused(build, field):
    # a bool or a string never stands in for a number, nor a NaN for a
    # capacity, and the message names the field
    with pytest.raises(DomainError, match=re.escape(field)):
        build()


def test_numpy_scalars_are_numbers_and_a_number_is_a_series():
    grid = TimeGrid(np.float32(0.5), np.int64(4), np.int64(17520))
    assert (grid.delta_hours, grid.num_periods) == (0.5, 4)
    assert _params(kappa=np.int64(3)).kappa == 3.0
    # a number applies to every period of the tariff's vectors
    tariff = Tariff(np.full(4, 0.13), 0.0, 0.06, [0.0, 0.01, 0.0, 0.0], 0.1)
    assert tariff.export_price.tolist() == [0.06] * 4
    assert Tariff(0.13, 0.0, 0.06, 0.0, 0.1).num_periods == 1
    with pytest.raises(DomainError, match="share one length"):
        Tariff(np.full(4, 0.13), 0.0, np.full(3, 0.06), 0.0, 0.1)
    assert SubsidyRule(max_capacity_kw=np.inf).amount(1e9) == 0.0


def test_arrays_are_write_protected():
    loads = _loads()
    with pytest.raises(ValueError):
        loads.values[0, 0] = 5.0
    scen = _scenarios()
    with pytest.raises(ValueError):
        scen.probabilities[0] = 0.9


def test_catalog_ordering_enforced():
    InverterCatalog(((50.0, 3600.0), (99.0, 7128.0)), ((50.0, 3600.0),))
    with pytest.raises(DomainError, match="strictly increasing"):
        InverterCatalog(((99.0, 7128.0), (50.0, 3600.0)), ((50.0, 3600.0),))
    with pytest.raises(DomainError, match="nonempty"):
        InverterCatalog((), ((50.0, 3600.0),))


def test_pv_tier_rate_boundary_uses_later_tier():
    params = _params()
    assert params.pv_rate(99.0) == 1100.0
    assert params.pv_rate(100.0) == 950.0
    assert params.pv_rate(250.0) == 950.0


def test_present_value_factor_matches_annuity_formula():
    params = _params(discount_rate=0.03, horizon_years=20)
    closed_form = (1.0 - 1.03 ** -20) / 0.03
    assert params.present_value_factor() == pytest.approx(closed_form, rel=1e-12)
    flat = _params(discount_rate=0.0, horizon_years=7)
    assert flat.present_value_factor() == pytest.approx(7.0)


def test_subsidy_threshold_is_inclusive():
    rule = SubsidyRule(rate_per_kw=100.0, max_capacity_kw=100.0)
    assert rule.amount(99.0) == pytest.approx(9900.0)
    assert rule.amount(100.0) == pytest.approx(10000.0)
    assert rule.amount(100.5) == 0.0


def test_sizing_decision_respects_inverter_rating():
    with pytest.raises(DomainError, match="exceeds its inverter rating"):
        SizingDecision(60.0, 0.0, 0.0, 0, 50.0, 3600.0, None, 0.0, 0.0)
    no_build = SizingDecision(0.0, 0.0, 0.0, None, 0.0, 0.0, None, 0.0, 0.0)
    assert not no_build.builds_anything


def test_dispatch_series_shape_and_sign():
    t = 3
    ds = DispatchSeries(np.zeros(t), np.zeros(t), np.ones(t), np.ones(t),
                        np.zeros(t), np.zeros(t), np.zeros(t + 1))
    assert ds.num_periods == t
    with pytest.raises(DomainError, match="nonnegative"):
        DispatchSeries(np.array([-1.0]), np.zeros(1), np.zeros(1), np.zeros(1),
                       np.zeros(1), np.zeros(1), np.zeros(2))
    with pytest.raises(DomainError, match="inconsistent"):
        DispatchSeries(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2),
                       np.zeros(2), np.zeros(2), np.zeros(2))


def test_check_dispatch_reports_balance_and_overlap():
    t = 2
    ds = DispatchSeries(np.zeros(t), np.zeros(t), np.array([4.0, 0.0]),
                        np.array([6.0, 3.0]), np.array([0.0, 2.5]),
                        np.array([4.0, 0.0]), np.zeros(t + 1))
    assert check_dispatch(ds, np.array([10.0, 3.0])) == [
        "period 1: import and surplus overlap by 2.5 kWh"]
    assert any("!= load" in msg for msg in check_dispatch(ds, np.array([9.0, 3.0])))


def test_check_key_conditions():
    loads = np.array([[2.0, 3.0], [1.0, 4.0]])
    served = np.array([10.0, 3.0])
    # surplus period takes the whole load row; deficit period splits it
    good = np.array([[2.0, 3.0], [0.6, 2.4]])
    assert check_key(good, loads, served) == []
    too_much = np.array([[2.0, 3.1], [0.6, 2.4]])
    assert any("exceeds load" in m for m in check_key(too_much, loads, served))
    short_row = np.array([[2.0, 2.0], [0.6, 2.4]])
    assert any("row sum" in m for m in check_key(short_row, loads, served))


def test_realized_trajectory_validation():
    traj = RealizedTrajectory(np.array([0.0, 0.5]), np.ones((2, 3)))
    assert traj.num_periods == 2
    assert traj.num_consumers == 3
    with pytest.raises(DomainError, match="alpha out of range"):
        RealizedTrajectory(np.array([1.5]), np.ones((1, 1)))
    with pytest.raises(DomainError, match="share one length"):
        RealizedTrajectory(np.array([0.5]), np.ones((2, 1)))


def test_repartition_key_clamps_rounding_noise():
    key = RepartitionKey(np.array([[1.0, -1e-12]]))
    assert key.values[0, 1] == 0.0
    assert key.values.sum(axis=0)[0] == pytest.approx(1.0)


def _field_bases():
    """One valid value of every numeric field of the types that take numbers
    from outside the program, by builder: the base keyword arguments, and
    the name a message gives a field where it is not the field's own."""
    t2, m22 = np.zeros(2), np.ones((2, 2))
    return [
        (LoadMatrix, dict(values=m22, consumer_ids=("a", "b")),
         {"values": "load values"}),
        (SolarScenarioSet, dict(alphas=np.full((2, 2), 0.5),
                                probabilities=np.full(2, 0.5)),
         {"alphas": "alpha"}),
        (Tariff, dict(grid_energy_price=np.full(2, 0.13), fixed_charge=0.0,
                      export_price=np.full(2, 0.06), export_tax=t2,
                      local_price=0.1), {}),
        (RealizedTrajectory, dict(alphas=np.full(2, 0.5), loads=m22),
         {"alphas": "realized alpha", "loads": "realized loads"}),
        (DispatchSeries, dict(charge=t2, discharge=t2, pv_gen=t2,
                              grid_import=t2, surplus=t2, to_consumers=t2,
                              soc=np.zeros(3)), {}),
        (RepartitionKey, dict(values=m22), {"values": "key values"}),
        (SizingDecision, dict(pv_capacity_kw=10.0, es_power_kw=1.0,
                              es_energy_kwh=2.0, pv_inverter_index=0,
                              pv_inverter_capacity_kw=50.0,
                              pv_inverter_cost=3600.0, es_inverter_index=1,
                              es_inverter_capacity_kw=4.0,
                              es_inverter_cost=288.0), {}),
        (StorageSpec, dict(power_cap_kw=1.0, energy_cap_kwh=2.0,
                           efficiency=0.9), {}),
        (OperationState, dict(soc_kwh=1.0, e_past=t2, promise=np.ones(2),
                              e_future=t2), {}),
        (HorizonWindow, dict(delta_hours=0.5, head_loads=np.ones(2),
                             head_gen=0.5, tail_loads=np.ones((1, 2)),
                             tail_gen=np.full((1, 2), 0.5),
                             probabilities=np.full(2, 0.5),
                             grid_price=np.full(2, 0.13),
                             export_price=np.full(2, 0.06), export_tax=t2),
         {}),
        (settle, dict(served=1.0, realized_loads=np.ones(2), level=t2), {}),
    ]


def _not_numbers(base):
    """What a field must refuse: True, a numeric string and NaN; for an
    array field also a list holding a string or a bool, and a NaN entry."""
    yield "True", True
    yield "str", "1.5"
    if not isinstance(base, np.ndarray):
        yield "nan", np.nan
        return
    for kind, bad in (("str-entry", "1.5"), ("bool-entry", True)):
        entries = base.tolist()
        row = entries
        while isinstance(row[0], list):
            row = row[0]
        row[0] = bad
        yield kind, entries
    nan_entry = base.copy()
    nan_entry.flat[0] = np.nan
    yield "nan-entry", nan_entry


_NOT_NUMBER_CASES = [
    pytest.param(build, base, field, labels.get(field, field), bad,
                 id=f"{build.__name__}.{field}-{kind}")
    for build, base, labels in _field_bases() for field in base
    if field != "consumer_ids" for kind, bad in _not_numbers(base[field])]


@pytest.mark.parametrize("build, base, field, label, bad", _NOT_NUMBER_CASES)
def test_every_numeric_field_refuses_what_is_not_a_number(build, base, field,
                                                          label, bad):
    # one rule for every number that comes from outside: a bool or a
    # string never stands in for a number, in a list or alone, nor a NaN
    # for a finite value, and the message names the field
    build(**base)
    with pytest.raises(DomainError, match=re.escape(label)):
        build(**{**base, field: bad})


def test_stored_arrays_are_read_only_contiguous_copies():
    # a caller's array, view or list is copied into a read-only,
    # C-contiguous array: a stride-0 broadcast view rounds a product
    # differently from a contiguous copy
    prices = np.broadcast_to(np.array(0.13), (4,))
    tariff = Tariff(prices, 0.0, 0.06, [0.0] * 4, 0.1)
    loads = np.ones((4, 3))
    matrix = LoadMatrix(loads[:, ::2], ("a", "b"))
    state = OperationState(1.0, loads[0, ::2], [1.0, 1.0], loads.T[0, :2])
    window = HorizonWindow(0.5, loads[0, ::2], 0.5, [], [], [1.0], [0.13],
                           prices[:1], [0.0])
    stored = [tariff.grid_energy_price, tariff.export_price,
              tariff.export_tax, matrix.values,
              RepartitionKey(loads.T).values,
              SolarScenarioSet([[0.5, 0.5]], (0.5, 0.5)).probabilities,
              state.e_past, state.promise, state.e_future,
              *(getattr(window, name) for name in (
                  "head_loads", "tail_loads", "tail_gen", "probabilities",
                  "grid_price", "export_price", "export_tax"))]
    for arr in stored:
        assert arr.flags.c_contiguous and not arr.flags.writeable
        assert arr.base is None or not np.shares_memory(arr, loads)
    assert tariff.export_price.tolist() == [0.06] * 4
    loads[0, 0] = 5.0
    assert matrix.values[0, 0] == 1.0


@pytest.mark.parametrize("values", [
    [[1.0], [1.0, 2.0]], [(1.0,), (1.0, 2.0)], [np.ones(1), np.ones(2)],
    [np.ones((2, 2)), np.ones((2, 3))]],
    ids=["ragged-lists", "ragged-tuples", "ragged-vectors", "ragged-arrays"])
def test_ragged_arrays_are_refused(values):
    # a ragged nesting is no matrix, whether NumPy makes an array of lists,
    # tuples or arrays of it or cannot make an array at all
    with pytest.raises(DomainError,
                       match="^load values must be a matrix of numbers$"):
        LoadMatrix(values, ("a", "b"))
    assert number_array(values, "x", 2) == (
        None, ["x must be a matrix of numbers"])
