"""Planning and operation of a shared solar-plus-storage collective.

The pipeline runs in three stages: size the installation for long-term
welfare (sizing), split the benefit and promise energy to each consumer
(allocation), then control and settle the system through the year while
tracking those promises (operation).  Everything reduces to the embedded
LP/QP solver in numerics; io and cli handle files and the command line.
"""

from .domain import (
    DispatchSeries,
    DomainError,
    InputBundle,
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
    validate_inputs,
)
from .numerics import NumericsError, ProblemBuilder, solve_lp, solve_qp
from .storage import StorageSpec, check_feasible, soc_trajectory
from .sizing import (
    SizingError,
    SizingResult,
    capex,
    investor_profit,
    opex,
    pv_production,
    solve_sizing,
    split_flows,
    welfare_objective,
)
from .allocation import (
    AllocationError,
    AllocationPlan,
    PriceRange,
    breakeven_prices,
    gamma_price_map,
    min_variance_key,
    net_benefit,
)
from .operation import (
    ALGORITHMS,
    ControlDecision,
    HorizonConfig,
    HorizonWindow,
    OperationError,
    OperationState,
    SettlementRecord,
    YearReport,
    compute_mismatch,
    mpc_step,
    myopic_settle,
    rule_based_control,
    run_year,
    settle,
)
from .io import (
    DataFileError,
    PRESETS,
    ProjectConfig,
    generate_synthetic,
    load_loads_csv,
    load_solar_csv,
    preset_config,
    write_loads_csv,
    write_solar_csv,
)
from .cli import cli_main

__version__ = "0.1.0"
