"""Planning and operation of a shared solar-plus-storage collective.

The pipeline runs in three stages: size the installation for long-term
welfare (sizing), split the benefit and promise energy to each consumer
(allocation), then control and settle the system through the year while
tracking those promises (operation).  Everything reduces to one embedded
solver in numerics, whose one program type states an LP as a QP with a zero
quadratic term; io and cli handle files and the command line.
"""

import os

# One BLAS thread unless the user says otherwise, set before NumPy loads.
# The solves are too small to gain from threads: with another process
# busy, OpenBLAS's default threads made a 40-consumer run 15 times slower.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

__version__ = "0.1.0"  # set first: io puts it in the plan digest

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
from .numerics import NumericsError, ProblemBuilder, solve_qp
from .storage import StorageSpec, check_feasible, soc_trajectory
from .sizing import (
    SizingError,
    SizingResult,
    capex,
    dispatch_costs,
    investor_profit,
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
    YearReport,
    mpc_step,
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

