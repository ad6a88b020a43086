"""Battery model: state-of-charge recursion, the battery rule and
feasibility checks.

One linear storage model backs everything: the sizing LP, the rolling-horizon
control problem, the simulation and the validator `check_feasible` all use
the same recursion SoC_{t+1} = SoC_t + eta_c * c_t - d_t / eta_d, so a
dispatch declared feasible by one path is feasible for all of them.  Every
planned dispatch meets the battery in one place, `realize`, which clips one
period of the plan to the battery: the sizing plan of each scenario, the
MPC's head and the greedy rule's plan alike.

The two optimization models share its state-recursion form: the sizing
dispatch LP (sizing._dispatch_lp) and the control problem
(operation._control_qp) carry the state of charge as variables tied by one
equality row per period, so their rows and nonzeros grow linearly in the
horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import DomainError

_DEFAULT_EFF = math.sqrt(0.9)  # split of a 90% round trip
_CYCLIC_TOL = 1e-8


@dataclass(frozen=True)
class StorageSpec:
    """Physical battery envelope plus simulation conventions.

    power_cap_kw limits charge and discharge each period, energy_cap_kwh the
    stored energy.  cyclic=True requires the final state of charge to return
    to the initial one, which stops a simulated year from minting energy out
    of its starting charge.
    """

    power_cap_kw: float
    energy_cap_kwh: float
    charge_efficiency: float = _DEFAULT_EFF
    discharge_efficiency: float = _DEFAULT_EFF
    initial_soc_fraction: float = 0.5
    cyclic: bool = True

    def __post_init__(self):
        errors = []
        if not (np.isfinite(self.power_cap_kw) and self.power_cap_kw >= 0):
            errors.append("power cap must be nonnegative")
        if not (np.isfinite(self.energy_cap_kwh) and self.energy_cap_kwh >= 0):
            errors.append("energy cap must be nonnegative")
        for name in ("charge_efficiency", "discharge_efficiency"):
            eta = getattr(self, name)
            if not (0 < eta <= 1):
                errors.append(f"{name} must lie in (0, 1]")
        if not (0 <= self.initial_soc_fraction <= 1):
            errors.append("initial_soc_fraction must lie in [0, 1]")
        if errors:
            raise DomainError(errors)
        for name in ("power_cap_kw", "energy_cap_kwh", "charge_efficiency",
                     "discharge_efficiency", "initial_soc_fraction"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "cyclic", bool(self.cyclic))

    @classmethod
    def from_roundtrip(cls, power_cap_kw, energy_cap_kwh, roundtrip_efficiency,
                       **kwargs):
        """Split a round-trip efficiency evenly between charge and discharge."""
        eta = math.sqrt(roundtrip_efficiency)
        return cls(power_cap_kw, energy_cap_kwh, charge_efficiency=eta,
                   discharge_efficiency=eta, **kwargs)

    @classmethod
    def from_sizing(cls, decision, params, **kwargs):
        """Battery implied by a sizing decision and its round-trip efficiency."""
        return cls.from_roundtrip(decision.es_power_kw, decision.es_energy_kwh,
                                  params.es_roundtrip_efficiency, **kwargs)

    @property
    def initial_soc_kwh(self):
        return self.initial_soc_fraction * self.energy_cap_kwh


def soc_trajectory(spec, charge, discharge):
    """State of charge before each period plus the final state, length T+1."""
    c = np.asarray(charge, dtype=np.float64)
    d = np.asarray(discharge, dtype=np.float64)
    if c.shape != d.shape or c.ndim != 1:
        raise DomainError("charge and discharge must be vectors of equal length")
    steps = spec.charge_efficiency * c - d / spec.discharge_efficiency
    soc = np.empty(c.shape[0] + 1)
    soc[0] = spec.initial_soc_kwh
    np.cumsum(steps, out=soc[1:])
    soc[1:] += soc[0]
    return soc


def realize(c_plan, d_plan, gen_real, soc, spec, delta):
    """Clip one period's planned dispatch to what the realized solar and
    SoC allow.

    Charging comes from local production only, so it is curtailed to the
    realized generation; discharge may draw on the same period's charge but
    never below empty.  Returns the realized charge and discharge and the
    SoC after the period.
    """
    cap = spec.power_cap_kw * delta
    c = min(c_plan, gen_real, cap,
            max(spec.energy_cap_kwh - soc, 0.0) / spec.charge_efficiency)
    c = max(c, 0.0)
    d = max(min(d_plan, cap,
                (soc + spec.charge_efficiency * c)
                * spec.discharge_efficiency), 0.0)
    soc = soc + spec.charge_efficiency * c - d / spec.discharge_efficiency
    return c, d, min(max(soc, 0.0), spec.energy_cap_kwh)


def check_feasible(spec, charge, discharge, delta_hours, tol=1e-9):
    """All bound violations of a dispatch, empty when it is feasible.

    Checks per-period power limits, the state-of-charge envelope along the
    whole trajectory, and the cyclic condition when the spec demands it.
    """
    c = np.asarray(charge, dtype=np.float64)
    d = np.asarray(discharge, dtype=np.float64)
    limit = spec.power_cap_kw * delta_hours
    problems = []
    for name, vec in (("charge", c), ("discharge", d)):
        for t in np.flatnonzero(vec < -tol):
            problems.append(f"{name} at period {t} is {vec[t]:.9g}, below 0")
        for t in np.flatnonzero(vec > limit + tol):
            problems.append(
                f"{name} at period {t} is {vec[t]:.9g}, above the power limit {limit:.9g}")
    soc = soc_trajectory(spec, c, d)
    for t in np.flatnonzero(soc < -tol):
        problems.append(f"state of charge before period {t} is {soc[t]:.9g}, below 0")
    for t in np.flatnonzero(soc > spec.energy_cap_kwh + tol):
        problems.append(
            f"state of charge before period {t} is {soc[t]:.9g}, "
            f"above the energy cap {spec.energy_cap_kwh:.9g}")
    if spec.cyclic and abs(soc[-1] - soc[0]) > _CYCLIC_TOL:
        problems.append(
            f"final state of charge {soc[-1]:.9g} differs from initial {soc[0]:.9g}")
    return problems
