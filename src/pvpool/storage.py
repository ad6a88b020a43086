"""Battery model: the battery spec, its state-of-charge rows, the battery
rule and feasibility checks.

One linear storage model backs everything.  `StorageSpec` is the battery
that sizing plans and `run_year` operates: power and energy caps, one
one-way efficiency eta and a half-full start.  The sizing dispatch LP and
the control QP write its recursion SoC_t = SoC_{t-1} + eta c_t - d_t / eta
with `recursion_rows`, one equality row per period, so their rows grow
linearly in the horizon; `soc_trajectory` and `check_feasible` follow the
same recursion.  Every planned dispatch meets the battery in one place,
`realize`: the sizing plan of each scenario, the MPC's head and the greedy
rule's plan alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import DomainError, is_nonnegative, is_positive, rule_problems

START_FRACTION = 0.5  # the battery starts, and a cyclic plan ends, half full
_CYCLIC_TOL = 1e-8


@dataclass(frozen=True)
class StorageSpec:
    """Physical battery envelope plus simulation conventions.

    power_cap_kw limits charge and discharge each period, energy_cap_kwh the
    stored energy.  efficiency is the one-way efficiency of charge and of
    discharge alike.  The battery starts half full.  cyclic=True asks
    `check_feasible` to require the final state of charge to return to the
    start, as the sizing dispatch LP's end row does; only `check_feasible`
    reads it, and `run_year` operates a battery with cyclic=False, whose
    year may end at another charge.
    """

    power_cap_kw: float
    energy_cap_kwh: float
    efficiency: float
    cyclic: bool = True

    def __post_init__(self):
        errors = rule_problems(self, (
            ("power_cap_kw", is_nonnegative, "a nonnegative finite number"),
            ("energy_cap_kwh", is_nonnegative, "a nonnegative finite number"),
            ("efficiency", lambda v: is_positive(v) and v <= 1,
             "a number in (0, 1]"),
            ("cyclic", lambda v: isinstance(v, bool), "a bool")))
        if errors:
            raise DomainError(errors)
        for name in ("power_cap_kw", "energy_cap_kwh", "efficiency"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @classmethod
    def from_sizing(cls, decision, params, **kwargs):
        """Battery implied by a sizing decision and its round-trip efficiency."""
        return cls(decision.es_power_kw, decision.es_energy_kwh,
                   math.sqrt(params.es_roundtrip_efficiency), **kwargs)

    @property
    def initial_soc_kwh(self):
        return START_FRACTION * self.energy_cap_kwh


def recursion_rows(pb, eta, c, d, soc, before=None):
    """Write the state-of-charge rows of one block of periods into `pb`.

    c, d and soc index the block's charge, discharge and state-of-charge
    variables, soc_t being the state after period t, and eta is the
    battery's one-way efficiency.  Each row is
    soc_t - soc_{t-1} - eta c_t + d_t / eta = 0.  The first period starts
    from a constant that the caller writes on its right-hand side, 0 here,
    or, when `before` names a variable, from that variable (a scenario tail
    branching off the head).
    """
    chain = [1.0, -1.0, -eta, 1.0 / eta]
    if before is None:
        pb.add_row([soc[0], c[0], d[0]], [1.0, -eta, 1.0 / eta], 0.0)
    else:
        pb.add_row([soc[0], before, c[0], d[0]], chain, 0.0)
    pb.add_rows(np.column_stack([soc[1:], soc[:-1], c[1:], d[1:]]), chain,
                0.0)


def soc_trajectory(spec, charge, discharge):
    """State of charge before each period plus the final state, length T+1."""
    c = np.asarray(charge, dtype=np.float64)
    d = np.asarray(discharge, dtype=np.float64)
    if c.shape != d.shape or c.ndim != 1:
        raise DomainError("charge and discharge must be vectors of equal length")
    steps = spec.efficiency * c - d / spec.efficiency
    soc = np.empty(c.shape[0] + 1)
    soc[0] = spec.initial_soc_kwh
    np.cumsum(steps, out=soc[1:])
    soc[1:] += soc[0]
    return soc


def realize(c_plan, d_plan, gen_real, soc, spec, delta):
    """Clip one period's planned dispatch to what the realized solar and
    SoC allow.

    Charge is capped at the realized generation, not at its surplus over
    the metered load, and discharge, which may draw on the same period's
    charge but never below empty, is not capped at the metered deficit.
    Returns the realized charge and discharge and the SoC after the period.
    """
    cap = spec.power_cap_kw * delta
    eta = spec.efficiency
    c = max(min(c_plan, gen_real, cap,
                max(spec.energy_cap_kwh - soc, 0.0) / eta), 0.0)
    d = max(min(d_plan, cap, (soc + eta * c) * eta), 0.0)
    soc = soc + eta * c - d / eta
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
