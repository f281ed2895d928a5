"""The benchmark's workloads: inputs, CLI commands and correctness checks.

Every workload runs through the public ``vomps.cli.main`` entry point.  The
benchmark seed is a workload's only varying input.  A workload with
``instances = K`` runs K independent inputs per pass, seeded
``K * seed + k``; averaging over them keeps the run-to-run spread of a
workload whose cost depends on its random start below the benchmark's
bounds.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

# Physics tolerances.  At chi = 8 and beta = 1.01 beta_c the finite-chi
# free energy error is ~3e-8 and the magnetization error ~7e-4 (the order
# parameter converges slowly this close to criticality); the chi = 12
# Trotter run differs from the 12-site exact evolution by 2.5e-5 up to
# t = 1, dominated by the dt = 0.05 Trotter error.  Each bound leaves more
# than an order of magnitude, so only a run that converges to a wrong
# state fails.
F_ERROR_TOL = 1e-6
M_ERROR_TOL = 1e-2
ED_DEVIATION_TOL = 1e-3

# VOMPS_BENCH_TOY=1 shrinks every workload to toy sizes for selftest.py;
# the checks stay the same.
if os.environ.get("VOMPS_BENCH_TOY") == "1":
    FIXEDPOINT_ARGS = ["fixedpoint", "--chi", "4", "--beta-rel", "1.2"]
    EVOLVE_CHI, EVOLVE_STEPS = 4, 4
    EVOLVE_ARGS = ["evolve", "--chi", str(EVOLVE_CHI), "--t-max", "0.2",
                   "--oracle", "ed:8"]
    SWEEP_INPUT_ARGS = FIXEDPOINT_ARGS
    SWEEP_CHIS = (2,)
else:
    FIXEDPOINT_ARGS = ["fixedpoint", "--chi", "8"]
    # chi 12, not 16: at chi 16 about one seed in eight raises
    # CanonicalizationError in vomps_truncate's final regauge (residual
    # ~5e-14 against its fixed 1e-14 tolerance)
    EVOLVE_CHI, EVOLVE_STEPS = 12, 20
    EVOLVE_ARGS = ["evolve", "--chi", str(EVOLVE_CHI), "--t-max", "1.0",
                   "--oracle", "ed:12"]
    # the sweep's input is the chi = 8 fixed point a little further from
    # criticality, which converges in a third of the power steps
    SWEEP_INPUT_ARGS = ["fixedpoint", "--chi", "8", "--beta-rel", "1.05"]
    SWEEP_CHIS = (6, 4, 3)

FIXEDPOINT_KEYS = {"beta", "converged", "coupling", "free_energy",
                   "free_energy_error", "free_energy_onsager", "iterations",
                   "magnetization", "magnetization_error",
                   "magnetization_onsager", "period"}
EVOLVE_KEYS = {"final_chi", "final_offset", "max_ed_deviation",
               "max_epsilon", "steps"}
TRUNCATE_KEYS = {"abs_lambda", "baseline_discarded_weight",
                 "baseline_epsilon", "converged", "final_epsilon",
                 "fidelity_baseline", "fidelity_vomps", "iterations"}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its label, argv, and the summary keys it writes."""

    label: str
    argv: list
    out_dir: str
    keys: set


@dataclass(frozen=True)
class Workload:
    """`commands(seed, inputs, out)` lists one instance's CLI calls;
    `accuracy(summaries)` turns their summaries into ``(metrics,
    failures)``; `setup(seed, inputs)`, when given, writes the instance's
    input files before anything is timed."""

    name: str
    why: str
    commands: Callable[[int, str, str], list]
    accuracy: Callable[[list], tuple]
    setup: Callable[[int, str], None] | None = None
    instances: int = 1


def _fixedpoint_commands(seed, inputs, out):
    return [Command("fixedpoint",
                    FIXEDPOINT_ARGS + ["--seed", str(seed), "--out-dir", out],
                    out, FIXEDPOINT_KEYS)]


def _fixedpoint_accuracy(summaries):
    failures = []
    for s in summaries:
        if s["converged"] is not True:
            failures.append("power method not converged")
        if s["period"] != 1:
            failures.append(f"period {s['period']} != 1")
        if not s["free_energy_error"] <= F_ERROR_TOL:
            failures.append(
                f"f_error {s['free_energy_error']:.3e} > {F_ERROR_TOL}")
        if not s["magnetization_error"] <= M_ERROR_TOL:
            failures.append(
                f"m_error {s['magnetization_error']:.3e} > {M_ERROR_TOL}")
    metrics = {"f_error": max(s["free_energy_error"] for s in summaries),
               "m_error": max(s["magnetization_error"] for s in summaries)}
    return metrics, failures


def _evolve_commands(seed, inputs, out):
    return [Command("evolve",
                    EVOLVE_ARGS + ["--seed", str(seed), "--out-dir", out],
                    out, EVOLVE_KEYS)]


def _evolve_accuracy(summaries):
    failures = []
    for s in summaries:
        if s["steps"] != EVOLVE_STEPS or s["final_chi"] != EVOLVE_CHI:
            failures.append(f"ran {s['steps']} steps to chi {s['final_chi']},"
                            f" expected {EVOLVE_STEPS} steps to chi "
                            f"{EVOLVE_CHI}")
        if not s["max_ed_deviation"] <= ED_DEVIATION_TOL:
            failures.append(f"ed_deviation {s['max_ed_deviation']:.3e} > "
                            f"{ED_DEVIATION_TOL}")
    metrics = {"ed_deviation": max(s["max_ed_deviation"] for s in summaries)}
    return metrics, failures


def _sweep_input(inputs):
    return os.path.join(inputs, "fixedpoint", "state.json")


def _sweep_setup(seed, inputs):
    from vomps.cli import main

    argv = SWEEP_INPUT_ARGS + ["--seed", str(seed), "--out-dir",
                               os.path.dirname(_sweep_input(inputs))]
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"vomps {' '.join(argv)} exited with {code}")


def _sweep_commands(seed, inputs, out):
    return [Command(f"truncate_chi{chi}",
                    ["truncate", "--in", _sweep_input(inputs),
                     "--chi", str(chi), "--seed", str(seed),
                     "--out-dir", os.path.join(out, f"chi{chi}")],
                    os.path.join(out, f"chi{chi}"), TRUNCATE_KEYS)
            for chi in SWEEP_CHIS]


def _sweep_accuracy(summaries):
    failures = []
    for s in summaries:
        f_v, f_s = s["fidelity_vomps"], s["fidelity_baseline"]
        if s["converged"] is not True:
            failures.append("truncation not converged")
        if not 0.0 < f_v <= 1.0 + 1e-12:
            failures.append(f"fidelity {f_v!r} outside (0, 1]")
        if not f_v - f_s >= 0.0:
            failures.append(f"vomps fidelity {f_v!r} below schmidt "
                            f"fidelity {f_s!r}")
    metrics = {
        "infidelity": max(1.0 - s["fidelity_vomps"] for s in summaries),
        "vomps_margin": min(s["fidelity_vomps"] - s["fidelity_baseline"]
                            for s in summaries)}
    return metrics, failures


WORKLOADS = {w.name: w for w in (
    Workload(
        "ising_fixedpoint",
        "Ising power method at chi 8, three starts per run: many cold-started "
        "small-chi MPO eigensolves; leading_eig overhead and per-step "
        "diagnostics dominate.",
        _fixedpoint_commands, _fixedpoint_accuracy, instances=3),
    Workload(
        "xxz_evolve",
        "XXZ Trotter evolution at chi 12 against ED: many short two-site-cell "
        "MPO truncations, so per-call fixed cost dominates.",
        _evolve_commands, _evolve_accuracy),
    Workload(
        "truncate_sweep",
        "Plain-state truncation of a chi 8 Ising fixed point to chi 6/4/3, "
        "VOMPS vs Schmidt: JSON I/O and canonicalization, no MPO or warm "
        "starts.",
        _sweep_commands, _sweep_accuracy, setup=_sweep_setup),
)}


def read_summaries(commands):
    """Summaries of `commands` that parse and hold their expected keys,
    plus one failure message for each that does not."""
    summaries, failures = [], []
    for cmd in commands:
        path = os.path.join(cmd.out_dir, "summary.json")
        try:
            with open(path) as fh:
                summary = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            failures.append(f"{cmd.label}: no readable summary ({exc})")
            continue
        missing = cmd.keys - set(summary)
        if missing:
            failures.append(f"{cmd.label}: summary lacks {sorted(missing)}")
            continue
        summaries.append(summary)
    return summaries, failures
