"""Command-line front end: truncation, Trotter evolution, the Ising
transfer-matrix power method, and fidelity comparison.

`truncate` cuts the input once to its largest Schmidt values; that cut is
the baseline it reports and, with ``--init schmidt`` (the default), the
start of the variational loop.  ``--chi`` is an upper bound: a bond
already at or below it is not cut, so ``--chi`` above the input's bonds
keeps them.  `truncate`, `evolve` and `fixedpoint`
write a CSV trace (``trace.csv``, ``evolution.csv``, ``power.csv``;
formats in :mod:`vomps.io`) headed by every argument of the run, their
states as UMPS-JSON and a ``summary.json``.  `truncate`'s summary carries
the flags of its :class:`~vomps.truncation.TruncationReport`:
``orthogonal`` (the fidelity collapsed), ``degenerate`` (a degenerate
transfer spectrum) and ``singular_completion`` (a rank-deficient bond
matrix), and ``unconverged_solves``, the count of its iterations whose
environment solves missed their tolerance, which its ``trace.csv``
marks in the ``solves_converged`` column.  `fixedpoint` runs the power loop
of the ferromagnet's one-site cell A, in real arithmetic from all spins up
plus real noise of scale 1e-2 that `--seed` draws.  The antiferromagnet is
the flipped ferromagnet (see :mod:`vomps.models`), so ``--coupling afm``
runs the same loop, with the same results and ``period``, and stores the
canonical two-site cell ``[A, A[:, ::-1, :]]``.  It reports its free
energy and magnetization against Onsager's (``free_energy_error``,
``magnetization_error``) and the count of its steps whose truncation
ended unconverged (``unconverged_truncations``, which leaves the exit
code alone).  Its ``power.csv`` has one row per power step, the fields of
:class:`~vomps.truncation.PowerRecord`: the step's ``infidelity`` with
the previous state (exactly solved only on the steps whose estimate
``step**2 / 2`` falls below ``--tol``, else that estimate), the ``step``
residual of its truncation's first update, and that truncation's
``abs_lambda``, residual ``epsilon``, ``wall_ms`` and ``matvecs``.
`fidelity` prints the per-site fidelity of two stored states.

Exit codes: 0 success, 1 usage or I/O failure, 2 non-convergence (outputs
are still written).  Set UMPS_THREADS to cap the BLAS thread pools (the
package applies it before numpy is imported).
"""

import argparse
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from . import io as vio
from .baseline import schmidt_truncate
from .models import (
    BETA_C,
    EvolutionRecord,
    check_ed_chain,
    ed_evolve,
    ising_free_energy,
    ising_magnetization,
    ising_mpo,
    onsager_free_energy,
    onsager_magnetization,
    trotter_evolve,
)
from .truncation import (
    IterationRecord,
    PowerRecord,
    PowerStop,
    VompsConfig,
    _regauge,
    epsilon_measure,
    power_method,
    vomps_truncate,
)
from .umps import (
    UniformMPS,
    fidelity_per_site,
    mixed_canonical,
    random_uniform_mps,
)


def _input_error(exc) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 1


def cmd_truncate(args) -> int:
    try:
        state = vio.load_state(args.infile)
        cfg = VompsConfig(target_chi=args.chi, eta=args.eta,
                          max_iter=args.max_iter, seed=args.seed)
        if args.init == "random":
            cfg = replace(cfg, init=random_uniform_mps(
                args.chi, state.phys_dims, state.unit_cell, seed=args.seed))
    except (OSError, ValueError) as exc:
        return _input_error(exc)
    os.makedirs(args.out_dir, exist_ok=True)
    baseline, discarded = schmidt_truncate(state, args.chi)
    if args.init == "schmidt":
        cfg = replace(cfg, init=baseline)
    result, report = vomps_truncate(state, cfg)
    result = _regauge(result)

    fid_v = fidelity_per_site(result, state)
    eps_b, fid_b = epsilon_measure(baseline, state)

    vio.write_trace(os.path.join(args.out_dir, "trace.csv"), vio.TRACE_FORMAT,
                    vars(args), IterationRecord, report.iterations)
    vio.save_state(result, os.path.join(args.out_dir, "vomps_state.json"))
    vio.save_state(baseline, os.path.join(args.out_dir, "baseline_state.json"))
    vio.write_summary(os.path.join(args.out_dir, "summary.json"), {
        "converged": report.converged,
        "iterations": len(report.iterations),
        "final_epsilon": report.final_epsilon,
        "fidelity_vomps": fid_v,
        "fidelity_baseline": fid_b,
        "baseline_epsilon": eps_b,
        "baseline_discarded_weight": discarded,
        "abs_lambda": abs(report.final_lambda),
        "orthogonal": report.orthogonal,
        "degenerate": report.degenerate,
        "singular_completion": report.singular_completion,
        "unconverged_solves": sum(not r.solves_converged
                                  for r in report.iterations),
    })
    print(f"truncate: chi {max(state.bond_dims)} -> {max(result.bond_dims)}"
          f"; fidelity vomps={fid_v:.12f} baseline={fid_b:.12f}; "
          f"epsilon vomps={report.final_epsilon:.3e} baseline={eps_b:.3e}")
    return 0 if report.converged else 2


def _ed_sites(oracle: str) -> int:
    """Chain length of an ``ed:L`` oracle; ValueError for anything else."""
    kind, _, sites = oracle.partition(":")
    if kind != "ed" or not sites.isdigit():
        raise ValueError(f"unknown oracle {oracle!r}, expected 'ed:L'")
    check_ed_chain(int(sites))
    return int(sites)


def cmd_evolve(args) -> int:
    try:
        sites = _ed_sites(args.oracle) if args.oracle else None
        # trotter_evolve rejects bad arguments before it truncates
        state, records = trotter_evolve(delta=args.delta, dt=args.dt,
                                        t_max=args.t_max, chi_max=args.chi,
                                        eta=args.eta, seed=args.seed)
    except ValueError as exc:
        return _input_error(exc)
    os.makedirs(args.out_dir, exist_ok=True)
    reference = (None if sites is None else
                 ed_evolve(sites, args.delta, [r.time for r in records]))
    vio.write_trace(os.path.join(args.out_dir, "evolution.csv"),
                    vio.EVOLUTION_FORMAT, vars(args), EvolutionRecord, records,
                    ed_reference=reference)
    vio.save_state(state, os.path.join(args.out_dir, "final_state.json"))
    payload = {
        "steps": len(records) - 1,
        "final_offset": records[-1].offset,
        "final_chi": max(state.bond_dims),
        "max_epsilon": max(r.epsilon for r in records),
        "unconverged_steps": sum(not r.converged for r in records),
    }
    if reference is not None:
        payload["max_ed_deviation"] = float(np.max(np.abs(
            np.array([r.offset for r in records]) - reference)))
    vio.write_summary(os.path.join(args.out_dir, "summary.json"), payload)
    print(f"evolve: {len(records) - 1} steps to t={args.t_max}, "
          f"final offset {records[-1].offset:.6f}"
          + (f", max ED deviation {payload['max_ed_deviation']:.2e}"
             if reference is not None else ""))
    # a converged truncation stops below eta, so this also bounds epsilon
    return 0 if payload["unconverged_steps"] == 0 else 2


def _ordered_initial_state(chi, seed):
    """The power method's start at bond `chi` (see the module docstring)."""
    a = 1e-2 * np.random.default_rng(seed).standard_normal((chi, 2, chi))
    a[0, 0, 0] += 1.0
    return mixed_canonical([a])


def cmd_fixedpoint(args) -> int:
    beta = args.beta_rel * BETA_C
    try:
        mpo = ising_mpo(beta)
        cfg = VompsConfig(target_chi=args.chi, eta=args.eta,
                          max_iter=args.max_iter, seed=args.seed)
        stop = PowerStop(tol=args.tol, max_iter=args.power_iter)
    except ValueError as exc:
        return _input_error(exc)
    os.makedirs(args.out_dir, exist_ok=True)
    state, report = power_method(
        mpo, _ordered_initial_state(args.chi, args.seed), cfg, stop)
    vio.write_trace(os.path.join(args.out_dir, "power.csv"), vio.POWER_FORMAT,
                    vars(args), PowerRecord, report.iterations)
    m = ising_magnetization(state, beta)
    if args.coupling == "afm":
        # every other spin flipped: F_odd maps the ferromagnet's fixed
        # point onto one of the antiferromagnet's
        al, ar = state.al[0], state.ar[0]
        state = UniformMPS(al=[al, al[:, ::-1, :]], ar=[ar, ar[:, ::-1, :]],
                           c=state.c * 2)
    vio.save_state(state, os.path.join(args.out_dir, "state.json"))

    f = ising_free_energy(abs(report.final_lambda), beta)
    f_ref = onsager_free_energy(beta)
    m_ref = onsager_magnetization(beta)
    vio.write_summary(os.path.join(args.out_dir, "summary.json"), {
        "beta": beta,
        "coupling": args.coupling,
        "converged": report.converged,
        "iterations": len(report.iterations),
        "period": report.period,
        "unconverged_truncations": report.unconverged_truncations,
        "free_energy": f,
        "free_energy_onsager": f_ref,
        "free_energy_error": abs(f - f_ref),
        "magnetization": m,
        "magnetization_onsager": m_ref,
        "magnetization_error": abs(abs(m) - m_ref),
    })
    print(f"fixedpoint {args.coupling}: period={report.period} "
          f"|f - f_onsager|={abs(f - f_ref):.2e} "
          f"|m - m_onsager|={abs(abs(m) - m_ref):.2e}")
    return 0 if report.converged else 2


def cmd_fidelity(args) -> int:
    try:
        fidelity = fidelity_per_site(vio.load_state(args.state_a),
                                     vio.load_state(args.state_b))
    except (OSError, ValueError) as exc:
        return _input_error(exc)
    print(f"{fidelity:.15f}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vomps",
        description="Variational truncation of uniform MPS and the "
                    "experiments built on it.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("truncate", help="truncate a stored state")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--eta", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--init", choices=("random", "schmidt"), default="schmidt",
                   help="start from the Schmidt baseline itself, or from a "
                        "random state drawn with --seed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_truncate)

    p = sub.add_parser("evolve", help="XXZ quench from the Neel state")
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--chi", type=int, default=64)
    p.add_argument("--eta", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle", default=None,
                   help="'ed:L' adds an exact-diagonalization column")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("fixedpoint",
                       help="Ising transfer-matrix power method")
    p.add_argument("--beta-rel", type=float, default=1.01,
                   help="inverse temperature in units of beta_c")
    p.add_argument("--coupling", choices=("fm", "afm"), default="fm")
    p.add_argument("--chi", type=int, default=16)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--eta", type=float, default=1e-9,
                   help="truncation threshold of the first power step and "
                        "floor of the later steps' thresholds")
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--power-iter", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_fixedpoint)

    p = sub.add_parser("fidelity", help="per-site fidelity of two states")
    p.add_argument("state_a")
    p.add_argument("state_b")
    p.set_defaults(func=cmd_fidelity)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    # the rest of `args` is the run's provenance, its trace's header
    handler = vars(args).pop("func")
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
