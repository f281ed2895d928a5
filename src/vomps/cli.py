"""Command-line front end: truncation, Trotter evolution, the Ising
transfer-matrix boundary fixed point, and fidelity comparison.

`truncate` cuts the input once to its largest Schmidt values; that cut is
the baseline it reports and, with ``--init schmidt`` (the default), the
start of the variational loop.  ``--chi`` is an upper bound: a bond
already at or below it is not cut, so ``--chi`` above the input's bonds
keeps them; ``--init random`` draws its start at the smaller of ``--chi``
and the input's largest bond.  `truncate` solves each pair of states
once.  First comes the baseline's residual and fidelity, one 1e-13
update of the baseline towards the input; under ``--init schmidt`` the
loop starts from that update, its first solve from that update's bond-0
vectors (``--init random`` starts cold).  Last comes the result's 1e-13
fidelity, started from the left vector of the loop's last solve, of the
neighbouring pair (last trial, input): the closing regauge keeps AL, so
it still fits (cold when a collapsed loop left none).  `truncate`,
`evolve` and `fixedpoint` write a CSV trace (``trace.csv``,
``evolution.csv``, ``power.csv``; formats in :mod:`vomps.io`) headed by
every argument of the run, their states as UMPS-JSON and a
``summary.json``.  `truncate`'s summary carries the flags of its
:class:`~vomps.truncation.TruncationReport`: ``orthogonal`` (the fidelity
collapsed), ``degenerate`` (a degenerate transfer spectrum) and
``singular_completion`` (a rank-deficient bond matrix), and
``unconverged_solves``, the count of its iterations whose environment
solves missed their tolerance, which its ``trace.csv`` marks in the
``solves_converged`` column.  `evolve` checks its arguments and creates
``--out-dir`` before it evolves.  `fixedpoint` solves the boundary fixed
point of the ferromagnet's one-site cell A in its mirror-symmetric gauge,
one environment eigensolve an iteration
(:func:`~vomps.truncation.power_method`), to the residual ``--eta``, real,
from all spins up plus real noise of scale 1e-2 that `--seed` draws.
``--coupling afm`` runs the same solve, since the antiferromagnet is the
flipped ferromagnet (see :mod:`vomps.models`), and stores the canonical
two-site cell ``[A, A[:, ::-1, :]]``.  Its summary holds the free energy
and magnetization against Onsager's, ``period`` 1 and
``unconverged_solves``, the count of iterations whose environment or
center eigensolves missed their tolerance; ``power.csv`` has the solve's
:class:`~vomps.truncation.IterationRecord` rows.  One power step, the
paper's truncation of the MPO applied to the result, started from it,
certifies the fixed point: it returns the state there, and the summary
holds its ``power_step_infidelity`` and ``power_step_converged``.
`fidelity` prints the per-site fidelity of two stored states.

Exit codes: 0 success, 1 usage or I/O failure, 2 non-convergence (for
`fixedpoint` also of an eigensolve or of the power step); outputs are
still written.  Set UMPS_THREADS to cap the BLAS thread pools (the
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
    trotter_steps,
)
from .truncation import (
    IterationRecord,
    VompsConfig,
    _regauge,
    epsilon_measure,
    power_method,
    vomps_truncate,
)
from .umps import (
    UniformMPS,
    _fidelity_from,
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
            # drawn at the bond kept: a larger draw is only cut back down
            cfg = replace(cfg, init=random_uniform_mps(
                min(args.chi, max(state.bond_dims)), state.phys_dims,
                state.unit_cell, seed=args.seed))
        os.makedirs(args.out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:
        return _input_error(exc)
    baseline, discarded = schmidt_truncate(state, args.chi)
    eps_b, fid_b, baseline_guess, baseline_update = epsilon_measure(
        baseline, state)
    guess = None
    if args.init == "schmidt":
        cfg, guess = replace(cfg, init=baseline_update), baseline_guess
    result, report = vomps_truncate(state, cfg, guess=guess)
    result = result if report.regauged else _regauge(result)
    # the regauge keeps AL, so the last solve's left vector still fits
    fid_v = _fidelity_from(result, state, None if report.env_guess is None
                           else report.env_guess[0])

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
        # the arguments trotter_evolve and its truncations would reject
        trotter_steps(args.dt, args.t_max)
        VompsConfig(target_chi=args.chi, eta=args.eta)
        os.makedirs(args.out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:
        return _input_error(exc)
    state, records = trotter_evolve(delta=args.delta, dt=args.dt,
                                    t_max=args.t_max, chi_max=args.chi,
                                    eta=args.eta, seed=args.seed)
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
    """The fixed-point solve's start at bond `chi` (see the module
    docstring)."""
    a = 1e-2 * np.random.default_rng(seed).standard_normal((chi, 2, chi))
    a[0, 0, 0] += 1.0
    return mixed_canonical([a])


def cmd_fixedpoint(args) -> int:
    beta = args.beta_rel * BETA_C
    try:
        mpo = ising_mpo(beta)
        cfg = VompsConfig(target_chi=args.chi, eta=args.eta,
                          max_iter=args.max_iter, seed=args.seed)
        os.makedirs(args.out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:
        return _input_error(exc)
    state, report = power_method(
        mpo, _ordered_initial_state(args.chi, args.seed), cfg)
    vio.write_trace(os.path.join(args.out_dir, "power.csv"), vio.POWER_FORMAT,
                    vars(args), IterationRecord, report.iterations)
    unconverged = sum(not r.solves_converged for r in report.iterations)
    step, step_report = vomps_truncate(state, replace(cfg, init=state),
                                       mpo=mpo)
    step_infidelity = 1.0 - fidelity_per_site(step, state)
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
        "period": 1,  # the fixed point of a one-site cell
        "unconverged_solves": unconverged,
        "power_step_infidelity": step_infidelity,
        "power_step_converged": step_report.converged,
        "free_energy": f,
        "free_energy_onsager": f_ref,
        "free_energy_error": abs(f - f_ref),
        "magnetization": m,
        "magnetization_onsager": m_ref,
        "magnetization_error": abs(abs(m) - m_ref),
    })
    print(f"fixedpoint {args.coupling}: {len(report.iterations)} iterations "
          f"|f - f_onsager|={abs(f - f_ref):.2e} "
          f"|m - m_onsager|={abs(abs(m) - m_ref):.2e}")
    converged = report.converged and step_report.converged
    return 0 if converged and not unconverged else 2


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
                       help="Ising transfer-matrix boundary fixed point")
    p.add_argument("--beta-rel", type=float, default=1.01,
                   help="inverse temperature in units of beta_c")
    p.add_argument("--coupling", choices=("fm", "afm"), default="fm")
    p.add_argument("--chi", type=int, default=16)
    p.add_argument("--eta", type=float, default=1e-9,
                   help="threshold of the fixed-point residual")
    p.add_argument("--max-iter", type=int, default=200)
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
