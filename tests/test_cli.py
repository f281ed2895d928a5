import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest

import vomps.cli
import vomps.umps
from vomps.io import load_state, save_state
from vomps.models import EvolutionRecord, neel_state
from vomps.umps import random_uniform_mps

from oracles import correlated_random_state, dense_fidelity

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _fake_evolution(converged):
    def trotter_evolve(**kwargs):
        records = [EvolutionRecord(time=0.0, offset=0.0, epsilon=0.0,
                                   infidelity=0.0, chi=1, converged=True),
                   EvolutionRecord(time=0.05, offset=0.0, epsilon=1e-14,
                                   infidelity=0.0, chi=1,
                                   converged=converged)]
        return neel_state(), records
    return trotter_evolve


@pytest.mark.parametrize("converged, code", [(True, 0), (False, 2)])
def test_evolve_exit_code_reports_unconverged_steps(monkeypatch, tmp_path,
                                                    converged, code):
    monkeypatch.setattr(vomps.cli, "trotter_evolve",
                        _fake_evolution(converged))
    out = tmp_path / "out"
    assert vomps.cli.main(["evolve", "--t-max", "0.05",
                           "--out-dir", str(out)]) == code
    summary = json.loads((out / "summary.json").read_text())
    assert summary["unconverged_steps"] == (0 if converged else 1)
    assert summary["max_epsilon"] == 1e-14


def test_umps_threads_set_before_numpy_import():
    # a meta-path hook records the BLAS variable at numpy's first import
    probe = (
        "import os, sys\n"
        "class Hook:\n"
        "    seen = 'numpy not imported'\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy':\n"
        "            Hook.seen = os.environ.get('OPENBLAS_NUM_THREADS')\n"
        "sys.meta_path.insert(0, Hook())\n"
        "import vomps.cli\n"
        "print(Hook.seen)\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    env["UMPS_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "1"


def test_cli_runs_without_scipy(tmp_path):
    # a fresh interpreter: the power method, truncation, fidelity and the
    # exact-diagonalization oracle import no scipy module
    probe = textwrap.dedent("""
        import sys
        from vomps.cli import main
        out = sys.argv[1]
        state = out + "/fp/state.json"
        assert main(["fixedpoint", "--chi", "4", "--beta-rel", "1.2",
                     "--out-dir", out + "/fp"]) == 0
        assert main(["truncate", "--in", state, "--chi", "2",
                     "--out-dir", out + "/tr"]) == 0
        assert main(["fidelity", state, out + "/tr/vomps_state.json"]) == 0
        assert main(["evolve", "--chi", "4", "--t-max", "0.1",
                     "--oracle", "ed:6", "--out-dir", out + "/ev"]) == 0
        print("scipy modules:", sorted(
            m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
        """)
    env = dict(os.environ, UMPS_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", probe, str(tmp_path)],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "scipy modules: []" in result.stdout.splitlines()


def test_parser_is_built_once_per_process():
    # a caller may run `main` many times in one process
    assert vomps.cli.build_parser() is vomps.cli.build_parser()


def test_evolution_trace_has_its_own_format(tmp_path):
    out = tmp_path / "out"
    assert vomps.cli.main(["evolve", "--chi", "4", "--t-max", "0.1",
                           "--oracle", "ed:6", "--out-dir", str(out)]) == 0
    lines = (out / "evolution.csv").read_text().splitlines()
    assert lines[0] == "# format: vomps-evolution/4"
    assert "# seed: 0" in lines
    header = next(line for line in lines if not line.startswith("#"))
    assert header == ("time,offset,epsilon,infidelity,chi,converged,"
                      "ed_reference")
    assert len(lines) - lines.index(header) - 1 == 3


@pytest.mark.parametrize("argv, trace", [
    (["truncate", "--in", "STATE", "--chi", "3", "--eta", "1e-09",
      "--max-iter", "50", "--init", "random", "--seed", "1"], "trace.csv"),
    (["evolve", "--delta", "0.4", "--dt", "0.05", "--t-max", "0.1",
      "--chi", "4", "--eta", "1e-09", "--seed", "1", "--oracle", "ed:6"],
     "evolution.csv"),
    (["fixedpoint", "--beta-rel", "1.2", "--coupling", "afm", "--chi", "4",
      "--tol", "1e-09", "--eta", "1e-08", "--max-iter", "50",
      "--power-iter", "300", "--seed", "1"], "power.csv"),
], ids=["truncate", "evolve", "fixedpoint"])
def test_trace_header_names_every_argument(tmp_path, state_file, argv,
                                           trace):
    # every argument that can change a run is its trace's provenance; the
    # floats above are spelled as Python prints them
    argv = [str(state_file) if a == "STATE" else a for a in argv]
    argv += ["--out-dir", str(tmp_path / "out")]
    assert vomps.cli.main(argv) == 0
    lines = (tmp_path / "out" / trace).read_text().splitlines()
    header = {line[2:] for line in lines[1:] if line.startswith("# ")}
    given = {arg[2:].replace("-", "_"): value
             for arg, value in zip(argv, argv[1:]) if arg.startswith("--")}
    given["infile"] = given.pop("in", None)
    assert {f"{key}: {value}" for key, value in given.items()
            if value is not None} <= header
    assert f"command: {argv[0]}" in header


TRUNCATE_KEYS = {"abs_lambda", "baseline_discarded_weight",
                 "baseline_epsilon", "converged", "degenerate",
                 "final_epsilon", "fidelity_baseline", "fidelity_vomps",
                 "iterations", "orthogonal", "singular_completion",
                 "unconverged_solves"}
REPORT_FLAGS = ("orthogonal", "degenerate", "singular_completion")


@pytest.fixture
def state_file(tmp_path):
    path = tmp_path / "state.json"
    save_state(correlated_random_state(6, seed=3), str(path))
    return path


@pytest.mark.parametrize("max_iter, code, converged", [
    ("500", 0, True), ("1", 2, False)])
def test_truncate_exit_code_and_summary(tmp_path, state_file, max_iter, code,
                                        converged):
    out = tmp_path / "out"
    assert vomps.cli.main(["truncate", "--in", str(state_file), "--chi", "3",
                           "--max-iter", max_iter,
                           "--out-dir", str(out)]) == code
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == TRUNCATE_KEYS
    assert summary["converged"] is converged
    assert 1 <= summary["iterations"] <= int(max_iter)
    assert (out / "trace.csv").read_text().startswith(
        "# format: vomps-trace/6\n")


@pytest.mark.parametrize("raised", [()] + [(flag,) for flag in REPORT_FLAGS])
def test_truncate_summary_has_its_report_flags(monkeypatch, tmp_path,
                                               state_file, raised):
    # the summary is the only record of a collapse, a degenerate transfer
    # spectrum or a rank-deficient bond matrix: each key is the flag of
    # the truncation's own report, here with one flag at a time raised
    solve, reports = vomps.cli.vomps_truncate, []

    def truncate(*args, **kwargs):
        result, report = solve(*args, **kwargs)
        reports.append(replace(report, **{flag: True for flag in raised}))
        return result, reports[-1]

    monkeypatch.setattr(vomps.cli, "vomps_truncate", truncate)
    out = tmp_path / "out"
    assert vomps.cli.main(["truncate", "--in", str(state_file), "--chi", "3",
                           "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    [report] = reports
    assert {flag: summary[flag] for flag in REPORT_FLAGS} == {
        flag: getattr(report, flag) for flag in REPORT_FLAGS}
    assert summary["unconverged_solves"] == 0


def test_truncate_is_unconverged_over_unconverged_solves(
        monkeypatch, tmp_path, state_file):
    # every eigensolve returns its pair but reports it unconverged: the
    # loop may not stop as converged on such environments
    solve = vomps.umps.leading_eig
    monkeypatch.setattr(vomps.umps, "leading_eig", lambda *args, **kwargs:
                        replace(solve(*args, **kwargs), converged=False))
    out = tmp_path / "out"
    assert vomps.cli.main(["truncate", "--in", str(state_file), "--chi", "3",
                           "--max-iter", "20", "--out-dir", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["iterations"] == 20
    assert summary["unconverged_solves"] == 20
    lines = (out / "trace.csv").read_text().splitlines()
    header = next(line for line in lines if not line.startswith("#"))
    column = header.split(",").index("solves_converged")
    rows = lines[lines.index(header) + 1:]
    assert [row.split(",")[column] for row in rows] == ["False"] * 20


@pytest.mark.parametrize("content", [None, '{"format": "umps-json/0"}'])
def test_truncate_rejects_unreadable_input(tmp_path, capsys, content):
    path = tmp_path / "in.json"
    if content is not None:
        path.write_text(content)
    out = tmp_path / "out"
    assert vomps.cli.main(["truncate", "--in", str(path), "--chi", "2",
                           "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_fidelity_prints_the_value(state_file, capsys):
    assert vomps.cli.main(["fidelity", str(state_file), str(state_file)]) == 0
    assert abs(float(capsys.readouterr().out) - 1.0) < 1e-12


def test_fidelity_of_two_states_matches_the_dense_oracle(tmp_path, capsys):
    a, b = (correlated_random_state(4, seed=s) for s in (1, 2))
    paths = [str(tmp_path / f"{name}.json") for name in "ab"]
    save_state(a, paths[0])
    save_state(b, paths[1])
    assert vomps.cli.main(["fidelity"] + paths) == 0
    printed = float(capsys.readouterr().out)
    assert printed < 0.99
    assert abs(printed - dense_fidelity(a, b)) < 1e-10


@pytest.mark.parametrize("command", ["truncate", "fidelity"])
def test_commands_reject_a_state_that_is_not_canonical(tmp_path, state_file,
                                                       capsys, command):
    # AL scaled by 1.3: loaded unchecked, truncate exited 0 with
    # fidelities of 1.27 and fidelity of the file with itself printed 1.69
    doc = json.loads(state_file.read_text())
    doc["tensors"]["AL"][0] = (
        1.3 * np.array(doc["tensors"]["AL"][0])).tolist()
    state_file.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = (["truncate", "--in", str(state_file), "--chi", "3",
             "--out-dir", str(out)] if command == "truncate"
            else ["fidelity", str(state_file), str(state_file)])
    assert vomps.cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "canonical residual" in err
    assert not out.exists()


def test_fidelity_rejects_a_bad_file(tmp_path, state_file, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert vomps.cli.main(["fidelity", str(state_file), str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_fidelity_rejects_states_of_different_physical_dimension(
        tmp_path, state_file, capsys):
    other = tmp_path / "d3.json"
    save_state(correlated_random_state(4, d=3, seed=1), str(other))
    assert vomps.cli.main(["fidelity", str(state_file), str(other)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_truncate_random_start_on_mixed_physical_dims(tmp_path):
    # a two-site cell with physical dims 2 and 3: the random start draws
    # one tensor per site with that site's dimension
    state_file = tmp_path / "mixed.json"
    save_state(random_uniform_mps(4, [2, 3], unit_cell=2, seed=1),
               str(state_file))
    out = tmp_path / "out"
    assert vomps.cli.main(["truncate", "--in", str(state_file), "--chi", "2",
                           "--init", "random", "--seed", "3",
                           "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["fidelity_vomps"] >= summary["fidelity_baseline"]


def test_truncate_above_the_input_bond_keeps_it(tmp_path, capsys):
    # --chi is an upper bound: padded to chi 12 with zero Schmidt values,
    # this chi-4 state made the exact regauge raise CanonicalizationError
    path = tmp_path / "chi4.json"
    save_state(random_uniform_mps(4, 2, seed=0), str(path))
    out = tmp_path / "out"
    assert vomps.cli.main(["truncate", "--in", str(path), "--chi", "12",
                           "--out-dir", str(out)]) == 0
    assert "chi 4 -> 4;" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["fidelity_vomps"] >= 1 - 1e-12
    assert load_state(str(out / "vomps_state.json")).bond_dims == [4, 4]


def test_truncate_rejects_a_zero_bond(tmp_path, state_file, capsys):
    out = tmp_path / "out"
    assert vomps.cli.main(["truncate", "--in", str(state_file), "--chi", "0",
                           "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


SHORT_EVOLVE = ["evolve", "--chi", "4", "--t-max", "0.1"]


@pytest.mark.parametrize("argv", [
    SHORT_EVOLVE + ["--oracle", "ed:abc"],
    SHORT_EVOLVE + ["--oracle", "ed:7"],
    SHORT_EVOLVE + ["--oracle", "foo"],
    ["evolve", "--chi", "0"],
    ["evolve", "--dt", "0"],
    ["evolve", "--t-max", "-1"],
    ["evolve", "--chi", "4", "--t-max", "0.1", "--dt", "0.03"],
    ["fixedpoint", "--chi", "0"],
    ["fixedpoint", "--beta-rel", "0"],
    ["fixedpoint", "--chi", "4", "--beta-rel", "1.2", "--power-iter", "0"],
    ["fixedpoint", "--tol", "-1", "--power-iter", "3"],
], ids=["evolve-oracle-ed:abc", "evolve-oracle-ed:7", "evolve-oracle-foo",
        "evolve-chi-0", "evolve-dt-0", "evolve-t-max-negative",
        "evolve-t-max-not-whole-steps",
        "fixedpoint-chi-0", "fixedpoint-beta-rel-0",
        "fixedpoint-power-iter-0", "fixedpoint-tol-negative"])
def test_malformed_arguments_are_reported(monkeypatch, tmp_path, capsys,
                                          argv):
    evolve = vomps.cli.trotter_evolve
    evolved = []

    def recording(**kwargs):
        evolved.append(kwargs)
        return evolve(**kwargs)

    monkeypatch.setattr(vomps.cli, "trotter_evolve", recording)
    out = tmp_path / "out"
    assert vomps.cli.main(argv + ["--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    # an oracle the CLI cannot use is rejected before anything evolves
    assert not ("--oracle" in argv and evolved)


def test_antiferromagnetic_fixedpoint_checks_itself(tmp_path):
    # the antiferromagnet is the ferromagnet with every other spin flipped:
    # it runs the same loop and stores the fixed point as the flipped cell
    summaries = {}
    for coupling in ("fm", "afm"):
        out = tmp_path / coupling
        assert vomps.cli.main(["fixedpoint", "--coupling", coupling,
                               "--chi", "4", "--beta-rel", "1.2",
                               "--out-dir", str(out)]) == 0
        summaries[coupling] = json.loads((out / "summary.json").read_text())
    fm, summary = summaries["fm"], summaries["afm"]
    assert summary["converged"] is True
    assert summary["magnetization_error"] < 1e-5
    assert summary["free_energy_error"] < 1e-8
    assert summary["free_energy"] == fm["free_energy"]
    assert abs(summary["magnetization"]) == abs(fm["magnetization"])
    lines = (tmp_path / "afm" / "power.csv").read_text().splitlines()
    assert lines[0] == "# format: vomps-power/5"
    header = next(line for line in lines if not line.startswith("#"))
    assert header == ("iteration,infidelity,step,abs_lambda,epsilon,"
                      "wall_ms,matvecs")
    assert len(lines) - lines.index(header) - 1 == summary["iterations"]

    one, two = (load_state(str(tmp_path / c / "state.json"))
                for c in ("fm", "afm"))
    assert two.unit_cell == 2
    two.check(1e-12)
    for name in ("al", "ar"):
        a = getattr(one, name)[0]
        flipped = [a, a[:, ::-1, :]]
        assert all(np.array_equal(x, y)
                   for x, y in zip(getattr(two, name), flipped))
    assert all(np.array_equal(c, one.c[0]) for c in two.c)


def test_fixedpoint_counts_unconverged_truncations(tmp_path):
    out = tmp_path / "out"
    assert vomps.cli.main(["fixedpoint", "--chi", "4", "--beta-rel", "1.2",
                           "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["unconverged_truncations"] == 0


@pytest.mark.parametrize("seed", [116, 278])
def test_fixedpoint_first_step_converges(tmp_path, seed):
    # from the earlier complex random start, these seeds' first (cold)
    # truncation crawled and ended unconverged
    out = tmp_path / "out"
    assert vomps.cli.main(["fixedpoint", "--chi", "8", "--seed", str(seed),
                           "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["unconverged_truncations"] == 0
    assert summary["iterations"] == 90 and summary["period"] == 1


def test_fixedpoint_stop_step_is_kept(tmp_path):
    # the benchmark's chi-8 run at seed 0 stops after 90 steps; sizing the
    # steps by their residual moves neither that step nor the result
    out = tmp_path / "out"
    assert vomps.cli.main(["fixedpoint", "--chi", "8", "--seed", "0",
                           "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] == 90 and summary["period"] == 1
    assert abs(summary["magnetization_error"]
               - 7.140689249436338e-4) <= 1e-12
