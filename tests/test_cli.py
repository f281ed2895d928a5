import json
import os
import subprocess
import sys

import pytest

import vomps.cli
from vomps.models import EvolutionRecord, neel_state

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _fake_evolution(converged):
    def trotter_evolve(**kwargs):
        records = [EvolutionRecord(time=0.0, offset=0.0, epsilon=0.0, chi=1,
                                   abs_lambda=1.0),
                   EvolutionRecord(time=0.05, offset=0.0, epsilon=1e-14,
                                   chi=1, abs_lambda=1.0,
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


def test_evolution_trace_has_its_own_format(tmp_path):
    out = tmp_path / "out"
    assert vomps.cli.main(["evolve", "--chi", "4", "--t-max", "0.1",
                           "--oracle", "ed:6", "--out-dir", str(out)]) == 0
    lines = (out / "evolution.csv").read_text().splitlines()
    assert lines[0] == "# format: vomps-evolution/1"
    assert "# seed: 0" in lines
    header = next(line for line in lines if not line.startswith("#"))
    assert header == "t,staggered_offset,epsilon_last,chi_used,ed_reference"
    assert len(lines) - lines.index(header) - 1 == 3
