import dataclasses
import json

import numpy as np
import pytest

from vomps.cli import _ordered_initial_state
from vomps.io import (
    EVOLUTION_FORMAT,
    POWER_FORMAT,
    TRACE_FORMAT,
    SchemaError,
    load_state,
    save_state,
    write_trace,
)
from vomps.models import (
    BETA_C,
    EvolutionRecord,
    ed_evolve,
    ising_mpo,
    trotter_evolve,
)
from vomps.truncation import (
    IterationRecord,
    PowerRecord,
    PowerStop,
    VompsConfig,
    power_method,
    vomps_truncate,
)
from vomps.umps import mixed_canonical, random_uniform_mps

from oracles import correlated_random_state, dense_local_expectation


def test_state_round_trip(tmp_path):
    state = random_uniform_mps(4, 2, unit_cell=2, seed=1)
    path = tmp_path / "state.json"
    save_state(state, path)
    back = load_state(path)
    for n in range(2):
        assert np.max(np.abs(back.al[n] - state.al[n])) <= 1e-15
        assert np.max(np.abs(back.ar[n] - state.ar[n])) <= 1e-15
        assert np.max(np.abs(back.c[n] - state.c[n])) <= 1e-15


def test_real_state_loads_as_float64(tmp_path):
    # all imaginary parts zero: every tensor loads float64, bit for bit;
    # one nonzero imaginary part anywhere loads every tensor complex
    state = mixed_canonical(
        [np.random.default_rng(6).standard_normal((3, 2, 3))])
    path = tmp_path / "state.json"
    save_state(state, path)
    back = load_state(path)
    for name in ("al", "ar", "c"):
        for x, y in zip(getattr(back, name), getattr(state, name)):
            assert x.dtype == np.float64 and np.array_equal(x, y)
    doc = json.loads(path.read_text())
    doc["tensors"]["C"][0][1][1][1] = 1e-300
    path.write_text(json.dumps(doc))
    mixed = load_state(path)
    assert {t.dtype for t in mixed.al + mixed.ar + mixed.c} == {
        np.dtype(complex)}
    assert mixed.c[0][1, 1].imag == 1e-300


def test_serialization_is_bit_stable(tmp_path):
    state = random_uniform_mps(3, 2, seed=2)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_state(state, p1)
    save_state(load_state(p1), p2)
    assert p1.read_text() == p2.read_text()


def test_rejects_cyclic_bond_mismatch(tmp_path):
    state = random_uniform_mps(3, 2, seed=4)
    path = tmp_path / "state.json"
    save_state(state, path)
    doc = json.loads(path.read_text())
    doc["bond_dims"][-1] = 5
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="cyclic"):
        load_state(path)


def test_rejects_wrong_format_tag(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"format": "something-else/9"}))
    with pytest.raises(SchemaError, match="format"):
        load_state(path)


def test_rejects_shape_mismatch_with_location(tmp_path):
    state = random_uniform_mps(3, 2, seed=5)
    path = tmp_path / "state.json"
    save_state(state, path)
    doc = json.loads(path.read_text())
    doc["tensors"]["AL"][0] = [[[0.0, 0.0]]]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"AL\[0\]"):
        load_state(path)


def test_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError, match="JSON"):
        load_state(path)


def test_rejects_non_finite(tmp_path):
    state = random_uniform_mps(2, 2, seed=6)
    path = tmp_path / "state.json"
    save_state(state, path)
    doc = json.loads(path.read_text())
    doc["tensors"]["C"][0][0][0][0] = 1e999
    path.write_text(json.dumps(doc).replace("Infinity", "1e999"))
    with pytest.raises(SchemaError):
        load_state(path)


def test_rejects_a_state_that_is_not_canonical(tmp_path):
    # AL scaled by 1.3 keeps every shape and entry valid; only the
    # canonical-form check sees it (1.3 ** 2 - 1 on AL's isometry)
    path = tmp_path / "state.json"
    save_state(correlated_random_state(6, seed=3), path)
    doc = json.loads(path.read_text())
    doc["tensors"]["AL"][0] = (
        1.3 * np.array(doc["tensors"]["AL"][0])).tolist()
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError,
                       match=r"state\.json: canonical residual [0-9.]+e"):
        load_state(path)


def test_golden_neel_fixture(tmp_path):
    from vomps.models import neel_state

    path = tmp_path / "neel.json"
    save_state(neel_state(), path)
    loaded = load_state(path)
    up = np.diag([1.0, 0.0])
    assert abs(dense_local_expectation(loaded, up, 0) - 1.0) < 1e-14
    assert abs(dense_local_expectation(loaded, up, 1)) < 1e-14


@pytest.mark.parametrize("kind", ["state"])
def test_both_formats_share_the_schema_checks(tmp_path, kind):
    path, name = tmp_path / f"{kind}.json", "AL"
    save_state(random_uniform_mps(3, 2, unit_cell=2, seed=7), path)
    good = json.loads(path.read_text())
    for edit, where in (
            (lambda d: d.update(unit_cell=0), r"\.unit_cell: must be"),
            (lambda d: d["bond_dims"].append(3), r"\.bond_dims: length"),
            (lambda d: d["bond_dims"].__setitem__(-1, 5), "cyclic"),
            (lambda d: d["tensors"][name].pop(), rf"tensors\.{name}: length"),
            (lambda d: d["tensors"][name][1].pop(), rf"{name}\[1\]: shape")):
        doc = json.loads(json.dumps(good))
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=where):
            load_state(path)


def _truncation_trace():
    _, report = vomps_truncate(correlated_random_state(8, seed=80),
                               VompsConfig(target_chi=4, seed=3))
    return TRACE_FORMAT, IterationRecord, report.iterations, {}


def _power_trace():
    _, report = power_method(ising_mpo(1.2 * BETA_C),
                             _ordered_initial_state(4, 0),
                             VompsConfig(target_chi=4, eta=1e-9),
                             PowerStop(tol=1e-9))
    return POWER_FORMAT, PowerRecord, report.iterations, {}


def _evolution_trace():
    _, records = trotter_evolve(delta=0.5, dt=0.05, t_max=0.1, chi_max=4)
    reference = ed_evolve(6, 0.5, [r.time for r in records])
    return (EVOLUTION_FORMAT, EvolutionRecord, records,
            {"ed_reference": reference})


@pytest.mark.parametrize("make", [_truncation_trace, _power_trace,
                                  _evolution_trace],
                         ids=["trace", "power", "evolution"])
def test_trace_round_trips(tmp_path, make):
    # a trace is its record list: the columns are the record's fields
    # (then the named extras), one row per record, and each cell reads
    # back as the value it was written from
    fmt, record_type, records, extra = make()
    assert len(records) > 1
    path = tmp_path / "trace.csv"
    write_trace(path, fmt, {"seed": 0, "chi": 4}, record_type, records,
                **extra)
    lines = path.read_text().splitlines()
    assert lines[:3] == [f"# format: {fmt}", "# seed: 0", "# chi: 4"]
    names = [f.name for f in dataclasses.fields(record_type)]
    assert lines[3].split(",") == names + list(extra)
    rows = [line.split(",") for line in lines[4:]]
    assert len(rows) == len(records)
    for k, (row, record) in enumerate(zip(rows, records)):
        values = [getattr(record, name) for name in names]
        values += [column[k] for column in extra.values()]
        assert len(row) == len(values)
        for cell, value in zip(row, values):
            if isinstance(value, bool):
                assert cell == str(value)
            elif isinstance(value, int):
                assert int(cell) == value
            else:
                assert float(cell) == value


def test_a_trace_without_records_has_its_columns(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(path, TRACE_FORMAT, {}, IterationRecord, [],
                ed_reference=None)
    assert path.read_text().splitlines() == [
        f"# format: {TRACE_FORMAT}",
        "iteration,epsilon,step,abs_lambda,wall_ms,matvecs,tol_inner"]
