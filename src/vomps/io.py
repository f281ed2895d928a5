"""On-disk formats; no other module opens a file.

States are UMPS-JSON v1 (:func:`save_state`, :func:`load_state`).  A CLI
command writes its results as ``summary.json`` (:func:`write_summary`)
and its run as a CSV trace of one row per record (:func:`write_trace`):
``trace.csv`` (``vomps-trace/6``) of `truncate`'s
:class:`~vomps.truncation.IterationRecord` list, ``power.csv``
(``vomps-power/5``) of `fixedpoint`'s :class:`~vomps.truncation.PowerRecord`
list and ``evolution.csv`` (``vomps-evolution/4``) of `evolve`'s
:class:`~vomps.models.EvolutionRecord` list, with ``ed_reference`` last
when ``--oracle`` is given.

A state is a plain text JSON document: a ``format`` tag, a positive
``unit_cell`` L, the per-site ``physical_dims`` (length L), cyclic
``bond_dims`` of length L+1 (last equals first), and under ``tensors``
the lists ``AL``, ``AR`` and ``C`` of L tensors each.  Tensor entries are
nested arrays of ``[re, im]`` pairs in the documented index orders —
``(left, physical, right)`` for site tensors, ``(row, col)`` for bond
matrices.  Floats are written in Python's shortest exact decimal form (up
to 17 significant digits), so a round trip is bit-exact.  A state whose
imaginary parts are all zero loads as float64, any other as complex128.
A state must be canonical to 1e-10 (:meth:`~vomps.umps.UniformMPS.check`);
states this package writes check to ~1e-14.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from .umps import UniformMPS

STATE_FORMAT = "umps-json/1"
# a trace tag's version changes with its columns, the fields of its record
TRACE_FORMAT = "vomps-trace/6"
POWER_FORMAT = "vomps-power/5"
EVOLUTION_FORMAT = "vomps-evolution/4"


class SchemaError(ValueError):
    """A document violates its schema; the message names the location."""


def _encode(arr: np.ndarray):
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def _decode(node, shape, where: str) -> np.ndarray:
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: not a numeric array") from exc
    if arr.shape != tuple(shape) + (2,):
        raise SchemaError(f"{where}: shape {arr.shape} does not match "
                          f"expected {tuple(shape) + (2,)}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{where}: non-finite entries")
    return arr


def _expect(doc, key, kind, where: str):
    if key not in doc:
        raise SchemaError(f"{where}: missing field '{key}'")
    val = doc[key]
    if kind is int and (not isinstance(val, int) or isinstance(val, bool)):
        raise SchemaError(f"{where}.{key}: expected integer")
    if kind is list and not isinstance(val, list):
        raise SchemaError(f"{where}.{key}: expected array")
    if kind is dict and not isinstance(val, dict):
        raise SchemaError(f"{where}.{key}: expected object")
    return val


# the shape of tensor n of each list from the bond and physical dims
_SHAPES = {"AL": lambda bonds, dims, n: (bonds[n], dims[n], bonds[n + 1]),
           "AR": lambda bonds, dims, n: (bonds[n], dims[n], bonds[n + 1]),
           "C": lambda bonds, dims, n: (bonds[n + 1], bonds[n + 1])}


def save_state(state: UniformMPS, path: str | os.PathLike):
    doc = {"format": STATE_FORMAT, "unit_cell": state.unit_cell,
           "physical_dims": state.phys_dims, "bond_dims": state.bond_dims,
           "tensors": {name: [_encode(a) for a in arrays] for name, arrays
                       in zip(_SHAPES, (state.al, state.ar, state.c))}}
    with open(path, "w") as fh:
        # json.dumps runs the C encoder, json.dump the pure-Python one
        fh.write(json.dumps(doc) + "\n")


def load_state(path: str | os.PathLike) -> UniformMPS:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != STATE_FORMAT:
        raise SchemaError(f"{path}: format tag is not '{STATE_FORMAT}'")
    L = _expect(doc, "unit_cell", int, path)
    if L < 1:
        raise SchemaError(f"{path}.unit_cell: must be positive")
    dims = _expect(doc, "physical_dims", list, path)
    bonds = _expect(doc, "bond_dims", list, path)
    if len(dims) != L:
        raise SchemaError(f"{path}.physical_dims: length {len(dims)} != {L}")
    if len(bonds) != L + 1:
        raise SchemaError(f"{path}.bond_dims: length {len(bonds)} != {L + 1}")
    if bonds[0] != bonds[-1]:
        raise SchemaError(f"{path}.bond_dims: cyclic mismatch "
                          f"(first {bonds[0]} != last {bonds[-1]})")
    stored = _expect(doc, "tensors", dict, path)
    tensors = {}
    for name, shape in _SHAPES.items():
        node = _expect(stored, name, list, f"{path}.tensors")
        if len(node) != L:
            raise SchemaError(f"{path}.tensors.{name}: length {len(node)} "
                              f"!= {L}")
        tensors[name] = [_decode(node[n], shape(bonds, dims, n),
                                 f"{path}.tensors.{name}[{n}]")
                         for n in range(L)]
    real = not any(np.any(t[..., 1]) for ts in tensors.values() for t in ts)
    tensors = {name: [t[..., 0] if real else t[..., 0] + 1j * t[..., 1]
                      for t in ts] for name, ts in tensors.items()}
    try:
        state = UniformMPS(al=tensors["AL"], ar=tensors["AR"], c=tensors["C"])
        state.check(1e-10)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return state


def write_trace(path, fmt: str, provenance, record_type, records, **extra):
    """Write `records`, instances of the dataclass `record_type`, as a CSV
    trace: a ``# format:`` line with the tag `fmt`, one ``# key: value``
    line per `provenance` entry (the run's arguments), the column line,
    then one line per record.  The columns are the record's fields in
    order, then each `extra` keyword whose value is not None, a sequence
    of one value per record.  Strings, bools and integers are written as
    Python prints them, other numbers with 17 significant digits, so a
    float reads back exactly."""
    names = [f.name for f in dataclasses.fields(record_type)]
    extra = {name: values for name, values in extra.items()
             if values is not None}
    with open(path, "w") as fh:
        fh.write(f"# format: {fmt}\n")
        for key, value in provenance.items():
            fh.write(f"# {key}: {value}\n")
        fh.write(",".join(names + list(extra)) + "\n")
        for record, *more in zip(records, *extra.values(), strict=True):
            row = [getattr(record, name) for name in names] + more
            fh.write(",".join(str(v) if isinstance(v, (str, int))
                              else f"{v:.17g}" for v in row) + "\n")


def write_summary(path, payload: dict):
    """Write a command's results as an indented JSON object, keys sorted."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
