"""On-disk formats: UMPS-JSON v1 and MPO-JSON v1, and the CSV traces.

Both JSON formats are plain text documents with one schema: a ``format``
tag, a positive ``unit_cell`` L, per-site dimension lists of length L
(``physical_dims`` for states, ``phys_dims_out`` and ``phys_dims_in`` for
MPOs), cyclic ``bond_dims`` of length L+1 (last equals first), and named
lists of L tensors under ``tensors`` (``AL``, ``AR``, ``C`` for states,
``O`` for MPOs).  Tensor entries are nested arrays of ``[re, im]`` pairs
in the documented index orders — ``(left, physical, right)`` for state
tensors, ``(row, col)`` for bond matrices, ``(left, phys_out, phys_in,
right)`` for MPO tensors.  Floats are written in Python's shortest exact
decimal form (up to 17 significant digits), so a round trip is bit-exact.
One reader and one writer serve both formats through the table below.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple

import numpy as np

from .umps import MPO, UniformMPS

STATE_FORMAT = "umps-json/1"
MPO_FORMAT = "mpo-json/1"
TRACE_FORMAT = "vomps-trace/2"
POWER_FORMAT = "vomps-power/3"
EVOLUTION_FORMAT = "vomps-evolution/1"


class SchemaError(ValueError):
    """A document violates its schema; the message names the location."""


# one JSON format: its tag, the per-site dimension lists in document order,
# the shape of tensor n of each named list from (bonds, dims, n), and the
# constructor taking {name: tensors}
_Schema = namedtuple("_Schema", "tag dims tensors build")


def _site_shape(bonds, dims, n):
    return (bonds[n], dims[0][n], bonds[n + 1])


_STATE = _Schema(
    STATE_FORMAT, ("physical_dims",),
    {"AL": _site_shape, "AR": _site_shape,
     "C": lambda bonds, dims, n: (bonds[n + 1], bonds[n + 1])},
    lambda t: UniformMPS(al=t["AL"], ar=t["AR"], c=t["C"]))
_MPO = _Schema(
    MPO_FORMAT, ("phys_dims_out", "phys_dims_in"),
    {"O": lambda bonds, dims, n: (bonds[n], dims[0][n], dims[1][n],
                                  bonds[n + 1])},
    lambda t: MPO(o=t["O"]))


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
    return arr[..., 0] + 1j * arr[..., 1]


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


def _save(schema: _Schema, dims, bonds, tensors, path):
    doc = {"format": schema.tag, "unit_cell": len(bonds) - 1,
           **dict(zip(schema.dims, dims)), "bond_dims": bonds,
           "tensors": {name: [_encode(a) for a in arrays]
                       for name, arrays in zip(schema.tensors, tensors)}}
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _load(schema: _Schema, path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != schema.tag:
        raise SchemaError(f"{path}: format tag is not '{schema.tag}'")
    L = _expect(doc, "unit_cell", int, path)
    if L < 1:
        raise SchemaError(f"{path}.unit_cell: must be positive")
    dims = [_expect(doc, key, list, path) for key in schema.dims]
    bonds = _expect(doc, "bond_dims", list, path)
    for key, values in zip(schema.dims, dims):
        if len(values) != L:
            raise SchemaError(f"{path}.{key}: length {len(values)} != {L}")
    if len(bonds) != L + 1:
        raise SchemaError(f"{path}.bond_dims: length {len(bonds)} != {L + 1}")
    if bonds[0] != bonds[-1]:
        raise SchemaError(f"{path}.bond_dims: cyclic mismatch "
                          f"(first {bonds[0]} != last {bonds[-1]})")
    stored = _expect(doc, "tensors", dict, path)
    tensors = {}
    for name, shape in schema.tensors.items():
        node = _expect(stored, name, list, f"{path}.tensors")
        if len(node) != L:
            raise SchemaError(f"{path}.tensors.{name}: length {len(node)} "
                              f"!= {L}")
        tensors[name] = [_decode(node[n], shape(bonds, dims, n),
                                 f"{path}.tensors.{name}[{n}]")
                         for n in range(L)]
    try:
        return schema.build(tensors)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def save_state(state: UniformMPS, path: str | os.PathLike):
    _save(_STATE, [state.phys_dims], state.bond_dims,
          [state.al, state.ar, state.c], path)


def load_state(path: str | os.PathLike) -> UniformMPS:
    return _load(_STATE, path)


def save_mpo(mpo: MPO, path: str | os.PathLike):
    _save(_MPO, [mpo.phys_dims_out, mpo.phys_dims_in], mpo.bond_dims,
          [mpo.o], path)


def load_mpo(path: str | os.PathLike) -> MPO:
    return _load(_MPO, path)


def write_trace(path, fmt: str, seed, header, columns, rows):
    """Write a CSV trace: a ``# format:`` line with the tag `fmt`, a
    ``# seed:`` line unless `seed` is None, one ``# `` line per `header`
    entry, the column line, then one line per row.  Strings and integers
    are written as they are, other numbers with 17 significant digits."""
    with open(path, "w") as fh:
        fh.write(f"# format: {fmt}\n")
        if seed is not None:
            fh.write(f"# seed: {seed}\n")
        for line in header:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str)
                              else str(v) if isinstance(v, int)
                              else f"{v:.17g}" for v in row) + "\n")
