"""Deterministic file outputs: diagnostics CSV, legacy VTK, CSV snapshots.

Every artifact carries the config hash and code version.  CSV metadata rides
in '#'-prefixed comment lines before the RFC-4180 header row (strict
RFC-4180 has no comment syntax; every common reader accepts the prefix).
Floats are written with ``repr``, the shortest round-trip form, so repeated
runs of the same config produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import DiagnosticsRow
from .tensor import voigt_to_matrix


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def meta_lines(config_hash: str) -> list:
    return [f"# config_hash={config_hash}", f"# version={__version__}"]


class DiagnosticsWriter:
    """Streams DiagnosticsRow records to a CSV file."""

    def __init__(self, path, config_hash: str):
        self.path = Path(path)
        self._fh = open(self.path, "w", newline="")
        for line in meta_lines(config_hash):
            self._fh.write(line + "\n")
        self._fh.write(",".join(DiagnosticsRow.FIELDS) + "\n")

    def write(self, row: DiagnosticsRow):
        self._fh.write(",".join(_fmt(v) for v in row.values()) + "\n")

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_summary(path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"
    )


def _json_default(x):
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.bool_,)):
        return bool(x)
    raise TypeError(f"not JSON serializable: {type(x)}")


def cell_average(ops, quad_field: np.ndarray) -> np.ndarray:
    """Average a (NQ, ...) quadrature field over each cell."""
    nqc = ops.nqc
    shaped = np.asarray(quad_field).reshape(ops.mesh.n_cells, nqc, -1)
    return shaped.mean(axis=1)


#: table rows converted to Python floats at a time; bounds the objects alive
_BLOCK = 64

#: one cell tensor of a VTK TENSORS block: three rows and a blank line
_VTK_TENSOR = "{} {} {}\n{} {} {}\n{} {} {}\n\n"


def _write_table(fh, table, line) -> None:
    """Write ``line(i, row)`` for every row of a 2-D float table.

    ``row`` is a list of Python floats, so ``repr`` gives the text ``_fmt``
    would; rows are converted a block at a time.
    """
    table = np.asarray(table, dtype=float)
    for start in range(0, len(table), _BLOCK):
        rows = table[start : start + _BLOCK].tolist()
        fh.writelines(line(start + i, row) for i, row in enumerate(rows))


def _csv_line(i, row) -> str:
    return f"{i}," + ",".join(map(repr, row)) + "\n"


def _vtk_line(_, row) -> str:
    return " ".join(map(repr, row)) + "\n"


def _vtk_tensor(_, row) -> str:
    return _VTK_TENSOR.format(*map(repr, row))


def _xyz(vectors: np.ndarray) -> np.ndarray:
    """(n, dim) vectors padded with zero components to (n, 3)."""
    out = np.zeros((len(vectors), 3))
    out[:, : vectors.shape[1]] = vectors
    return out


def write_nodes_csv(path, mesh, columns: dict, config_hash: str) -> None:
    """Flat node table: id, coordinates, then one column per field."""
    names = list(columns)
    table = np.column_stack([mesh.nodes] + [columns[name] for name in names])
    with open(path, "w", newline="") as fh:
        for line in meta_lines(config_hash):
            fh.write(line + "\n")
        coords = [f"x{i}" for i in range(mesh.dim)]
        fh.write(",".join(["node"] + coords + names) + "\n")
        _write_table(fh, table, _csv_line)


def write_cells_csv(path, mesh, tensors: dict, config_hash: str) -> None:
    """Cell table of Voigt tensors (natural components, unweighted)."""
    comp = ["c11", "c22", "c33", "c12", "c13", "c23"]
    names = list(tensors)
    s = 1.0 / np.sqrt(2.0)
    parts = [mesh.nodes[mesh.conn].mean(axis=1)]
    for name in names:
        v = np.asarray(tensors[name], dtype=float)
        parts += [v[:, :3], s * v[:, 3:]]
    with open(path, "w", newline="") as fh:
        for line in meta_lines(config_hash):
            fh.write(line + "\n")
        header = ["cell"] + [f"x{i}" for i in range(mesh.dim)]
        for name in names:
            header += [f"{name}_{c}" for c in comp]
        fh.write(",".join(header) + "\n")
        _write_table(fh, np.hstack(parts), _csv_line)


def write_vtk(path, mesh, point_scalars=None, point_vectors=None, cell_tensors=None,
              config_hash: str = "") -> None:
    """Legacy ASCII VTK structured grid with point and cell data."""
    point_scalars = point_scalars or {}
    point_vectors = point_vectors or {}
    cell_tensors = cell_tensors or {}
    dims = [c + 1 for c in mesh.cells] + [1] * (3 - mesh.dim)
    with open(path, "w", newline="") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"thermovisc config_hash={config_hash} version={__version__}\n")
        fh.write("ASCII\nDATASET STRUCTURED_GRID\n")
        fh.write(f"DIMENSIONS {dims[0]} {dims[1]} {dims[2]}\n")
        fh.write(f"POINTS {mesh.n_nodes} double\n")
        _write_table(fh, _xyz(mesh.nodes), _vtk_line)
        if point_scalars or point_vectors:
            fh.write(f"POINT_DATA {mesh.n_nodes}\n")
            for name, vals in point_scalars.items():
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                _write_table(fh, np.reshape(vals, (-1, 1)), _vtk_line)
            for name, vecs in point_vectors.items():
                fh.write(f"VECTORS {name} double\n")
                arr = np.asarray(vecs).reshape(mesh.n_nodes, mesh.dim)
                _write_table(fh, _xyz(arr), _vtk_line)
        if cell_tensors:
            fh.write(f"CELL_DATA {mesh.n_cells}\n")
            for name, vals in cell_tensors.items():
                fh.write(f"TENSORS {name} double\n")
                _write_table(fh, voigt_to_matrix(vals).reshape(-1, 9), _vtk_tensor)
