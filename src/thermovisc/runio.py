"""Deterministic file outputs: diagnostics CSV, legacy VTK, CSV snapshots.

Every artifact carries the config hash and code version.  CSV metadata rides
in '#'-prefixed comment lines before the RFC-4180 header row (strict
RFC-4180 has no comment syntax; every common reader accepts the prefix).
Floats are written with ``repr``, the shortest round-trip form, so repeated
runs of the same config produce byte-identical files.  A run's
``SnapshotWriter`` formats each field value once per snapshot, and the
snapshot's CSV tables and VTK file share that text; the node coordinates and
cell centroids are formatted once per run.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import DiagnosticsRow
from .tensor import SQRT2


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
        # every field is a Python float or int, whose repr is the CSV text
        self._fh.write(",".join(map(repr, row.values())) + "\n")

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


#: CSV column suffixes of a tensor's natural components, in Voigt order
_COMPONENTS = ("c11", "c22", "c33", "c12", "c13", "c23")

#: a VTK tensor's nine entries row by row, gathered from its six natural
#: components with the slot table 0 3 4 / 3 1 5 / 4 5 2, then a blank line
_VTK_TENSOR = "{0} {3} {4}\n{3} {1} {5}\n{4} {5} {2}\n\n"

#: the text of a zero component padding a 2-D point or vector to three
_ZERO = repr(0.0)


def _format(values) -> list:
    """The text of every value of a float array, in C order.

    The one place a snapshot float is formatted: ``tolist`` gives Python
    floats, whose ``repr`` is the shortest round-trip text.
    """
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def _rows(text: list, width: int) -> list:
    """A flat list of strings as consecutive ``width``-tuples."""
    return list(zip(*[iter(text)] * width))


def _vtk_vectors(rows, dim: int) -> str:
    """VTK rows of ``dim``-component vector text, padded to three components."""
    pad = (_ZERO,) * (3 - dim)
    return "".join(" ".join(row + pad) + "\n" for row in rows)


def _natural_components(voigt) -> np.ndarray:
    """(n, 6) Voigt tensors as their natural components c11 ... c23."""
    v = np.asarray(voigt, dtype=float)
    return np.hstack([v[:, :3], (1.0 / SQRT2) * v[:, 3:]])


class MeshText:
    """A mesh's coordinate text, formatted at first use and kept for the run."""

    def __init__(self, mesh):
        self.mesh = mesh

    @cached_property
    def _coords(self) -> list:
        return _rows(_format(self.mesh.nodes), self.mesh.dim)

    @cached_property
    def node_rows(self) -> list:
        """Per node, the start of its CSV row: id and coordinates."""
        return [",".join((str(i), *c)) for i, c in enumerate(self._coords)]

    @cached_property
    def cell_rows(self) -> list:
        """Per cell, the start of its CSV row: id and centroid."""
        centroids = _rows(_format(self.mesh.nodes[self.mesh.conn].mean(axis=1)), self.mesh.dim)
        return [",".join((str(e), *c)) for e, c in enumerate(centroids)]

    @cached_property
    def points(self) -> str:
        """The rows of the VTK POINTS block."""
        return _vtk_vectors(self._coords, self.mesh.dim)


def write_nodes_csv(path, mesh_text: MeshText, columns: dict, config_hash: str) -> None:
    """Flat node table: id, coordinates, then one column of value text per field."""
    with open(path, "w", newline="") as fh:
        for line in meta_lines(config_hash):
            fh.write(line + "\n")
        coords = [f"x{i}" for i in range(mesh_text.mesh.dim)]
        fh.write(",".join(["node", *coords, *columns]) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(mesh_text.node_rows, *columns.values()))


def write_cells_csv(path, mesh_text: MeshText, tensors: dict, config_hash: str) -> None:
    """Cell table: id, centroid, then the six natural components of each tensor.

    ``tensors`` maps each name to one 6-tuple of component text per cell.
    """
    with open(path, "w", newline="") as fh:
        for line in meta_lines(config_hash):
            fh.write(line + "\n")
        header = ["cell"] + [f"x{i}" for i in range(mesh_text.mesh.dim)]
        for name in tensors:
            header += [f"{name}_{c}" for c in _COMPONENTS]
        fh.write(",".join(header) + "\n")
        fh.writelines(
            f"{start},{','.join(chain.from_iterable(comps))}\n"
            for start, *comps in zip(mesh_text.cell_rows, *tensors.values())
        )


def write_vtk(path, mesh_text: MeshText, point_scalars: dict, point_vectors: dict,
              cell_tensors: dict, config_hash: str) -> None:
    """Legacy ASCII VTK structured grid with point and cell data.

    Scalars hold one value text per node, vectors one ``dim``-tuple per node
    and tensors one 6-tuple of natural components per cell.
    """
    mesh = mesh_text.mesh
    dims = [c + 1 for c in mesh.cells] + [1] * (3 - mesh.dim)
    with open(path, "w", newline="") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"thermovisc config_hash={config_hash} version={__version__}\n")
        fh.write("ASCII\nDATASET STRUCTURED_GRID\n")
        fh.write(f"DIMENSIONS {dims[0]} {dims[1]} {dims[2]}\n")
        fh.write(f"POINTS {mesh.n_nodes} double\n")
        fh.write(mesh_text.points)
        fh.write(f"POINT_DATA {mesh.n_nodes}\n")
        for name, vals in point_scalars.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            fh.write("\n".join(vals) + "\n")
        for name, vecs in point_vectors.items():
            fh.write(f"VECTORS {name} double\n")
            fh.write(_vtk_vectors(vecs, mesh.dim))
        fh.write(f"CELL_DATA {mesh.n_cells}\n")
        for name, comps in cell_tensors.items():
            fh.write(f"TENSORS {name} double\n")
            fh.writelines(_VTK_TENSOR.format(*c) for c in comps)


class SnapshotWriter:
    """Writes one run's snapshots in the configured formats (``csv``, ``vtk``).

    A snapshot formats each field value once, and its CSV tables and VTK file
    share that text.  The mesh text is formatted at the first snapshot and
    kept for the run.
    """

    def __init__(self, outdir, mesh, formats, config_hash: str):
        self.outdir = Path(outdir)
        self.formats = frozenset(formats)
        self.config_hash = config_hash
        self.mesh_text = MeshText(mesh)

    def write(self, step_index: int, theta, u, cell_tensors: dict) -> None:
        """Snapshot of nodal ``theta``, nodal ``u`` (node-major, ``dim`` per
        node) and (n_cells, 6) Voigt ``cell_tensors``."""
        dim = self.mesh_text.mesh.dim
        theta_text = _format(theta)
        u_text = _format(u)
        tensors = {name: _rows(_format(_natural_components(v)), 6) for name, v in cell_tensors.items()}
        stem = f"snapshot_{step_index:06d}"
        if "csv" in self.formats:
            columns = {"theta": theta_text} | {f"u{c}": u_text[c::dim] for c in range(dim)}
            write_nodes_csv(self.outdir / f"{stem}_nodes.csv", self.mesh_text, columns, self.config_hash)
            write_cells_csv(self.outdir / f"{stem}_cells.csv", self.mesh_text, tensors, self.config_hash)
        if "vtk" in self.formats:
            write_vtk(
                self.outdir / f"{stem}.vtk",
                self.mesh_text,
                {"theta": theta_text},
                {"displacement": _rows(u_text, dim)},
                tensors,
                self.config_hash,
            )
