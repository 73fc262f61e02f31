import json
from pathlib import Path

import numpy as np
import pytest

from thermovisc.cli import EXIT_OK, main
from thermovisc.diagnostics import DiagnosticsRow
from thermovisc.mesh_fem import build_mesh
from thermovisc.runio import (
    DiagnosticsWriter,
    meta_lines,
    write_cells_csv,
    write_nodes_csv,
    write_vtk,
)

# Reference writers: one repr(float(x)) per value, row by row.


def _ref(x) -> str:
    return repr(float(x))


def _ref_nodes_csv(mesh, columns, chash) -> str:
    out = meta_lines(chash)
    out.append(",".join(["node"] + [f"x{i}" for i in range(mesh.dim)] + list(columns)))
    for i in range(mesh.n_nodes):
        vals = [str(i)] + [_ref(c) for c in mesh.nodes[i]]
        vals += [_ref(col[i]) for col in columns.values()]
        out.append(",".join(vals))
    return "\n".join(out) + "\n"


def _ref_cells_csv(mesh, tensors, chash) -> str:
    s = 1.0 / np.sqrt(2.0)
    out = meta_lines(chash)
    header = ["cell"] + [f"x{i}" for i in range(mesh.dim)]
    for name in tensors:
        header += [f"{name}_{c}" for c in ("c11", "c22", "c33", "c12", "c13", "c23")]
    out.append(",".join(header))
    centroids = mesh.nodes[mesh.conn].mean(axis=1)
    for e in range(mesh.n_cells):
        vals = [str(e)] + [_ref(c) for c in centroids[e]]
        for v in tensors.values():
            v = v[e]
            vals += [_ref(x) for x in (v[0], v[1], v[2], s * v[3], s * v[4], s * v[5])]
        out.append(",".join(vals))
    return "\n".join(out) + "\n"


def _ref_vtk(mesh, scalars, vectors, tensors, chash) -> str:
    from thermovisc import __version__

    pad = [0.0] * (3 - mesh.dim)
    dims = [c + 1 for c in mesh.cells] + [1] * (3 - mesh.dim)
    out = [
        "# vtk DataFile Version 3.0",
        f"thermovisc config_hash={chash} version={__version__}",
        "ASCII",
        "DATASET STRUCTURED_GRID",
        f"DIMENSIONS {dims[0]} {dims[1]} {dims[2]}",
        f"POINTS {mesh.n_nodes} double",
    ]
    out += [" ".join(_ref(c) for c in list(p) + pad) for p in mesh.nodes]
    out.append(f"POINT_DATA {mesh.n_nodes}")
    for name, vals in scalars.items():
        out += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        out += [_ref(v) for v in vals]
    for name, vecs in vectors.items():
        out.append(f"VECTORS {name} double")
        out += [" ".join(_ref(c) for c in list(v) + pad) for v in vecs]
    out.append(f"CELL_DATA {mesh.n_cells}")
    s = 1.0 / np.sqrt(2.0)
    for name, vals in tensors.items():
        out.append(f"TENSORS {name} double")
        for v in vals:
            m = [[v[0], s * v[3], s * v[4]], [s * v[3], v[1], s * v[5]], [s * v[4], s * v[5], v[2]]]
            out += [" ".join(_ref(c) for c in row) for row in m] + [""]
    return "\n".join(out) + "\n"


@pytest.fixture(params=[2, 3], ids=["2d", "3d"])
def snapshot(request):
    dim = request.param
    mesh = build_mesh(dim, (1.0, 2.0, 0.5)[:dim], (3, 4, 2)[:dim])
    rng = np.random.default_rng(dim)

    def values(*shape):
        # mixed magnitudes, exact zeros and negative zeros
        v = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
        v.flat[::7] = 0.0
        v.flat[3::11] = -0.0
        return v

    theta = values(mesh.n_nodes)
    u = values(mesh.n_nodes, dim)
    tensors = {"epsp": values(mesh.n_cells, 6), "stress": values(mesh.n_cells, 6)}
    return mesh, theta, u, tensors


def test_nodes_csv_matches_reference(tmp_path, snapshot):
    mesh, theta, u, _ = snapshot
    cols = {"theta": theta} | {f"u{c}": u[:, c] for c in range(mesh.dim)}
    write_nodes_csv(tmp_path / "n.csv", mesh, cols, "abc")
    assert (tmp_path / "n.csv").read_text() == _ref_nodes_csv(mesh, cols, "abc")


def test_cells_csv_matches_reference(tmp_path, snapshot):
    mesh, _, _, tensors = snapshot
    write_cells_csv(tmp_path / "c.csv", mesh, tensors, "abc")
    assert (tmp_path / "c.csv").read_text() == _ref_cells_csv(mesh, tensors, "abc")


def test_vtk_matches_reference(tmp_path, snapshot):
    mesh, theta, u, tensors = snapshot
    write_vtk(
        tmp_path / "s.vtk",
        mesh,
        point_scalars={"theta": theta},
        point_vectors={"displacement": u},
        cell_tensors=tensors,
        config_hash="abc",
    )
    ref = _ref_vtk(mesh, {"theta": theta}, {"displacement": u}, tensors, "abc")
    assert (tmp_path / "s.vtk").read_text() == ref


def test_diagnostics_rows_hold_python_scalars(tmp_path, monkeypatch):
    # the diagnostics writer prints repr() of each field: a numpy scalar would
    # print as "np.float64(...)", so every field must be a Python float or int
    rows = []
    write = DiagnosticsWriter.write
    monkeypatch.setattr(
        DiagnosticsWriter, "write", lambda self, row: rows.append(row) or write(self, row)
    )
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / "forced.json").read_text())
    cfg["discretization"]["n_steps"] = 3
    cfg_path = tmp_path / "forced.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == EXIT_OK
    assert len(rows) == 4
    ints = {"solver_iters", "substeps"}
    for row in (rows[0], rows[-1]):  # the initial row and a step row
        for name, value in zip(DiagnosticsRow.FIELDS, row.values()):
            assert type(value) is (int if name in ints else float), (name, type(value))
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert lines[-1] == ",".join(repr(v) for v in rows[-1].values())
