import json
from pathlib import Path

import numpy as np
import pytest

from thermovisc import cli, runio
from thermovisc.cli import EXIT_OK, main
from thermovisc.diagnostics import DiagnosticsRow
from thermovisc.mesh_fem import build_mesh
from thermovisc.runio import DiagnosticsWriter, SnapshotWriter, meta_lines

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


@pytest.fixture
def special_snapshot(snapshot):
    """The fixture's mesh with fields cycling through values whose text is
    easy to get wrong: non-finite, subnormal, exponent switch-overs and -0.0."""
    mesh = snapshot[0]
    special = [np.inf, -np.inf, np.nan, 5e-324, 1e16, 1e-05, 1e-04, -0.0]

    def values(*shape):
        return np.resize(special, shape)

    theta = values(mesh.n_nodes)
    u = values(mesh.n_nodes, mesh.dim)[::-1]
    tensors = {"epsp": values(mesh.n_cells, 6), "stress": values(mesh.n_cells, 6)[::-1]}
    return mesh, theta, u, tensors


def _write_one(tmp_path, snapshot, formats, step=0):
    mesh, theta, u, tensors = snapshot
    SnapshotWriter(tmp_path, mesh, formats, "abc").write(step, theta, u, tensors)
    return tmp_path / f"snapshot_{step:06d}"


def _nodes_columns(mesh, theta, u):
    return {"theta": theta} | {f"u{c}": u[:, c] for c in range(mesh.dim)}


def test_nodes_csv_matches_reference(tmp_path, snapshot):
    mesh, theta, u, _ = snapshot
    stem = _write_one(tmp_path, snapshot, ["csv"])
    ref = _ref_nodes_csv(mesh, _nodes_columns(mesh, theta, u), "abc")
    assert Path(f"{stem}_nodes.csv").read_text() == ref


def test_cells_csv_matches_reference(tmp_path, snapshot):
    mesh, _, _, tensors = snapshot
    stem = _write_one(tmp_path, snapshot, ["csv"])
    assert Path(f"{stem}_cells.csv").read_text() == _ref_cells_csv(mesh, tensors, "abc")


def test_vtk_matches_reference(tmp_path, snapshot):
    mesh, theta, u, tensors = snapshot
    stem = _write_one(tmp_path, snapshot, ["vtk"])
    ref = _ref_vtk(mesh, {"theta": theta}, {"displacement": u}, tensors, "abc")
    assert Path(f"{stem}.vtk").read_text() == ref


@pytest.mark.parametrize("formats", [["csv", "vtk"], ["csv"], ["vtk"]], ids="+".join)
def test_one_writer_many_snapshots_match_reference(tmp_path, snapshot, special_snapshot, formats):
    # one writer keeps the mesh text across snapshots: every snapshot's files
    # must match the per-value reference, and only the configured ones exist
    mesh, theta, u, tensors = snapshot
    third = (theta[::-1], -u, {name: 2.0 * v for name, v in tensors.items()})
    steps = {0: snapshot[1:], 7: special_snapshot[1:], 123456: third}
    writer = SnapshotWriter(tmp_path, mesh, formats, "abc")
    for step, (theta_s, u_s, tensors_s) in steps.items():
        writer.write(step, theta_s, u_s, tensors_s)
    expected = {}
    for step, (theta_s, u_s, tensors_s) in steps.items():
        stem = f"snapshot_{step:06d}"
        if "csv" in formats:
            expected[f"{stem}_nodes.csv"] = _ref_nodes_csv(mesh, _nodes_columns(mesh, theta_s, u_s), "abc")
            expected[f"{stem}_cells.csv"] = _ref_cells_csv(mesh, tensors_s, "abc")
        if "vtk" in formats:
            scalars, vectors = {"theta": theta_s}, {"displacement": u_s}
            expected[f"{stem}.vtk"] = _ref_vtk(mesh, scalars, vectors, tensors_s, "abc")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    for name, ref in expected.items():
        assert (tmp_path / name).read_text() == ref, name


def _run_config(tmp_path, name, **output):
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / "forced.json").read_text())
    cfg["discretization"]["n_steps"] = 6
    cfg["output"].update(output)
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / name
    code = main(["run", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    return code, out, cfg


def test_snapshot_formats_each_value_once(tmp_path, monkeypatch):
    # counts formatted floats, not time: a CSV+VTK snapshot formats its fields
    # once, (1 + dim) per node and 6 per cell tensor, and the mesh text
    # (nodes and centroids) is formatted once per run
    formatted = []
    fmt = runio._format

    def counted(values):
        text = fmt(values)
        formatted.append(len(text))
        return text

    monkeypatch.setattr(runio, "_format", counted)
    code, out, cfg = _run_config(tmp_path, "both", cadence=2, formats=["csv", "vtk"])
    assert code == EXIT_OK
    mesh = build_mesh(cfg["mesh"]["dim"], cfg["mesh"]["extents"], cfg["mesh"]["cells"])
    dim, n_nodes, n_cells = mesh.dim, mesh.n_nodes, mesh.n_cells
    n_snapshots = len(list(out.glob("snapshot_*.vtk")))
    assert n_snapshots == 4 and len(list(out.glob("snapshot_*.csv"))) == 2 * n_snapshots
    per_snapshot = (1 + dim) * n_nodes + 12 * n_cells
    assert sum(formatted) == n_snapshots * per_snapshot + dim * (n_nodes + n_cells)


def test_no_formats_skips_snapshots(tmp_path, monkeypatch):
    calls = []
    reconstruct = cli.reconstruct_fields
    monkeypatch.setattr(
        cli, "reconstruct_fields", lambda *args: calls.append(args[-1]) or reconstruct(*args)
    )
    code, out, _ = _run_config(tmp_path, "none", cadence=2, formats=[])
    assert code == EXIT_OK and calls == []
    assert not list(out.glob("snapshot_*"))
    code, ref, _ = _run_config(tmp_path, "csv", cadence=2, formats=["csv"])
    assert code == EXIT_OK and calls == [0, 2, 4, 6]
    # the configs differ in formats only, so only the config_hash line may differ
    lines, ref_lines = ((d / "diagnostics.csv").read_text().splitlines(True) for d in (out, ref))
    assert lines[0].startswith("# config_hash=") and lines[1:] == ref_lines[1:]


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
