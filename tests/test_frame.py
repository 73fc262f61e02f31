"""The deviator frame: its size, the tables the step reads in it, and the set-up check."""

import json

import numpy as np
import pytest

from thermovisc import mesh_fem
from thermovisc.basis import build_basis
from thermovisc.cli import main
from thermovisc.constitutive import NortonHoff
from thermovisc.evolution import EvolutionConfig, ModalSystem, initialize, run
from thermovisc.lifting import build_lift
from thermovisc.mesh_fem import assemble, build_mesh
from thermovisc.tensor import (
    FRAME_RTOL,
    VOIGT_TRACE,
    ElasticityTensor,
    dev6,
    deviator_frame,
    frame_loss,
    strain_slots,
)

ISOTROPIC = ElasticityTensor.isotropic(lam=1.0, mu=1.0)


def _coupled_voigt() -> np.ndarray:
    # a plane-strain-admissible D whose eps11 drives the out-of-plane 13 shear
    m = 2.0 * np.eye(6) + np.outer(VOIGT_TRACE, VOIGT_TRACE)
    m[0, 4] = m[4, 0] = 0.4
    return m


COUPLED = ElasticityTensor(_coupled_voigt())


@pytest.mark.parametrize(
    "D, dim, m",
    [(ISOTROPIC, 2, 3), (ISOTROPIC, 3, 5), (COUPLED, 2, 4), (COUPLED, 3, 5)],
    ids=["2d_isotropic", "3d_isotropic", "2d_coupled", "3d_coupled"],
)
def test_frame_size_and_coverage(D, dim, m):
    Q = deviator_frame(D, dim)
    assert Q.shape == (6, m)
    assert np.abs(Q.T @ Q - np.eye(m)).max() <= 1e-15
    assert np.abs(VOIGT_TRACE @ Q).max() <= 1e-15  # traceless columns
    # every dev(D e) over the strain slots is rebuilt from its coordinates
    X = dev6(D.voigt[:, strain_slots(dim)].T)
    assert np.abs(X @ Q @ Q.T - X).max() <= 1e-14 * np.abs(D.voigt).max()
    assert frame_loss(D, dim, Q) <= 1e-14
    assert frame_loss(D, dim, Q[:, :-1]) > FRAME_RTOL  # the set-up check fires
    if D is COUPLED and dim == 2:
        # the coupled direction is in the frame: dev(D e11) has a 13 shear
        assert abs(X[0, 4]) > 0.1
        assert abs((X[0] @ Q @ Q.T)[4] - X[0, 4]) <= 1e-15


def _system_and_lift(dim, D, space):
    cells = (4,) * dim if dim == 2 else (2,) * dim
    ops = assemble(build_mesh(dim, (1.0,) * dim, cells), D)
    system = ModalSystem(ops, build_basis(ops, k=3, l=4, space=space), NortonHoff(c=1.0, p=3.0))
    xy = ops.mesh.nodes
    force = np.stack([0.5 + xy[:, (a + 1) % dim] ** 2 for a in range(dim)], axis=1)
    shear = 0.1 * xy[:, ::-1]
    lift = build_lift(
        ops, np.linspace(0.0, 0.1, 3), f=(lambda t: 1.0 + t, force), g=(lambda t: t, shear)
    )
    return system, lift


@pytest.mark.parametrize("space", ["deviatoric", "full"])
@pytest.mark.parametrize(
    "dim, D", [(2, ISOTROPIC), (3, ISOTROPIC), (2, COUPLED)], ids=["2d", "3d", "2d_coupled"]
)
def test_frame_tables_rebuild_their_deviators(dim, D, space):
    system, lift = _system_and_lift(dim, D, space)
    Q, m = system.ops.frame, system.m
    D, basis = system.ops.D, system.basis
    tables = {
        "D_zeta": (D.apply6(basis.zeta), system.D_zeta_frame),
        "D_eps_w": (D.apply6(basis.eps_w), system.D_eps_w_frame),
        "T_tilde": (lift.T_tilde, lift.T_tilde_dev),
    }
    for name, (voigt, coords) in tables.items():
        ref = dev6(voigt)
        rebuilt = coords.reshape(len(voigt), -1, m) @ Q.T
        assert np.abs(ref).max() > 0.0, name
        assert np.abs(rebuilt - ref).max() <= 1e-14 * np.abs(ref).max(), name


def test_setup_exits_4_when_the_frame_drops_a_direction(tmp_path, monkeypatch, capsys):
    cfg = {
        "mesh": {"cells": [4, 4]},
        "discretization": {"k": 2, "l": 2, "dt": 1e-3, "n_steps": 2},
        "data": {"f": {"preset": "polynomial", "value": [2.0, 2.0]}},
        "output": {"cadence": 2},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    real = mesh_fem.deviator_frame
    monkeypatch.setattr(mesh_fem, "deviator_frame", lambda D, dim: real(D, dim)[:, :-1])
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 4
    assert "the deviator frame leaves out" in capsys.readouterr().err
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["failed"] is True


def _forced_2d():
    system, lift = _system_and_lift(2, ISOTROPIC, "deviatoric")
    return system, lift, np.ones(system.ops.n_nodes)


def _isolated_3d():
    ops = assemble(build_mesh(3, (1.0, 1.0, 1.0), (3, 3, 3)), ISOTROPIC)
    system = ModalSystem(ops, build_basis(ops, k=4, l=4), NortonHoff(c=1.0, p=3.0))
    return system, build_lift(ops, np.linspace(0.0, 0.1, 3)), np.full(ops.n_nodes, 1.5)


@pytest.mark.parametrize("case", [_forced_2d, _isolated_3d], ids=["forced_2d", "isolated_3d"])
def test_equilibrium_residual_is_the_quadrature_form(case):
    # |E delta| reads the functional (eps(w_n), wq S) of S = D sum delta_m zeta_m
    system, lift, theta0 = case()
    cfg = EvolutionConfig(dt=0.05, n_steps=2)
    epsp0 = 0.3 * system.basis.zeta[0] - 0.2 * system.basis.zeta[2]
    st = initialize(system, theta0, epsp0, cfg)
    eps_w = system.basis.eps_w.reshape(system.k, -1)
    wq = system.wq[:, None]
    res = run(system, st, lift, cfg)
    for delta, rep in zip(res.delta[1:], res.reports):
        S = system.ops.D.apply6(system.epsp_quad(np.zeros(system.k), delta))
        quadrature = float(np.abs(eps_w @ (wq * S).ravel()).max())
        # both are round-off of products of size |eps(w_n)|_D |delta|
        floor = 1e-14 * np.sqrt(system.lam.max()) * np.abs(delta).sum()
        assert quadrature <= floor
        assert abs(rep.equilibrium_residual - quadrature) <= floor
