"""Batch front end: config ingestion, run orchestration, verification suites.

Subcommands
    run        advance the coupled evolution and stream diagnostics
    certify    randomized certificate for the configured constitutive law
    basis      build, verify and dump the Galerkin basis artifact
    converge   two-level refinement ladder with terminal-field deltas

Exit codes: 0 all suites pass, 2 config error, 3 solver failure,
4 invariant violation.  The output directory can be overridden by --out or
the THERMOVISC_OUT environment variable (output dir only).
"""

from __future__ import annotations

import argparse
import copy
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .basis import (
    basis_invariant_report,
    build_basis,
    dump_basis,
    projection_norm_check,
)
from .config import (
    canonical_json,
    config_hash,
    is_isolated,
    load_config,
    make_boundary_displacement,
    make_boundary_flux,
    make_elasticity,
    make_epsp0,
    make_force,
    make_law,
    make_theta0,
    make_theta_tilde0,
)
from .constitutive import CertificationFailure, certify_assumption1
from .diagnostics import AprioriMonitor, EnergyReport, collect_row
from .errors import (
    BadConfig,
    BadData,
    DimensionMismatch,
    DomainExit,
    EmptyComplement,
    NonFiniteInput,
    NonlinearSolveFailure,
    ParseError,
    SolverFailure,
    StateCorrupt,
    ValidationError,
)
from .evolution import (
    EvolutionConfig,
    ModalSystem,
    initialize,
    reconstruct_fields,
    run,
)
from .lifting import build_lift
from .mesh_fem import assemble, build_mesh
from .runio import (
    DiagnosticsWriter,
    cell_average,
    write_cells_csv,
    write_nodes_csv,
    write_summary,
    write_vtk,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4

ENV_OUT = "THERMOVISC_OUT"


def _say(quiet, *parts):
    if not quiet:
        print(*parts)


def _outdir(cfg, override) -> Path:
    out = override or os.environ.get(ENV_OUT) or cfg["output"]["dir"]
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _echo_config(cfg, outdir: Path):
    (outdir / "effective_config.json").write_text(canonical_json(cfg))


def build_operators(cfg):
    """Mesh and assembled operators of the configured problem."""
    mesh = build_mesh(cfg["mesh"]["dim"], cfg["mesh"]["extents"], cfg["mesh"]["cells"])
    return assemble(mesh, make_elasticity(cfg))


def _build_basis(cfg, ops):
    disc = cfg["discretization"]
    return build_basis(ops, disc["k"], disc["l"], space=disc["complement_space"])


def _evolution_config(cfg) -> EvolutionConfig:
    d = cfg["discretization"]
    return EvolutionConfig(
        k=d["k"],
        l=d["l"],
        dt=d["dt"],
        n_steps=d["n_steps"],
        truncation_level=d["truncation_level"],
        solver_tol=d["solver_tol"],
        solver_max_iter=d["solver_max_iter"],
    )


def _build_lift_from_config(cfg, ops, times):
    mesh = ops.mesh
    gth_of_t, gth_on = make_boundary_flux(cfg, mesh)
    return build_lift(
        ops,
        times,
        f=make_force(cfg, mesh),
        g=make_boundary_displacement(cfg, mesh),
        gtheta_of_t=gth_of_t if gth_on else None,
        theta_tilde0=make_theta_tilde0(cfg, mesh),
    )


def prepare_run(cfg, ops):
    """Modal system, evolution config, lift and initial state of one run."""
    system = ModalSystem(ops, _build_basis(cfg, ops), make_law(cfg))
    evo = _evolution_config(cfg)
    lifted = _build_lift_from_config(cfg, ops, evo.dt * np.arange(evo.n_steps + 1))
    theta0_hom = make_theta0(cfg, ops.mesh) - lifted.theta_tilde[0]
    state0 = initialize(system, theta0_hom, make_epsp0(cfg, ops, system.fields), evo)
    return system, evo, lifted, state0


def _snapshot(cfg, outdir, chash, system, fields, step_index):
    mesh = system.ops.mesh
    stem = f"snapshot_{step_index:06d}"
    theta = fields["theta"]
    u = fields["u"].reshape(mesh.n_nodes, mesh.dim)
    epsp_cells = cell_average(system.ops, fields["epsp"])
    stress_cells = cell_average(system.ops, fields["T"])
    if "csv" in cfg["output"]["formats"]:
        cols = {"theta": theta}
        for c in range(mesh.dim):
            cols[f"u{c}"] = u[:, c]
        write_nodes_csv(outdir / f"{stem}_nodes.csv", mesh, cols, chash)
        write_cells_csv(
            outdir / f"{stem}_cells.csv",
            mesh,
            {"epsp": epsp_cells, "stress": stress_cells},
            chash,
        )
    if "vtk" in cfg["output"]["formats"]:
        write_vtk(
            outdir / f"{stem}.vtk",
            mesh,
            point_scalars={"theta": theta},
            point_vectors={"displacement": u},
            cell_tensors={"epsp": epsp_cells, "stress": stress_cells},
            config_hash=chash,
        )


def run_simulation(cfg, outdir: Path, quiet=True):
    """Full cmd_run pipeline; returns (checks, monitor summary, run result)."""
    chash = config_hash(cfg)
    _echo_config(cfg, outdir)
    ops = build_operators(cfg)
    system, evo, lifted, state0 = prepare_run(cfg, ops)

    law = system.law
    monitor = AprioriMonitor(
        beta=law.beta_coercivity, C=law.C_growth, p=law.p, volume=ops.mesh.volume
    )
    report = EnergyReport()
    cadence = cfg["output"]["cadence"]

    with DiagnosticsWriter(outdir / "diagnostics.csv", chash) as diag:

        def on_step(i, state, rep):
            row = collect_row(system, state, lifted, i, rep)
            report.append(row)
            diag.write(row)
            # the a-priori bound is a theorem for the homogeneous potential
            # energy (= |delta|^2/2); physical and homogeneous agree exactly
            # for isolated runs
            e_hom = 0.5 * float(state.delta @ state.delta)
            theta = system.theta_nodal(state.beta) + lifted.theta_tilde[i]
            if rep is None:
                monitor.start(ops, e_hom, theta)
            else:
                td_lift = lifted.combine(lifted.T_tilde_dev, i)
                td = system.stress_dev(state.delta, td_lift)
                monitor.update(ops, evo.dt, state.t, e_hom, td, td_lift, theta)
            if i % cadence == 0 or i == evo.n_steps:
                fields = reconstruct_fields(system, state, lifted, i)
                _snapshot(cfg, outdir, chash, system, fields, i)

        result = run(system, state0, lifted, evo, on_step=on_step)

    checks = report.evaluate(isolated=is_isolated(cfg), solver_tol=evo.solver_tol)
    mon = monitor.summary()
    summary = {
        "config_hash": chash,
        "version": __version__,
        "command": "run",
        "isolated": is_isolated(cfg),
        "n_steps": evo.n_steps,
        "checks": checks,
        "monitor": mon,
        "terminal": {
            "t": result.final_state.t,
            "e_pot": report.rows[-1].e_pot,
            "e_total": report.rows[-1].e_total,
            "theta_min": report.rows[-1].theta_min,
        },
    }
    write_summary(outdir / "summary.json", summary)
    if not quiet:
        last = report.rows[-1]
        print(f"run: {evo.n_steps} steps to t={result.final_state.t:g}")
        print(f"{'quantity':<22} {'initial':>14} {'final':>14}")
        first = report.rows[0]
        for label, name in (
            ("potential energy", "e_pot"),
            ("thermal energy", "e_thermal"),
            ("total energy", "e_total"),
            ("min nodal theta", "theta_min"),
            ("entropy", "entropy"),
            ("dissipation", "dissipation"),
        ):
            print(f"{label:<22} {getattr(first, name):>14.6e} {getattr(last, name):>14.6e}")
        print(f"checks passed={checks['passed']}, monitor ok={mon['satisfied']}")
    return checks, mon, result


def cmd_run(cfg, outdir: Path, quiet=True) -> int:
    try:
        checks, mon, _ = run_simulation(cfg, outdir, quiet)
    except (SolverFailure, DomainExit, NonFiniteInput) as err:
        summary = {
            "config_hash": config_hash(cfg),
            "version": __version__,
            "command": "run",
            "failed": True,
            "failure": str(err),
            "checks": {"passed": False},
        }
        if isinstance(err, NonlinearSolveFailure):
            summary["t_failed"] = err.t
            summary["residual_history"] = err.residual_history
        write_summary(outdir / "summary.json", summary)
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK if checks["passed"] and mon["satisfied"] else EXIT_INVARIANT


def cmd_certify(cfg, outdir: Path, quiet=True) -> int:
    chash = config_hash(cfg)
    _echo_config(cfg, outdir)
    law = make_law(cfg)
    cert = cfg["certify"]
    try:
        rep = certify_assumption1(
            law,
            sample_count=cert["samples"],
            radius=cert["radius"],
            seed=cfg["seed"],
            theta_values=tuple(cert["thetas"]),
        )
        payload = rep.as_dict()
        code = EXIT_OK
    except CertificationFailure as err:
        payload = err.report.as_dict() if hasattr(err, "report") else {"passed": False}
        payload["failure"] = str(err)
        code = EXIT_INVARIANT
    payload.update({"config_hash": chash, "version": __version__, "command": "certify"})
    write_summary(outdir / "certification.json", payload)
    _say(quiet, f"certify: {law.name} passed={payload.get('passed')}")
    return code


def cmd_basis(cfg, outdir: Path, quiet=True) -> int:
    chash = config_hash(cfg)
    _echo_config(cfg, outdir)
    ops = build_operators(cfg)
    basis = _build_basis(cfg, ops)
    rep = basis_invariant_report(ops, basis)
    norm = projection_norm_check(basis, n_fields=1000, seed=cfg["seed"])
    dump_basis(outdir / "basis.npz", basis)
    payload = {
        "config_hash": chash,
        "version": __version__,
        "command": "basis",
        "k": basis.k,
        "l": basis.l,
        "lam_w": basis.lam_w,
        "mu_v": basis.mu_v,
        "lam_z": basis.lam_z,
        "invariants": rep,
        "projection": norm,
    }
    write_summary(outdir / "basis_report.json", payload)
    ok = rep["passed"] and norm["non_expansive"]
    _say(quiet, f"basis: k={basis.k} l={basis.l} invariants passed={ok}")
    return EXIT_OK if ok else EXIT_INVARIANT


def _terminal_fields(cfg, ops, k, l):
    """One ladder run at basis sizes (k, l); returns terminal physical fields."""
    sub = copy.deepcopy(cfg)
    sub["discretization"].update(k=int(k), l=int(l))
    system, evo, lifted, state0 = prepare_run(sub, ops)
    result = run(system, state0, lifted, evo)
    return reconstruct_fields(system, result.final_state, lifted, evo.n_steps)


def cmd_converge(cfg, outdir: Path, quiet=True) -> int:
    chash = config_hash(cfg)
    _echo_config(cfg, outdir)
    ops = build_operators(cfg)
    ladder = [(int(k), int(l)) for k, l in cfg["converge"]["ladder"]]
    fields = {pair: _terminal_fields(cfg, ops, *pair) for pair in ladder}
    finest = ladder[-1]

    rows = []
    for pair in ladder[:-1]:
        fa, fb = fields[pair], fields[finest]
        d_theta = float(np.sqrt(ops.M_lumped @ (fa["theta"] - fb["theta"]) ** 2))
        de = fa["epsp"] - fb["epsp"]
        d_epsp = float(np.sqrt(ops.inner_D_quad(de, de)))
        du = fa["u"] - fb["u"]
        d_u = float(np.sqrt(du @ (ops.M_u @ du)))
        rows.append(
            {
                "k": pair[0],
                "l": pair[1],
                "delta_theta": d_theta,
                "delta_epsp": d_epsp,
                "delta_u": d_u,
                "delta_total": float(np.sqrt(d_theta**2 + d_epsp**2 + d_u**2)),
            }
        )
    totals = [r["delta_total"] for r in rows]
    decreasing = bool(all(a > b for a, b in zip(totals, totals[1:])))
    payload = {
        "config_hash": chash,
        "version": __version__,
        "command": "converge",
        "ladder": [list(p) for p in ladder],
        "reference": list(finest),
        "rows": rows,
        "strictly_decreasing": decreasing,
    }
    write_summary(outdir / "converge.json", payload)
    if not quiet:
        print(f"{'k':>4} {'l':>4} {'d_theta':>12} {'d_epsp':>12} {'d_u':>12} {'total':>12}")
        for r in rows:
            print(
                f"{r['k']:>4} {r['l']:>4} {r['delta_theta']:>12.5e} "
                f"{r['delta_epsp']:>12.5e} {r['delta_u']:>12.5e} {r['delta_total']:>12.5e}"
            )
        print(f"strictly decreasing: {decreasing}")
    return EXIT_OK if decreasing else EXIT_INVARIANT


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermovisc",
        description="Two-level Galerkin thermo-visco-elastic evolution",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("run", "advance the evolution and verify the diagnostic suites"),
        ("certify", "certify the configured constitutive law"),
        ("basis", "build, verify and dump the Galerkin basis"),
        ("converge", "two-level refinement ladder"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


_COMMANDS = {
    "run": cmd_run,
    "certify": cmd_certify,
    "basis": cmd_basis,
    "converge": cmd_converge,
}


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        outdir = _outdir(cfg, args.out)
        return _COMMANDS[args.command](cfg, outdir, quiet=args.quiet)
    except (ParseError, ValidationError, BadConfig, BadData, DimensionMismatch,
            EmptyComplement) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverFailure, DomainExit, NonFiniteInput) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except (CertificationFailure, StateCorrupt) as err:
        print(f"invariant violation: {err}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
