"""Batch front end: config ingestion, run orchestration, verification suites.

Subcommands, and the artifact each writes
    run        advance the evolution and stream diagnostics     summary.json
    certify    randomized certificate for the configured law    certification.json
    basis      build, verify and dump the Galerkin basis        basis_report.json
    converge   two-level refinement ladder                      converge.json

``main`` loads the config, echoes it to ``effective_config.json`` and writes
the command's artifact, stamped with ``config_hash``, ``version`` and
``command``: the command's payload, or a failure record when it raised.
Exit codes: 0 all suites pass, 4 a suite fails, and a raised error exits
with its family's code (``errors``: 2 config, 3 solver, 4 invariant).  A
config that cannot be parsed or validated leaves no artifact.  --out or the
THERMOVISC_OUT environment variable override the output directory.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .basis import basis_invariant_report, build_basis, dump_basis, projection_norm_check
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
from .constitutive import certify_assumption1
from .diagnostics import (
    AprioriMonitor,
    RowTables,
    collect_row,
    energy_checks,
    young_constants,
)
# the exit codes are re-exported: they are part of main's contract
from .errors import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, EXIT_SOLVER, Failure  # noqa: F401
from .errors import InvariantError
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
    SnapshotWriter,
    cell_average,
    write_summary,
)
from .tensor import FRAME_RTOL, frame_loss

ENV_OUT = "THERMOVISC_OUT"


def _outdir(cfg, override) -> Path:
    out = override or os.environ.get(ENV_OUT) or cfg["output"]["dir"]
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def build_operators(cfg):
    """Mesh and assembled operators of the configured problem."""
    mesh = build_mesh(cfg["mesh"]["dim"], cfg["mesh"]["extents"], cfg["mesh"]["cells"])
    return assemble(mesh, make_elasticity(cfg))


def _build_basis(cfg, ops):
    disc = cfg["discretization"]
    return build_basis(ops, disc["k"], disc["l"], space=disc["complement_space"])


def prepare_run(cfg, ops):
    """Modal system, evolution config, lift and initial state of one run, on a
    basis that passes its invariant report and a deviator frame that keeps
    every direction its tables use."""
    mesh = ops.mesh
    if (loss := frame_loss(ops.D, mesh.dim, ops.frame)) > FRAME_RTOL:
        raise InvariantError(
            f"the deviator frame leaves out {loss:.3e} of a stress direction the tables use"
        )
    system = ModalSystem(ops, _build_basis(cfg, ops), make_law(cfg))
    if failed := basis_invariant_report(ops, system.basis)["failed"]:
        raise InvariantError(f"basis invariants failed: {', '.join(failed)}")
    disc = cfg["discretization"]
    evo = EvolutionConfig(**{f.name: disc[f.name] for f in dataclasses.fields(EvolutionConfig)})
    lifted = build_lift(
        ops,
        evo.dt * np.arange(evo.n_steps + 1),
        f=make_force(cfg, mesh),
        g=make_boundary_displacement(cfg, mesh),
        g_theta=make_boundary_flux(cfg, mesh),
        theta_tilde0=make_theta_tilde0(cfg, mesh),
    )
    theta0_hom = make_theta0(cfg, mesh) - lifted.theta_tilde[0]
    state0 = initialize(system, theta0_hom, make_epsp0(cfg, ops, system.basis), evo)
    return system, evo, lifted, state0


def cmd_run(cfg, outdir: Path, quiet=True):
    """Advance the evolution, stream the diagnostics and check them."""
    chash = config_hash(cfg)
    ops = build_operators(cfg)
    system, evo, lifted, state0 = prepare_run(cfg, ops)

    law = system.law
    monitor = AprioriMonitor(
        beta=law.beta_coercivity, C=law.C_growth, p=law.p, volume=ops.mesh.volume
    )
    tables = RowTables.build(system, lifted)
    rows = []
    cadence = cfg["output"]["cadence"]
    formats = cfg["output"]["formats"]
    snapshots = SnapshotWriter(outdir, ops.mesh, formats, chash)

    with DiagnosticsWriter(outdir / "diagnostics.csv", chash) as diag:

        def on_step(i, state, rep):
            theta = system.theta_nodal(state.beta) + lifted.theta_tilde[i]
            row = collect_row(tables, state, i, rep, theta)
            rows.append(row)
            diag.write(row)
            # the a-priori bound is a theorem for the homogeneous potential
            # energy (= |delta|^2/2); physical and homogeneous agree exactly
            # for isolated runs
            e_hom = 0.5 * float(state.delta @ state.delta)
            theta_l1 = float(ops.M_lumped @ np.abs(theta))
            if i == 0:
                monitor.start(e_hom, theta_l1)
            else:
                monitor.update(evo.dt, state.t, e_hom, rep.stress_lp, tables.lift_lp[i], theta_l1)
            if formats and (i % cadence == 0 or i == evo.n_steps):
                fields = reconstruct_fields(system, state, lifted, i)
                snapshots.write(
                    i,
                    fields["theta"],
                    fields["u"],
                    {"epsp": cell_average(ops, fields["epsp"]), "stress": cell_average(ops, fields["T"])},
                )

        result = run(system, state0, lifted, evo, on_step=on_step)

    checks = energy_checks(rows, isolated=is_isolated(cfg), solver_tol=evo.solver_tol)
    mon = monitor.summary()
    first, last = rows[0], rows[-1]
    if not quiet:
        print(f"run: {evo.n_steps} steps to t={result.final_state.t:g}")
        print(f"{'quantity':<22} {'initial':>14} {'final':>14}")
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
    return checks["passed"] and mon["satisfied"], {
        "isolated": is_isolated(cfg),
        "n_steps": evo.n_steps,
        "checks": checks,
        "monitor": mon,
        "terminal": {
            "t": result.final_state.t,
            "e_pot": last.e_pot,
            "e_total": last.e_total,
            "theta_min": last.theta_min,
        },
    }


def cmd_certify(cfg, outdir: Path, quiet=True):
    """Certify the configured law; its a-priori bound must be formable, as in ``run``."""
    law = make_law(cfg)
    young_constants(law.beta_coercivity, law.C_growth, law.p)
    cert = cfg["certify"]
    rep = certify_assumption1(
        law,
        sample_count=cert["samples"],
        radius=cert["radius"],
        seed=cfg["seed"],
        theta_values=tuple(cert["thetas"]),
    )
    if not quiet:
        print(f"certify: {law.name} passed={rep.passed}")
    return rep.passed, rep.as_dict()


def cmd_basis(cfg, outdir: Path, quiet=True):
    """Build, check and dump the Galerkin basis."""
    ops = build_operators(cfg)
    basis = _build_basis(cfg, ops)
    rep = basis_invariant_report(ops, basis)
    norm = projection_norm_check(basis, n_fields=1000, seed=cfg["seed"])
    dump_basis(outdir / "basis.npz", basis)
    ok = rep["passed"] and norm["non_expansive"]
    if not quiet:
        print(f"basis: k={basis.k} l={basis.l} invariants passed={ok}")
    return ok, {
        "k": basis.k,
        "l": basis.l,
        "lam_w": basis.lam_w,
        "mu_v": basis.mu_v,
        "lam_z": basis.lam_z,
        "eigensolves": basis.eigensolves,
        "invariants": rep,
        "projection": norm,
    }


def _terminal_fields(cfg, ops, k, l):
    """One ladder run at basis sizes (k, l); returns terminal physical fields."""
    sub = copy.deepcopy(cfg)
    sub["discretization"].update(k=k, l=l)
    system, evo, lifted, state0 = prepare_run(sub, ops)
    result = run(system, state0, lifted, evo)
    return reconstruct_fields(system, result.final_state, lifted, evo.n_steps)


def cmd_converge(cfg, outdir: Path, quiet=True):
    """Run the refinement ladder and compare each rung with the finest."""
    ops = build_operators(cfg)
    ladder = [tuple(pair) for pair in cfg["converge"]["ladder"]]
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
    if not quiet:
        print(f"{'k':>4} {'l':>4} {'d_theta':>12} {'d_epsp':>12} {'d_u':>12} {'total':>12}")
        for r in rows:
            print(
                f"{r['k']:>4} {r['l']:>4} {r['delta_theta']:>12.5e} "
                f"{r['delta_epsp']:>12.5e} {r['delta_u']:>12.5e} {r['delta_total']:>12.5e}"
            )
        print(f"strictly decreasing: {decreasing}")
    return decreasing, {
        "ladder": [list(p) for p in ladder],
        "reference": list(finest),
        "rows": rows,
        "strictly_decreasing": decreasing,
    }


#: each command, the one artifact it writes and its help text
_COMMANDS = {
    "run": (cmd_run, "summary.json", "advance the evolution and verify the diagnostic suites"),
    "certify": (cmd_certify, "certification.json", "certify the configured constitutive law"),
    "basis": (cmd_basis, "basis_report.json", "build, verify and dump the Galerkin basis"),
    "converge": (cmd_converge, "converge.json", "two-level refinement ladder"),
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermovisc",
        description="Two-level Galerkin thermo-visco-elastic evolution",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def _report(err) -> int:
    print(f"{err.label}: {err}", file=sys.stderr)
    return err.exit_code


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    command, artifact, _ = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config)
    except Failure as err:  # no config, nothing to stamp an artifact with
        return _report(err)
    outdir = _outdir(cfg, args.out)
    (outdir / "effective_config.json").write_text(canonical_json(cfg))
    stamp = {"config_hash": config_hash(cfg), "version": __version__, "command": args.command}
    try:
        passed, payload = command(cfg, outdir, quiet=args.quiet)
        code = EXIT_OK if passed else EXIT_INVARIANT
    except Failure as err:
        payload = {**err.record(), "failed": True, "failure": str(err), "checks": {"passed": False}}
        code = _report(err)
    write_summary(outdir / artifact, {**payload, **stamp})
    return code


if __name__ == "__main__":
    sys.exit(main())
