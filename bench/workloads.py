"""Seeded config generators for the benchmark workloads.

Each workload is a function of the seed that returns a complete
``thermovisc`` config.  The seed scales a few data amplitudes by at most
``JITTER`` (a few percent); mesh, basis sizes, law, time grid and output
cadence are fixed, so every seed keeps the workload's layer mix and about
the same amount of work.  The program only ever sees the generated JSON.
"""

from __future__ import annotations

import copy
import random

#: largest relative change the seed makes to a data amplitude
JITTER = 0.03


def _scale(rng: random.Random) -> float:
    return 1.0 + JITTER * rng.uniform(-1.0, 1.0)


def creep_stiff(rng: random.Random) -> dict:
    # A sustained force keeps every implicit step stiff (dt=0.3, c=4); an
    # isolated run relaxes toward rest and its iteration counts fall.  The
    # seed touches only the initial temperature: Norton-Hoff ignores theta,
    # so the mechanical fixed-point work is the same for every seed.  The
    # force is not jittered because the damped Picard iteration count is
    # chaotic in it (about +-30% total iterations for +-2% force).
    return {
        "mesh": {"dim": 2, "extents": [1.0, 1.0], "cells": [12, 12]},
        "material": {
            "elasticity": {"model": "isotropic", "lam": 1.0, "mu": 1.0},
            "law": {"type": "norton_hoff", "c": 4.0, "p": 3.0},
        },
        "data": {
            "f": {"preset": "polynomial", "value": [2.0, 2.0]},
            "theta0": {
                "preset": "cosine",
                "mean": 1.0 * _scale(rng),
                "amplitude": 0.2 * _scale(rng),
                "modes": [1, 1],
            },
        },
        "discretization": {"k": 16, "l": 16, "dt": 0.3, "n_steps": 300},
        "output": {"cadence": 100, "formats": ["csv"], "dir": "out"},
    }


def ramp_lift(rng: random.Random) -> dict:
    # A time-ramped force makes the elastic lift time dependent (one solve per
    # time level) and a pulsing flux drives the heat lift; CSV and VTK
    # snapshots at a cadence exercise the writers.
    return {
        "mesh": {"dim": 2, "extents": [1.0, 1.0], "cells": [24, 24]},
        "material": {
            "elasticity": {"model": "isotropic", "lam": 1.0, "mu": 1.0},
            "law": {"type": "norton_hoff", "c": 1.0, "p": 3.0},
        },
        "data": {
            "f": {
                "preset": "polynomial",
                "value": [0.4 * _scale(rng), 0.6 * _scale(rng)],
                "time": {"kind": "ramp", "slope": 5.0, "intercept": 0.0},
            },
            "g_theta": {
                "preset": "constant",
                "value": 0.2 * _scale(rng),
                "time": {"kind": "sinusoid", "amplitude": 1.0, "omega": 30.0},
            },
            "theta0": {"preset": "constant", "value": 1.0 * _scale(rng)},
        },
        "discretization": {"k": 8, "l": 8, "dt": 1e-3, "n_steps": 200},
        "output": {"cadence": 50, "formats": ["csv", "vtk"], "dir": "out"},
    }


def basis_3d(rng: random.Random) -> dict:
    # Isolated 3D run: no lift and cheap steps, so the complement strain
    # eigenbasis (2560 strain dofs at 7^3) dominates the wall time.
    return {
        "mesh": {"dim": 3, "extents": [1.0, 1.0, 1.0], "cells": [7, 7, 7]},
        "material": {
            "elasticity": {"model": "isotropic", "lam": 1.0, "mu": 1.0},
            "law": {"type": "norton_hoff", "c": 1.0, "p": 3.0},
        },
        "data": {
            "theta0": {"preset": "constant", "value": 2.0 * _scale(rng)},
            "epsp0": {
                "preset": "complement_mode",
                "index": 0,
                "amplitude": 0.05 * _scale(rng),
            },
        },
        "discretization": {"k": 12, "l": 12, "dt": 1e-3, "n_steps": 100},
        "output": {"cadence": 50, "formats": ["csv"], "dir": "out"},
    }


WORKLOADS = {"creep_stiff": creep_stiff, "ramp_lift": ramp_lift, "basis_3d": basis_3d}


def generate(name: str, seed: int) -> dict:
    """The config of workload ``name`` for ``seed``; equal seeds give equal configs."""
    return WORKLOADS[name](random.Random(f"{name}/{seed}"))


def warmup_config(cfg: dict) -> dict:
    """A few steps of the same workload on a 4-cell-per-side mesh.

    It loads the same libraries and runs the same solver paths as the full
    config, at a cost of well under a second.
    """
    small = copy.deepcopy(cfg)
    small["mesh"]["cells"] = [4] * small["mesh"]["dim"]
    small["discretization"]["n_steps"] = 5
    return small
