"""Run configuration: JSON loading, validation, and object builders.

A config is a single JSON file with nested sections (mesh, material, data,
discretization, output).  Validation fills defaults, rejects unknown keys,
and collects every violation with its field path instead of stopping at the
first.  The canonical (sorted, defaults-filled) form of the config is what
gets echoed next to run artifacts and hashed into their headers.
"""

from __future__ import annotations

import json
import math
from hashlib import sha256
from pathlib import Path

import numpy as np

from .constitutive import BodnerPartom, Mroz, NortonHoff
from .errors import BadData, ParseError, ValidationError
from .tensor import ElasticityTensor, dev6

DEFAULT_CONFIG = {
    "mesh": {"dim": 2, "extents": [1.0, 1.0], "cells": [8, 8]},
    "material": {
        "elasticity": {"model": "isotropic", "lam": 1.0, "mu": 1.0},
        "law": {"type": "norton_hoff", "c": 1.0, "p": 3.0},
    },
    "data": {
        "f": {"preset": "zero"},
        "g": {"preset": "zero"},
        "g_theta": {"preset": "zero"},
        "theta0": {"preset": "constant", "value": 1.0},
        "epsp0": {"preset": "zero"},
        "theta_tilde0": {"preset": "zero"},
    },
    "discretization": {
        "k": 4,
        "l": 4,
        "dt": 1e-3,
        "n_steps": 100,
        "truncation_level": None,
        "solver_tol": 1e-12,
        "solver_max_iter": 200,
        "complement_space": "deviatoric",
    },
    "certify": {"samples": 10000, "radius": 10.0, "thetas": [0.0, 1.0, 10.0, 100.0]},
    "converge": {"ladder": [[4, 4], [8, 8], [16, 16]]},
    "output": {"cadence": 10, "formats": ["csv"], "dir": "out"},
    "seed": 0,
}

_LAW_KEYS = {
    "norton_hoff": {"type", "c", "p"},
    "mroz": {"type", "g"},
    "bodner_partom": {
        "type",
        "g0",
        "m",
        "A",
        "gamma0",
        "delta0",
        "y0",
        "y_min",
        "y_max",
    },
}

_DATA_PRESETS = {
    "f": {"zero", "constant", "polynomial"},
    "g": {"zero", "affine"},
    "g_theta": {"zero", "constant"},
    "theta0": {"constant", "cosine"},
    "epsp0": {"zero", "complement_mode", "gradient_mode", "constant_deviatoric"},
    "theta_tilde0": {"zero", "constant"},
}

_TIME_KINDS = {"constant", "ramp", "sinusoid", "csv"}


def _is_num(x):
    """A finite JSON number; JSON ``NaN`` and ``Infinity`` are refused."""
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or (isinstance(x, float) and math.isfinite(x))


class _Checker:
    def __init__(self):
        self.errors = []

    def fail(self, path, msg):
        self.errors.append(f"{path}: {msg}")

    def known_keys(self, path, d, allowed):
        for key in d:
            if key not in allowed:
                self.fail(f"{path}.{key}", "unknown key")

    def require(self, path, d, *keys):
        ok = True
        for key in keys:
            if key not in d:
                self.fail(f"{path}.{key}", "required key missing")
                ok = False
        return ok

    def number(self, path, d, key, lo=None, hi=None, strict_lo=False, integer=False):
        v = d.get(key)
        if v is None:
            return None
        if not _is_num(v) or (integer and int(v) != v):
            self.fail(f"{path}.{key}", f"expected {'an integer' if integer else 'a number'}")
            return None
        if lo is not None and (v <= lo if strict_lo else v < lo):
            self.fail(f"{path}.{key}", f"must be {'>' if strict_lo else '>='} {lo}")
            return None
        if hi is not None and v > hi:
            self.fail(f"{path}.{key}", f"must be <= {hi}")
            return None
        return v


# variant-typed nodes are replaced wholesale when the user provides them;
# deep-merging defaults into them would mix fields across variants
_REPLACE_PATHS = {
    ("material", "law"),
    ("material", "elasticity"),
    ("data", "f"),
    ("data", "g"),
    ("data", "g_theta"),
    ("data", "theta0"),
    ("data", "epsp0"),
    ("data", "theta_tilde0"),
    ("converge", "ladder"),
}


def _merge_defaults(user: dict, defaults: dict, path=()) -> dict:
    out = {}
    for key, dv in defaults.items():
        here = path + (key,)
        if (
            key in user
            and isinstance(dv, dict)
            and isinstance(user[key], dict)
            and here not in _REPLACE_PATHS
        ):
            out[key] = _merge_defaults(user[key], dv, here)
        elif key in user:
            out[key] = user[key]
        else:
            out[key] = json.loads(json.dumps(dv))
    for key in user:
        if key not in defaults:
            out[key] = user[key]  # flagged by validation
    return out


def validate_config(raw: dict) -> dict:
    """Defaults-filled, fully validated config dict (or ValidationError)."""
    if not isinstance(raw, dict):
        raise ValidationError(["top level: expected an object"])
    cfg = _merge_defaults(raw, DEFAULT_CONFIG)
    ck = _Checker()
    ck.known_keys("", cfg, set(DEFAULT_CONFIG))

    mesh = cfg["mesh"]
    ck.known_keys("mesh", mesh, {"dim", "extents", "cells"})
    dim = mesh.get("dim")
    if dim not in (2, 3):
        ck.fail("mesh.dim", "must be 2 or 3")
        dim = 2
    for key, kind in (("extents", "number"), ("cells", "integer")):
        v = mesh.get(key)
        if not isinstance(v, list) or len(v) != dim:
            ck.fail(f"mesh.{key}", f"expected a list of length {dim}")
            continue
        for i, x in enumerate(v):
            if kind == "number" and (not _is_num(x) or x <= 0):
                ck.fail(f"mesh.{key}[{i}]", "must be a positive number")
            if kind == "integer" and (not _is_num(x) or int(x) != x or x < 1):
                ck.fail(f"mesh.{key}[{i}]", "must be an integer >= 1")

    mat = cfg["material"]
    ck.known_keys("material", mat, {"elasticity", "law"})
    ela = mat.get("elasticity", {})
    model = ela.get("model")
    if model == "isotropic":
        ck.known_keys("material.elasticity", ela, {"model", "lam", "mu"})
        ck.require("material.elasticity", ela, "lam", "mu")
        ck.number("material.elasticity", ela, "lam", lo=0.0)
        ck.number("material.elasticity", ela, "mu", lo=0.0, strict_lo=True)
    elif model == "voigt":
        ck.known_keys("material.elasticity", ela, {"model", "matrix"})
        ck.require("material.elasticity", ela, "matrix")
        m = ela.get("matrix")
        ok = isinstance(m, list) and len(m) == 6 and all(
            isinstance(r, list) and len(r) == 6 and all(_is_num(x) for x in r) for r in m
        )
        if not ok:
            ck.fail("material.elasticity.matrix", "expected a 6x6 numeric matrix")
    else:
        ck.fail("material.elasticity.model", "must be 'isotropic' or 'voigt'")

    law = mat.get("law", {})
    ltype = law.get("type")
    if ltype not in _LAW_KEYS:
        ck.fail("material.law.type", f"must be one of {sorted(_LAW_KEYS)}")
    else:
        ck.known_keys("material.law", law, _LAW_KEYS[ltype])
        if ltype == "norton_hoff":
            ck.require("material.law", law, "c", "p")
            ck.number("material.law", law, "c", lo=0.0, strict_lo=True)
            ck.number("material.law", law, "p", lo=2.0)
        elif ltype == "mroz":
            ck.require("material.law", law, "g")
            g = law.get("g")
            if not isinstance(g, dict):
                ck.fail("material.law.g", "expected an object")
            else:
                kind = g.get("kind")
                if kind == "constant":
                    ck.known_keys("material.law.g", g, {"kind", "value"})
                    ck.require("material.law.g", g, "value")
                    ck.number("material.law.g", g, "value")
                elif kind == "lorentz":
                    ck.known_keys("material.law.g", g, {"kind", "amplitude", "offset", "width"})
                    ck.require("material.law.g", g, "amplitude", "offset")
                    ck.number("material.law.g", g, "amplitude", lo=0.0)
                    ck.number("material.law.g", g, "offset", lo=0.0, strict_lo=True)
                    ck.number("material.law.g", g, "width", lo=0.0, strict_lo=True)
                elif kind == "table":
                    ck.known_keys("material.law.g", g, {"kind", "thetas", "values"})
                    ck.require("material.law.g", g, "thetas", "values")
                    for key in ("thetas", "values"):
                        v = g.get(key)
                        if not isinstance(v, list) or len(v) < 2 or not all(
                            _is_num(x) for x in v
                        ):
                            ck.fail(
                                f"material.law.g.{key}", "expected a numeric list, length >= 2"
                            )
                else:
                    ck.fail("material.law.g.kind", "must be constant, lorentz or table")
        elif ltype == "bodner_partom":
            ck.number("material.law", law, "g0", lo=0.0, strict_lo=True)
            ck.number("material.law", law, "m", lo=1.0)
            for key in ("A", "gamma0", "delta0"):
                ck.number("material.law", law, key, lo=0.0)
            for key in ("y0", "y_min", "y_max"):
                ck.number("material.law", law, key, lo=0.0, strict_lo=True)

    data = cfg["data"]
    ck.known_keys("data", data, set(DEFAULT_CONFIG["data"]))
    for name, spec in data.items():
        if name not in _DATA_PRESETS:
            continue
        path = f"data.{name}"
        if not isinstance(spec, dict):
            ck.fail(path, "expected an object")
            continue
        allowed = {"preset", "time", "value", "matrix", "index", "amplitude", "mean", "modes"}
        ck.known_keys(path, spec, allowed)
        preset = spec.get("preset")
        if preset not in _DATA_PRESETS[name]:
            ck.fail(f"{path}.preset", f"must be one of {sorted(_DATA_PRESETS[name])}")
        elif preset in ("constant", "constant_deviatoric", "polynomial"):
            if ck.require(path, spec, "value"):
                v = spec["value"]
                if name in ("f",):
                    if not isinstance(v, list) or len(v) < dim or not all(
                        _is_num(x) for x in v
                    ):
                        ck.fail(f"{path}.value", f"expected a numeric list of length >= {dim}")
                elif name == "epsp0":
                    if not isinstance(v, list) or len(v) != 6 or not all(
                        _is_num(x) for x in v
                    ):
                        ck.fail(f"{path}.value", "expected a numeric 6-vector")
                elif not _is_num(v):
                    ck.fail(f"{path}.value", "expected a number")
        elif preset == "affine":
            if ck.require(path, spec, "matrix"):
                m = spec["matrix"]
                ok = isinstance(m, list) and len(m) >= dim and all(
                    isinstance(r, list) and len(r) >= dim and all(_is_num(x) for x in r)
                    for r in m
                )
                if not ok:
                    ck.fail(f"{path}.matrix", f"expected a numeric {dim}x{dim} matrix")
        time = spec.get("time")
        if time is not None:
            if not isinstance(time, dict) or time.get("kind") not in _TIME_KINDS:
                ck.fail(f"{path}.time.kind", f"must be one of {sorted(_TIME_KINDS)}")
            else:
                ck.known_keys(
                    f"{path}.time",
                    time,
                    {"kind", "slope", "intercept", "amplitude", "omega", "phase", "path"},
                )
                if time["kind"] == "csv" and not isinstance(time.get("path"), str):
                    ck.fail(f"{path}.time.path", "csv trajectories need a file path")

    disc = cfg["discretization"]
    ck.known_keys(
        "discretization",
        disc,
        {
            "k",
            "l",
            "dt",
            "n_steps",
            "horizon",
            "truncation_level",
            "solver_tol",
            "solver_max_iter",
            "complement_space",
        },
    )
    ck.number("discretization", disc, "k", lo=1, integer=True)
    ck.number("discretization", disc, "l", lo=1, integer=True)
    dt = ck.number("discretization", disc, "dt", lo=0.0, strict_lo=True)
    ck.number("discretization", disc, "n_steps", lo=0, integer=True)
    ck.number("discretization", disc, "solver_tol", lo=0.0, strict_lo=True)
    ck.number("discretization", disc, "solver_max_iter", lo=1, integer=True)
    if disc.get("truncation_level") is not None:
        ck.number("discretization", disc, "truncation_level", lo=0.0, strict_lo=True)
    if disc.get("complement_space") not in ("deviatoric", "full"):
        ck.fail("discretization.complement_space", "must be 'deviatoric' or 'full'")
    horizon = disc.pop("horizon", None)
    if horizon is not None:
        if not _is_num(horizon) or horizon <= 0:
            ck.fail("discretization.horizon", "must be a positive number")
        elif dt:
            n = round(horizon / dt)
            if abs(n * dt - horizon) > 1e-9 * max(horizon, 1.0):
                ck.fail(
                    "discretization.horizon",
                    f"not an integer multiple of dt (got {horizon}, dt={dt})",
                )
            else:
                disc["n_steps"] = int(n)

    cert = cfg["certify"]
    ck.known_keys("certify", cert, {"samples", "radius", "thetas"})
    ck.number("certify", cert, "samples", lo=1, integer=True)
    ck.number("certify", cert, "radius", lo=0.0, strict_lo=True)
    thetas = cert.get("thetas")
    if not isinstance(thetas, list) or not thetas or not all(_is_num(x) for x in thetas):
        ck.fail("certify.thetas", "expected a non-empty list of finite numbers")

    conv = cfg["converge"]
    ck.known_keys("converge", conv, {"ladder"})
    ladder = conv.get("ladder")
    if (
        not isinstance(ladder, list)
        or len(ladder) < 2
        or not all(
            isinstance(p, list) and len(p) == 2 and all(_is_num(x) and x >= 1 for x in p)
            for p in ladder
        )
    ):
        ck.fail("converge.ladder", "expected a list of >= 2 [k, l] pairs")

    out = cfg["output"]
    ck.known_keys("output", out, {"cadence", "formats", "dir"})
    ck.number("output", out, "cadence", lo=1, integer=True)
    fmts = out.get("formats")
    if not isinstance(fmts, list) or not set(fmts) <= {"csv", "vtk"}:
        ck.fail("output.formats", "expected a list drawn from ['csv', 'vtk']")
    if not isinstance(out.get("dir"), str):
        ck.fail("output.dir", "expected a string")

    if not isinstance(cfg.get("seed"), int) or isinstance(cfg.get("seed"), bool):
        ck.fail("seed", "expected an integer")

    if ck.errors:
        raise ValidationError(ck.errors)
    return cfg


def load_config(path) -> dict:
    """Parse and validate a JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ParseError(f"cannot read config {path}: {err}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"config {path} is not valid JSON: {err}") from None
    return validate_config(raw)


def canonical_json(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, indent=2) + "\n"


def config_hash(cfg: dict) -> str:
    return sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def make_elasticity(cfg: dict) -> ElasticityTensor:
    ela = cfg["material"]["elasticity"]
    if ela["model"] == "isotropic":
        return ElasticityTensor.isotropic(ela["lam"], ela["mu"])
    return ElasticityTensor(np.asarray(ela["matrix"], dtype=float))


def make_law(cfg: dict):
    law = cfg["material"]["law"]
    if law["type"] == "norton_hoff":
        return NortonHoff(c=law["c"], p=law["p"])
    if law["type"] == "mroz":
        g = law["g"]
        if g["kind"] == "constant":
            return Mroz.constant(g["value"])
        if g["kind"] == "lorentz":
            return Mroz.lorentz(g["amplitude"], g["offset"], g.get("width", 1.0))
        return Mroz.table(g["thetas"], g["values"])
    return BodnerPartom(
        g0=law.get("g0", 1.0),
        m=law.get("m", 2.0),
        A=law.get("A", 0.0),
        gamma0=law.get("gamma0", 0.0),
        delta0=law.get("delta0", 0.0),
        y0=law.get("y0", 1.0),
        y_min=law.get("y_min", 0.5),
        y_max=law.get("y_max", 2.0),
    )


def _time_factor(spec: dict):
    time = spec.get("time")
    if time is None or time.get("kind") == "constant":
        return lambda t: 1.0
    if time["kind"] == "ramp":
        slope = float(time.get("slope", 1.0))
        intercept = float(time.get("intercept", 0.0))
        return lambda t: intercept + slope * t
    if time["kind"] == "csv":
        # two-column (t, factor) trajectory, linearly interpolated between
        # samples and extended constantly outside them
        try:
            table = np.loadtxt(time["path"], delimiter=",", comments="#", ndmin=2)
        except OSError as err:
            raise BadData(f"cannot read trajectory {time['path']}: {err}") from None
        if table.ndim != 2 or table.shape[1] != 2 or np.any(np.diff(table[:, 0]) <= 0):
            raise BadData(
                f"trajectory {time['path']} must be two columns with increasing times"
            )
        ts, vs = table[:, 0], table[:, 1]
        return lambda t: float(np.interp(t, ts, vs))
    amp = float(time.get("amplitude", 1.0))
    omega = float(time.get("omega", 1.0))
    phase = float(time.get("phase", 0.0))
    return lambda t: amp * np.sin(omega * t + phase)


def make_force(cfg: dict, mesh):
    """``(factor, base)``: the nodal force density at time t is factor(t) * base."""
    spec = cfg["data"]["f"]
    n, dim = mesh.n_nodes, mesh.dim
    if spec["preset"] == "zero":
        base = np.zeros((n, dim))
    elif spec["preset"] == "constant":
        base = np.tile(np.asarray(spec["value"], dtype=float)[:dim], (n, 1))
    else:  # polynomial: componentwise value[c] * (1 + x_0) for mild asymmetry
        val = np.asarray(spec["value"], dtype=float)[:dim]
        base = val[None, :] * (1.0 + mesh.nodes[:, :1])
    return _time_factor(spec), base


def make_boundary_displacement(cfg: dict, mesh):
    """``(factor, base)``: the boundary displacement at time t is factor(t) * base."""
    spec = cfg["data"]["g"]
    n, dim = mesh.n_nodes, mesh.dim
    if spec["preset"] == "zero":
        base = np.zeros((n, dim))
    else:  # affine: x -> A x
        A = np.asarray(spec["matrix"], dtype=float)[:dim, :dim]
        base = mesh.nodes @ A.T
    return _time_factor(spec), base


def make_boundary_flux(cfg: dict, mesh):
    spec = cfg["data"]["g_theta"]
    n = mesh.n_nodes
    if spec["preset"] == "zero":
        base = np.zeros(n)
    else:
        base = np.full(n, float(spec["value"]))
    factor = _time_factor(spec)
    return (lambda t: factor(t) * base), bool(np.abs(base).max() > 0)


def make_theta0(cfg: dict, mesh) -> np.ndarray:
    spec = cfg["data"]["theta0"]
    n = mesh.n_nodes
    if spec["preset"] == "constant":
        return np.full(n, float(spec["value"]))
    mean = float(spec.get("mean", 1.0))
    amp = float(spec.get("amplitude", 0.1))
    modes = spec.get("modes", [1] * mesh.dim)
    field = np.full(n, mean)
    wave = np.ones(n)
    for a in range(mesh.dim):
        wave = wave * np.cos(np.pi * modes[a] * mesh.nodes[:, a] / mesh.extents[a])
    return field + amp * wave


def make_theta_tilde0(cfg: dict, mesh) -> np.ndarray:
    spec = cfg["data"]["theta_tilde0"]
    if spec["preset"] == "zero":
        return np.zeros(mesh.n_nodes)
    return np.full(mesh.n_nodes, float(spec["value"]))


def make_epsp0(cfg: dict, ops, fields) -> np.ndarray:
    spec = cfg["data"]["epsp0"]
    nq = ops.wq.size
    if spec["preset"] == "zero":
        return np.zeros((nq, 6))
    if spec["preset"] == "complement_mode":
        return float(spec.get("amplitude", 0.1)) * fields.zeta[int(spec.get("index", 0))]
    if spec["preset"] == "gradient_mode":
        return float(spec.get("amplitude", 0.1)) * fields.eps_w[int(spec.get("index", 0))]
    base = dev6(np.asarray(spec["value"], dtype=float))
    return np.tile(base, (nq, 1))


def is_isolated(cfg: dict) -> bool:
    """True when the data describes an isolated system (no force, no boundary
    displacement, no heat flux, no auxiliary heat lift)."""
    d = cfg["data"]
    return (
        d["f"]["preset"] == "zero"
        and d["g"]["preset"] == "zero"
        and d["g_theta"]["preset"] == "zero"
        and d["theta_tilde0"]["preset"] == "zero"
    )
