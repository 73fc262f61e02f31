"""Run configuration: JSON loading, validation, and object builders.

A config is a single JSON file with nested sections (mesh, material, data,
discretization, certify, converge, output) and a seed.  ``SCHEMA`` states
each key once, as ``key: (check, default)``.  A fixed section is a table of
keys; a variant node (the elasticity model, the law and Mroz's ``g``, each
data spec and its ``time`` factor) takes the table of its tag, and a key
foreign to that table is rejected.

Validation fills the defaults of the fixed sections, takes variant nodes
wholesale, and collects every violation (unknown key, missing required key,
failed check) with its field path instead of stopping at the first.  The
canonical (sorted, defaults-filled) form of the config is what gets echoed
next to run artifacts and hashed into their headers, so defaults of variant
nodes are never written into it: the builders read them from the table.
Law keys have no table default; ``make_law`` passes the given keys to the
law constructor, whose signature holds the defaults.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

import numpy as np

from .constitutive import BodnerPartom, Mroz, NortonHoff
from .errors import BadData, ParseError, ValidationError
from .tensor import ElasticityTensor, dev6

#: default of a key that must be given
REQUIRED = object()
#: default of a key that may be left out and gets no default from the table
OPTIONAL = object()


@dataclass(frozen=True)
class _Variant:
    """A node whose keys are those of ``cases[node[tag]]``."""

    tag: str
    cases: dict


def _is_num(x):
    """A finite JSON number; NaN, Infinity and integers past the float range are refused."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _list_of(v, lo, hi=math.inf, item=_is_num):
    return isinstance(v, list) and lo <= len(v) <= hi and all(item(x) for x in v)


def _rule(msg, pred):
    """A check: None when ``pred(value, ctx)`` holds, else ``msg`` filled in from ctx.

    ``ctx`` holds the mesh ``dim`` and the basis size ``l`` (inf when invalid).
    """
    return lambda v, ctx: None if pred(v, ctx) else msg.format(**ctx)


def _num(lo=None, strict=False, integer=False):
    bound = "" if lo is None else f" {'>' if strict else '>='} {lo}"
    return _rule(
        f"expected {'an integer' if integer else 'a number'}{bound}",
        lambda v, ctx: (_is_int(v) if integer else _is_num(v))
        and (lo is None or (v > lo if strict else v >= lo)),
    )


def _one_of(*choices):
    return _rule(
        f"must be one of {list(choices)}",
        lambda v, ctx: any(type(v) is type(c) and v == c for c in choices),
    )


_NUM, _POS, _NONNEG = _num(), _num(0, strict=True), _num(0)
_COUNT, _DIM = _num(1, integer=True), _one_of(2, 3)
_STR = _rule("expected a string", lambda v, ctx: isinstance(v, str))
_TABLE = _rule("expected a numeric list, length >= 2", lambda v, ctx: _list_of(v, 2))
_FORCE = _rule(
    "expected a numeric list of length >= {dim}", lambda v, ctx: _list_of(v, ctx["dim"])
)

_TIME = _Variant("kind", {
    "constant": {},
    "ramp": {"slope": (_NUM, 1.0), "intercept": (_NUM, 0.0)},
    "sinusoid": {"amplitude": (_NUM, 1.0), "omega": (_NUM, 1.0), "phase": (_NUM, 0.0)},
    "csv": {"path": (_STR, REQUIRED)},
})
_TIMED = {"time": (_TIME, OPTIONAL)}  # only f, g and g_theta vary in time

_THETA0 = _Variant("preset", {
    "constant": {"value": (_NUM, REQUIRED)},
    # mean + amplitude * prod_a cos(pi modes[a] x_a / extents[a]); the default
    # is mode 1 on every axis
    "cosine": {
        "mean": (_NUM, 1.0),
        "amplitude": (_NUM, 0.1),
        "modes": (_rule("expected a numeric list of length {dim}",
                        lambda v, ctx: _list_of(v, ctx["dim"], ctx["dim"])), 1),
    },
})

_EPSP0 = _Variant("preset", {
    "zero": {},
    "complement_mode": {"index": (_rule("expected an integer in [0, {l})", lambda v, ctx: (
        _is_int(v) and 0 <= v < ctx["l"])), 0), "amplitude": (_NUM, 0.1)},
    "constant_deviatoric": {
        "value": (_rule("expected a numeric 6-vector", lambda v, ctx: _list_of(v, 6, 6)), REQUIRED)
    },
})

_LAW = _Variant("type", {
    "norton_hoff": {"c": (_POS, REQUIRED), "p": (_num(2), REQUIRED)},
    "mroz": {"g": (_Variant("kind", {
        "constant": {"value": (_NUM, REQUIRED)},
        "lorentz": {
            "amplitude": (_NONNEG, REQUIRED), "offset": (_POS, REQUIRED), "width": (_POS, OPTIONAL)
        },
        "table": {"thetas": (_TABLE, REQUIRED), "values": (_TABLE, REQUIRED)},
    }), REQUIRED)},
    "bodner_partom": {
        "g0": (_POS, OPTIONAL), "m": (_num(1), OPTIONAL),
        **{key: (_NONNEG, OPTIONAL) for key in ("A", "gamma0", "delta0")},
        **{key: (_POS, OPTIONAL) for key in ("y0", "y_min", "y_max")},
    },
})

SCHEMA = {
    "mesh": ({
        "dim": (_DIM, 2),
        "extents": (_rule("expected a list of {dim} positive numbers", lambda v, ctx: _list_of(
            v, ctx["dim"], ctx["dim"], lambda x: _is_num(x) and x > 0)), [1.0, 1.0]),
        "cells": (_rule("expected a list of {dim} integers >= 1", lambda v, ctx: _list_of(
            v, ctx["dim"], ctx["dim"], lambda x: _is_int(x) and x >= 1)), [8, 8]),
    }, {}),
    "material": ({
        "elasticity": (_Variant("model", {
            "isotropic": {"lam": (_NONNEG, REQUIRED), "mu": (_POS, REQUIRED)},
            "voigt": {"matrix": (_rule("expected a 6x6 numeric matrix", lambda v, ctx: _list_of(
                v, 6, 6, lambda row: _list_of(row, 6, 6))), REQUIRED)},
        }), {"model": "isotropic", "lam": 1.0, "mu": 1.0}),
        "law": (_LAW, {"type": "norton_hoff", "c": 1.0, "p": 3.0}),
    }, {}),
    "data": ({
        "f": (_Variant("preset", {
            "zero": _TIMED,
            "constant": {"value": (_FORCE, REQUIRED), **_TIMED},
            "polynomial": {"value": (_FORCE, REQUIRED), **_TIMED},
        }), {"preset": "zero"}),
        "g": (_Variant("preset", {
            "zero": _TIMED,
            "affine": {"matrix": (_rule("expected a numeric {dim}x{dim} matrix", lambda v, ctx: (
                _list_of(v, ctx["dim"], item=lambda row: _list_of(row, ctx["dim"])))), REQUIRED),
                **_TIMED},
        }), {"preset": "zero"}),
        "g_theta": (_Variant("preset", {
            "zero": _TIMED, "constant": {"value": (_NUM, REQUIRED), **_TIMED},
        }), {"preset": "zero"}),
        "theta0": (_THETA0, {"preset": "constant", "value": 1.0}),
        "epsp0": (_EPSP0, {"preset": "zero"}),
        "theta_tilde0": (_Variant("preset", {
            "zero": {}, "constant": {"value": (_NUM, REQUIRED)},
        }), {"preset": "zero"}),
    }, {}),
    "discretization": ({
        "k": (_COUNT, 4),
        "l": (_COUNT, 4),
        "dt": (_POS, 1e-3),
        "n_steps": (_num(0, integer=True), 100),
        "horizon": (_POS, OPTIONAL),  # replaced by the n_steps it spans
        "truncation_level": (_rule("expected null or a number > 0", lambda v, ctx: (
            v is None or (_is_num(v) and v > 0))), None),
        "solver_tol": (_POS, 1e-12),
        "solver_max_iter": (_COUNT, 200),
        "complement_space": (_one_of("deviatoric", "full"), "deviatoric"),
    }, {}),
    "certify": ({
        "samples": (_COUNT, 10000),
        "radius": (_POS, 10.0),
        "thetas": (_rule("expected a non-empty list of finite numbers", lambda v, ctx: (
            _list_of(v, 1))), [0.0, 1.0, 10.0, 100.0]),
    }, {}),
    "converge": ({
        "ladder": (_rule("expected a list of >= 2 [k, l] integer pairs", lambda v, ctx: _list_of(
            v, 2, item=lambda kl: _list_of(kl, 2, 2, lambda x: _is_int(x) and x >= 1))),
            [[4, 4], [8, 8], [16, 16]]),
    }, {}),
    "output": ({
        "cadence": (_COUNT, 10),
        "formats": (_rule("expected a list drawn from ['csv', 'vtk']", lambda v, ctx: _list_of(
            v, 0, item=lambda x: x in ("csv", "vtk"))), ["csv"]),
        "dir": (_STR, "out"),
    }, {}),
    "seed": (_num(0, integer=True), 0),
}


def _has_default(default) -> bool:
    return default is not REQUIRED and default is not OPTIONAL


def _merge_defaults(user: dict, table: dict) -> dict:
    """``user`` with the defaults of a fixed table filled in, recursively.

    Variant nodes and values given by the user are taken wholesale; keys the
    table does not know are kept for the walk to report.
    """
    out = dict(user)
    for key, (check, default) in table.items():
        value = user.get(key, default)
        if isinstance(check, dict) and isinstance(value, dict):
            out[key] = _merge_defaults(value, check)
        elif key not in user and _has_default(default):
            out[key] = copy.deepcopy(default)
    return out


def _walk(errors: list, path: str, value, node, ctx) -> None:
    """Append to ``errors`` every violation of ``value`` against ``node``."""
    if not isinstance(value, dict):
        errors.append(f"{path}: expected an object")
        return
    tag, table = None, node
    if isinstance(node, _Variant):
        tag = node.tag
        if not isinstance(value.get(tag), str) or value[tag] not in node.cases:
            errors.append(f"{path}.{tag}: must be one of {sorted(node.cases)}")
            return
        table = node.cases[value[tag]]
    prefix = f"{path}." if path else ""
    errors.extend(f"{prefix}{key}: unknown key" for key in value if key not in table and key != tag)
    for key, (check, default) in table.items():
        if key not in value:
            if default is REQUIRED:
                errors.append(f"{prefix}{key}: required key missing")
        elif isinstance(check, (dict, _Variant)):
            _walk(errors, prefix + key, value[key], check, ctx)
        elif (msg := check(value[key], ctx)) is not None:
            errors.append(f"{prefix}{key}: {msg}")


def validate_config(raw: dict) -> dict:
    """Defaults-filled, fully validated config dict (or ValidationError)."""
    if not isinstance(raw, dict):
        raise ValidationError(["top level: expected an object"])
    cfg = _merge_defaults(raw, SCHEMA)
    mesh, disc = (d if isinstance(d, dict) else {} for d in (cfg["mesh"], cfg["discretization"]))
    ctx = {"dim": 2}
    if _DIM(mesh.get("dim"), ctx) is None:
        ctx["dim"] = mesh["dim"]
    ctx["l"] = disc["l"] if _COUNT(disc.get("l"), ctx) is None else math.inf
    errors = []
    _walk(errors, "", cfg, SCHEMA, ctx)

    # the user's own keys: the merge has already filled n_steps
    given = raw.get("discretization")
    horizon, dt = disc.pop("horizon", None), disc.get("dt")
    if horizon is not None and isinstance(given, dict) and "n_steps" in given:
        errors.append("discretization: n_steps and horizon both given; give one of them")
    elif _POS(horizon, ctx) is None and _POS(dt, ctx) is None:
        n = horizon / dt
        if not math.isfinite(n) or abs(round(n) * dt - horizon) > 1e-9 * max(horizon, 1.0):
            errors.append(
                f"discretization.horizon: not an integer multiple of dt (got {horizon}, dt={dt})"
            )
        else:
            disc["n_steps"] = round(n)

    # the constructors check what couples keys (y_min <= y0 <= y_max,
    # increasing table thetas, a positive definite matrix)
    if not any(e.startswith("material") for e in errors):
        for path, build in (("material.elasticity", make_elasticity), ("material.law", make_law)):
            try:
                build(cfg)
            except BadData as err:
                errors.append(f"{path}: {err}")

    if errors:
        raise ValidationError(errors)
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

def _filled(spec: dict, node: _Variant) -> dict:
    """A validated variant ``spec`` with the table defaults of its case filled in."""
    table = node.cases[spec[node.tag]]
    return {**{k: d for k, (_, d) in table.items() if _has_default(d)}, **spec}


def make_elasticity(cfg: dict) -> ElasticityTensor:
    ela = cfg["material"]["elasticity"]
    if ela["model"] == "isotropic":
        return ElasticityTensor.isotropic(ela["lam"], ela["mu"])
    return ElasticityTensor(np.asarray(ela["matrix"], dtype=float))


def make_law(cfg: dict):
    """The configured law; its keys go to the constructor as given."""
    kwargs = dict(cfg["material"]["law"])
    law = kwargs.pop("type")
    if law == "mroz":
        g = dict(kwargs["g"])
        kind = g.pop("kind")
        return {"constant": Mroz.constant, "lorentz": Mroz.lorentz, "table": Mroz.table}[kind](**g)
    return {"norton_hoff": NortonHoff, "bodner_partom": BodnerPartom}[law](**kwargs)


def _time_factor(spec: dict):
    if "time" not in spec:
        return lambda t: 1.0
    time = _filled(spec["time"], _TIME)
    if time["kind"] == "constant":
        return lambda t: 1.0
    if time["kind"] == "ramp":
        slope = float(time["slope"])
        intercept = float(time["intercept"])
        return lambda t: intercept + slope * t
    if time["kind"] == "csv":
        # two-column (t, factor) trajectory, linearly interpolated between
        # samples and extended constantly outside them
        try:
            table = np.loadtxt(time["path"], delimiter=",", comments="#", ndmin=2)
        except (OSError, ValueError) as err:
            raise BadData(f"cannot read trajectory {time['path']}: {err}") from None
        if table.ndim != 2 or table.shape[1] != 2 or np.any(np.diff(table[:, 0]) <= 0):
            raise BadData(
                f"trajectory {time['path']} must be two columns with increasing times"
            )
        ts, vs = table[:, 0], table[:, 1]
        return lambda t: float(np.interp(t, ts, vs))
    amp = float(time["amplitude"])
    omega = float(time["omega"])
    phase = float(time["phase"])
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
    else:  # affine: x -> A x, from the leading dim x dim block of the matrix
        A = np.array([row[:dim] for row in spec["matrix"][:dim]], dtype=float)
        base = mesh.nodes @ A.T
    return _time_factor(spec), base


def make_boundary_flux(cfg: dict, mesh):
    """``(factor, base)``: the nodal heat flux at time t is factor(t) * base."""
    spec = cfg["data"]["g_theta"]
    n = mesh.n_nodes
    if spec["preset"] == "zero":
        base = np.zeros(n)
    else:
        base = np.full(n, float(spec["value"]))
    return _time_factor(spec), base


def make_theta0(cfg: dict, mesh) -> np.ndarray:
    spec = _filled(cfg["data"]["theta0"], _THETA0)
    n = mesh.n_nodes
    if spec["preset"] == "constant":
        return np.full(n, float(spec["value"]))
    modes = np.full(mesh.dim, spec["modes"], dtype=float)
    field = np.full(n, float(spec["mean"]))
    wave = np.ones(n)
    for a in range(mesh.dim):
        wave = wave * np.cos(np.pi * modes[a] * mesh.nodes[:, a] / mesh.extents[a])
    return field + float(spec["amplitude"]) * wave


def make_theta_tilde0(cfg: dict, mesh) -> np.ndarray:
    spec = cfg["data"]["theta_tilde0"]
    if spec["preset"] == "zero":
        return np.zeros(mesh.n_nodes)
    return np.full(mesh.n_nodes, float(spec["value"]))


def make_epsp0(cfg: dict, ops, basis) -> np.ndarray:
    spec = _filled(cfg["data"]["epsp0"], _EPSP0)
    nq = ops.wq.size
    if spec["preset"] == "zero":
        return np.zeros((nq, 6))
    if spec["preset"] == "complement_mode":
        return float(spec["amplitude"]) * basis.zeta[spec["index"]]
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
