"""Scenario files: sectioned key-value configs plus JSON custom models.

A scenario is an INI-style file with sections [model], [apparatus], [run] and
optionally [sweep] and [verify]:

    [model]
    name = gad                  ; or file = my_model.json (path relative
    theta = 0.3                 ;  to the scenario file)
    observable = excited        ; comma list, one per parameter

    [apparatus]
    sigma = 0.1                 ; grids default to +-6 sigma' / 161 momentum
    p_points = 161              ;  nodes and +-8 sigma / 2048 position nodes

    [run]
    t = 200
    n = 1
    link = identity             ; or steady (exact, one observable per parameter)
    trials = 1000
    seed = 123                  ; mandatory, never defaulted from the clock
    out_dir = out               ; optional

    [sweep]
    axis = N                    ; N, T or theta
    values = 1, 2, 5, 10

The keys above, plus [apparatus] p_halfwidth/q_halfwidth/q_points and [run]
n_over_t, are the only ones accepted; [verify] takes only checks, a subset of
the ten with no repeats (the suite's operating points are constants in
acceptance, like its tolerances). Every value is parsed when the file loads,
whatever the command: an unknown section or key, or a value that does not
parse, is an error, not a silently ignored typo.

Custom models are JSON files: complex matrices are nested [re, im] pairs, and
jump rates are affine in the parameters, {"const": c, "slope_per_param":
[s_1, ...]} meaning rate(theta) = c + s . theta. Rates must be nonnegative on
the whole (box) domain, which for affine maps is checked at the corners.
Unknown keys are errors here too: at the top level, in a jump and in a rate,
and so are true and false wherever a number belongs.

Registered model names: gad, product_gad_2, product_gad_3. Registered
observables: "excited" (the |0><0| projector) and "excited@k" for site k of a
product model; custom models may name additional observables in the file.
"""

import configparser
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .models import (
    EXCITED_PROJECTOR,
    LindbladModel,
    _embed,
    gad_model,
    product_gad_model,
)
from .pointer import ApparatusConfig, DamRun, default_apparatus

__all__ = [
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "load_model_file",
    "scenario_runs",
]


class ScenarioError(ValueError):
    """Configuration problem: bad key, bad value, bad model file."""


def _fail(path, msg):
    raise ScenarioError(f"{path}: {msg}")


# --------------------------------------------------------------- JSON models


_MODEL_KEYS = ("name", "dim", "param_domain", "hamiltonian", "jumps", "observables")
_JUMP_KEYS = ("matrix", "rate")
_RATE_KEYS = ("const", "slope_per_param")


def _check_keys(obj, accepted, where, path):
    for key in obj:
        if key not in accepted:
            _fail(
                path,
                f"{where}unknown key {key!r} (keys: {', '.join(sorted(accepted))})",
            )


def _refuse_bools(node, where, path):
    """Fail at the first JSON true or false in ``node``: float() reads 1, 0."""
    if isinstance(node, bool):
        _fail(path, f"{where}: expected a number, got {json.dumps(node)}")
    if isinstance(node, list):
        for i, child in enumerate(node):
            _refuse_bools(child, f"{where}[{i}]", path)
    elif isinstance(node, dict):
        for key, child in node.items():
            _refuse_bools(child, f"{where}.{key}" if where else key, path)


def _parse_cmatrix(raw, dim, where, path):
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        _fail(path, f"{where}: expected nested [re, im] arrays")
    if arr.shape != (dim, dim, 2):
        _fail(path, f"{where}: expected shape {dim}x{dim}x2, got {list(arr.shape)}")
    return arr[..., 0] + 1j * arr[..., 1]


def load_model_file(path):
    """Parse a JSON model file into (LindbladModel, named observables)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    try:
        # NaN, Infinity and overflowing literals such as 1e999 or 1 followed
        # by 400 zeros are refused
        doc = json.loads(
            text, parse_constant=_float, parse_float=_float, parse_int=_json_int
        )
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        _fail(path, "top level must be an object")
    _check_keys(doc, _MODEL_KEYS, "", path)

    name = doc.get("name")
    if not isinstance(name, str) or not name:
        _fail(path, "missing model name")
    _refuse_bools(doc, "", path)
    dim = doc.get("dim")
    if not isinstance(dim, int) or not 2 <= dim <= 8:
        _fail(path, "dim must be an integer in [2, 8]")
    domain_raw = doc.get("param_domain")
    if not isinstance(domain_raw, list) or not domain_raw:
        _fail(path, "param_domain must be a nonempty list of [lo, hi] pairs")
    domain = []
    for k, pair in enumerate(domain_raw):
        try:
            if not isinstance(pair, list) or len(pair) != 2:
                raise TypeError
            lo, hi = float(pair[0]), float(pair[1])
        except (TypeError, ValueError):
            _fail(path, f"param_domain[{k}]: expected [lo, hi]")
        if not lo < hi:
            _fail(path, f"param_domain[{k}]: need lo < hi")
        domain.append((lo, hi))
    m = len(domain)

    h = None
    if doc.get("hamiltonian") is not None:
        h = _parse_cmatrix(doc["hamiltonian"], dim, "hamiltonian", path)
    jumps_raw = doc.get("jumps")
    if not isinstance(jumps_raw, list) or not jumps_raw:
        _fail(path, "jumps must be a nonempty list")
    jump_ops = []
    rate_consts = []
    rate_slopes = []
    for k, entry in enumerate(jumps_raw):
        if not isinstance(entry, dict) or "matrix" not in entry or "rate" not in entry:
            _fail(path, f"jumps[{k}]: need matrix and rate")
        _check_keys(entry, _JUMP_KEYS, f"jumps[{k}]: ", path)
        jump_ops.append(_parse_cmatrix(entry["matrix"], dim, f"jumps[{k}].matrix", path))
        rate = entry["rate"]
        if not isinstance(rate, dict):
            _fail(path, f"jumps[{k}].rate: expected {{const, slope_per_param}}")
        _check_keys(rate, _RATE_KEYS, f"jumps[{k}].rate: ", path)
        try:
            const = float(rate["const"])
            slope = np.asarray(rate["slope_per_param"], dtype=float)
        except (KeyError, TypeError, ValueError):
            _fail(path, f"jumps[{k}].rate: expected {{const, slope_per_param}}")
        if slope.shape != (m,):
            _fail(path, f"jumps[{k}].rate: slope_per_param must have {m} entries")
        rate_consts.append(const)
        rate_slopes.append(slope)

    # affine rates are nonnegative on the box iff nonnegative at its corners
    for k in range(len(jump_ops)):
        for corner in itertools.product(*domain):
            val = rate_consts[k] + rate_slopes[k] @ np.asarray(corner)
            if val < 0:
                _fail(
                    path,
                    f"jumps[{k}]: rate {val:.3g} negative at domain corner "
                    f"{list(corner)}",
                )

    observables_raw = doc.get("observables", {})
    if not isinstance(observables_raw, dict):
        _fail(path, "observables must be an object of named matrices")
    observables = {}
    for oname, raw in observables_raw.items():
        obs = _parse_cmatrix(raw, dim, f"observables[{oname}]", path)
        if np.abs(obs - obs.conj().T).max() > 1e-10:
            _fail(path, f"observables[{oname}]: not Hermitian")
        observables[oname] = obs

    try:
        model = LindbladModel(
            name=name,
            param_domain=tuple(domain),
            hamiltonian=h,
            jumps=tuple(zip(jump_ops, rate_consts, rate_slopes)),
        )
    except ValueError as exc:
        _fail(path, str(exc))
    return model, observables


# ----------------------------------------------------------- INI scenarios


_REGISTERED = {
    "gad": gad_model,
    "product_gad_2": lambda: product_gad_model(2),
    "product_gad_3": lambda: product_gad_model(3),
}


def _resolve_observable(spec, model, named, path):
    spec = spec.strip()
    if spec in named:
        return spec, named[spec]
    base, _, site = spec.partition("@")
    if base == "excited":
        if site:
            try:
                k = int(site)
            except ValueError:
                _fail(path, f"observable {spec!r}: bad site index")
            sites = round(np.log2(model.system_dim))
            if not 1 <= k <= sites or 2**sites != model.system_dim:
                _fail(path, f"observable {spec!r}: site out of range")
            return spec, _embed(EXCITED_PROJECTOR.copy(), k - 1, sites)
        if model.system_dim != 2:
            _fail(path, f"observable {spec!r} needs a site index on this model")
        return spec, EXCITED_PROJECTOR.copy()
    _fail(path, f"unknown observable {spec!r}")


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: model, operating point, apparatus and execution keys."""

    path: str
    sha256: str
    model: LindbladModel
    theta: np.ndarray
    observables: tuple  # of (label, matrix)
    link_kind: str
    apparatus: ApparatusConfig
    t: float
    n: float
    n_over_t: Optional[float]
    trials: int
    seed: int
    sweep_axis: Optional[str]
    sweep_values: Optional[tuple]
    out_dir: str
    checks: Optional[tuple]


def _float(raw):
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError(f"non-finite value {raw!r}")
    return val


def _json_int(raw):
    val = int(raw)
    try:
        float(val)
    except OverflowError:
        digits = len(raw.lstrip("-"))
        raise ValueError(f"integer of {digits} digits beyond the float range") from None
    return val


def _floats(raw):
    vals = [_float(v) for v in raw.replace(",", " ").split()]
    if not vals:
        raise ValueError("empty list")
    return tuple(vals)


def _ints(raw):
    return tuple(int(v) for v in raw.replace(",", " ").split())


def _field_parsers(cls):
    """Parser per field of a dataclass, by the field's type."""
    parsers = {int: int, float: _float}
    return {f.name: parsers[f.type] for f in fields(cls)}


# accepted keys per section and the parser of each value
_SCHEMA = {
    "model": {"name": str, "file": str, "theta": _floats, "observable": str},
    "apparatus": _field_parsers(ApparatusConfig),
    "run": {"t": _float, "n": _float, "n_over_t": _float, "link": str, "trials": int,
            "seed": int, "out_dir": str},
    "sweep": {"axis": str, "values": _floats},
    "verify": {"checks": _ints},
}


def _parse_sections(cfg, path):
    """{section: {key: parsed value}} for every schema section."""
    parsed = {section: {} for section in _SCHEMA}
    for section in (["DEFAULT"] if cfg.defaults() else []) + cfg.sections():
        if section not in _SCHEMA:
            _fail(
                path,
                f"unknown section [{section}] (sections: {', '.join(sorted(_SCHEMA))})",
            )
        accepted = _SCHEMA[section]
        for key in cfg.options(section):
            if key not in accepted:
                _fail(
                    path,
                    f"unknown [{section}] key {key!r} "
                    f"(keys: {', '.join(sorted(accepted))})",
                )
            raw = cfg.get(section, key)
            try:
                parsed[section][key] = accepted[key](raw)
            except (TypeError, ValueError):
                _fail(path, f"[{section}] {key}: cannot parse {raw!r}")
    return parsed


def _required(values, section, key, path):
    if key not in values:
        _fail(path, f"missing [{section}] {key}")
    return values[key]


def load_scenario(path, seed=None, out_dir=None):
    """Parse and validate a scenario file; CLI overrides win over file keys."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    digest = hashlib.sha256(text.encode()).hexdigest()
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cfg.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ScenarioError(f"{path}: {exc}") from exc

    parsed = _parse_sections(cfg, path)
    for section in ("model", "run"):
        if not cfg.has_section(section):
            _fail(path, f"missing [{section}] section")
    model_keys, run = parsed["model"], parsed["run"]

    named = {}
    if "file" in model_keys:
        if "name" in model_keys:
            _fail(path, "[model] must set exactly one of name/file")
        model, named = load_model_file((path.parent / model_keys["file"]).resolve())
    else:
        name = _required(model_keys, "model", "name", path)
        if name not in _REGISTERED:
            _fail(
                path,
                f"unknown model {name!r} (registered: "
                f"{', '.join(sorted(_REGISTERED))})",
            )
        model = _REGISTERED[name]()

    theta = np.asarray(_required(model_keys, "model", "theta", path))
    if theta.size != model.param_dim:
        _fail(path, f"theta needs {model.param_dim} entries, got {theta.size}")
    if not model.contains(theta):
        _fail(path, f"theta {theta.tolist()} outside the model domain")

    obs_raw = _required(model_keys, "model", "observable", path)
    observables = tuple(
        _resolve_observable(s, model, named, path) for s in obs_raw.split(",")
    )
    if len(observables) != model.param_dim:
        _fail(
            path,
            f"need {model.param_dim} observables (one per parameter), "
            f"got {len(observables)}",
        )

    grid = parsed["apparatus"]
    apparatus = replace(default_apparatus(grid.get("sigma", 0.1)), **grid)

    t = _required(run, "run", "t", path)
    n = run.get("n", 1.0)
    link_kind = run.get("link", "identity")
    if link_kind not in ("identity", "steady"):
        _fail(path, f"[run] link must be identity or steady, got {link_kind!r}")
    trials = run.get("trials", 1000)
    if trials < 100:
        _fail(path, "[run] trials must be at least 100")
    if seed is None:
        seed = run.get("seed")
    if seed is None:
        _fail(path, "seed is mandatory: set [run] seed or pass --seed")
    if out_dir is None:
        out_dir = run.get("out_dir", "out")

    sweep_axis = None
    sweep_values = None
    if cfg.has_section("sweep"):
        sweep_axis = _required(parsed["sweep"], "sweep", "axis", path)
        if sweep_axis not in ("N", "T", "theta"):
            _fail(path, f"sweep axis must be N, T or theta, got {sweep_axis!r}")
        sweep_values = _required(parsed["sweep"], "sweep", "values", path)
        if list(sweep_values) != sorted(sweep_values):
            _fail(path, "sweep values must be ascending")
        if len(set(sweep_values)) != len(sweep_values):
            _fail(path, "sweep values must be distinct")
    if "n_over_t" in run and sweep_axis != "T":
        _fail(path, "[run] n_over_t applies to T sweeps only ([sweep] axis = T)")

    checks = parsed["verify"].get("checks")
    if checks is not None and not (checks and all(1 <= c <= 10 for c in checks)):
        _fail(path, "[verify] checks must list numbers in 1..10")
    if checks is not None and len(set(checks)) != len(checks):
        _fail(path, "[verify] checks must be distinct")

    if t <= 0:
        _fail(path, f"[run] t must be positive, got {t!r}")
    if n < 1:
        _fail(path, "[run] n must be at least 1")

    return Scenario(
        path=str(path),
        sha256=digest,
        model=model,
        theta=theta,
        observables=observables,
        link_kind=link_kind,
        apparatus=apparatus,
        t=float(t),
        n=float(n),
        n_over_t=run.get("n_over_t"),
        trials=trials,
        seed=int(seed),
        sweep_axis=sweep_axis,
        sweep_values=sweep_values,
        out_dir=str(out_dir),
        checks=checks,
    )


def scenario_runs(scn, t=None, n=None, theta=None):
    """DamRun per observable at the scenario's (or an overridden) point."""
    theta_vec = scn.theta if theta is None else np.asarray(theta, dtype=float)
    return [
        DamRun(
            model=scn.model,
            theta=theta_vec,
            observable=a,
            t=scn.t if t is None else t,
            n=scn.n if n is None else n,
            apparatus=scn.apparatus,
        )
        for _, a in scn.observables
    ]
