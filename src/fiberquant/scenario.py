"""Scenario ingestion: JSON schema, validation, model construction.

A scenario file declares only what the code cannot work out: the orbit,
the gauge model, named paths, and tolerance overrides.  The fiber and its
quadrature follow from the spin, and the output format is the ``--output``
flag's:

    {
      "orbit": {"two_j": 2},
      "model": {"kind": "monopole", "strength": 1},
      "paths": {"lat60": {"kind": "latitude", "theta": 1.0471975511965976}},
      "tolerances": {"gauge_law": 1e-6}
    }

Validation happens before any computation, and an unknown field at any
level is rejected.  A spin's fiber is one ``Fiber``, whose basis and
generators are built on first read; ``Scenario.build_context`` adds the
model, checked on that basis (``gauge.check_model``).
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .fiberq import build_basis
from .gauge import (
    build_rep,
    check_model,
    constant_model,
    monopole_model,
    pure_gauge_model,
    quadrature_rep,
    trivial_model,
)
from .orbit import OrbitSpec
from .transport import (
    BasePath,
    latitude_path,
    meridian_path,
    phase_circle_path,
    segment_path,
)

CONFIG_DIR_ENV = "FIBERQUANT_CONFIG_DIR"

# Every verify row, in the order verify prints them, and its bound: a
# tolerance key and its default for a max-mode row (value <= bound), or None
# and the floor for a min-mode witness (value >= floor).  The command
# payloads reuse the keys.  Scenario "tolerances" override single keys and
# --tol sets all of them; the floors are not tolerances and stay fixed.
CHECKS = {
    "orbit.area_oracle": ("area", 1e-10),
    "orbit.hamiltonian_field_identity": ("orbit_identity", 1e-10),
    "orbit.potential_lie_chain": ("lie_chain", 1e-5),
    "orbit.chart_covariance": ("chart_covariance", 1e-9),
    "orbit.poisson_sign_global": ("poisson", 1e-9),
    "orbit.embed_radius": ("embed_radius", 1e-12),
    "orbit.potential_curvature": ("potential_curvature", 1e-6),
    "fiber.gram_oracle": ("gram", 1e-10),
    "fiber.hermiticity": ("hermiticity", 1e-9),
    "fiber.spectrum_no_half_form": ("spectrum", 1e-8),
    "fiber.dirac_condition": ("dirac", 1e-8),
    "fiber.transition_homomorphism": ("homomorphism", 1e-9),
    "fiber.transition_unitarity": ("unitarity", 1e-9),
    "fiber.polarization_moment": ("polarization", 1e-8),
    "fiber.polarization_counterexample_ratio": (None, 1e3),
    "gauge.rep_commutators": ("rep_commutators", 1e-9),
    "gauge.data_consistency": ("data_consistency", 1e-8),
    "gauge.connection_equivalence": ("equivalence", 1e-8),
    "gauge.anti_hermiticity": ("anti_hermiticity", 1e-9),
    "gauge.linearity": ("linearity", 1e-9),
    "gauge.transformation_law": ("gauge_law", 1e-6),
    "gauge.lift_orthogonality": ("lift_orthogonality", 1e-8),
    "gauge.pure_gauge_flatness": ("flatness", 1e-6),
    "gauge.constant_model_curvature": (None, 0.1),
    "transport.constant_oracle": ("transport_oracle", 1e-8),
    "transport.noncommutativity": (None, 0.1),
    "transport.green_phase": ("green_phase", 1e-8),
    "transport.reversal": ("reversal", 1e-8),
    "transport.unitarity": ("transport_unitarity", 1e-8),
    "transport.monopole_holonomy": ("holonomy", 1e-6),
    "transport.chart_independence": ("chart_independence", 1e-6),
    "transport.source_independence": ("source_independence", 1e-6),
    "transport.total_space_residual": ("total_space", 1e-5),
    "transport.corruption_sensitivity": (None, 10.0),
}

DEFAULT_TOLERANCES = {key: bound for key, bound in CHECKS.values() if key is not None}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and abs(x) <= 2**53  # exact as a float


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _is_reals(x, length: int) -> bool:
    return isinstance(x, list) and len(x) == length and all(_is_real(v) for v in x)


# Scenario field types: name -> (check, what a value must be).
_FIELD_TYPES = {
    "real": (_is_real, "a finite real"),
    "int": (_is_int, "an integer of magnitude at most 2**53"),
    "spin": (lambda x: _is_int(x) and x >= 0, "a non-negative integer at most 2**53"),
    "pair": (lambda x: _is_reals(x, 2), "a pair of finite reals"),
    "colatitude": (lambda x: _is_real(x) and 0.0 < x < np.pi, "a real strictly between 0 and pi"),
    "plane": (lambda x: _is_int(x) and x in (0, 1), "0 or 1"),
    "chart": (lambda x: isinstance(x, str), "a chart name"),
    "strength": (lambda x: _is_int(x) and x != 0, "a nonzero integer of magnitude at most 2**53"),
    "coefficients": (lambda x: isinstance(x, list) and len(x) == 2 and all(_is_reals(r, 3) for r in x),
                     "a 2x3 array of finite reals"),
}

# The top-level fields of a scenario document; any other is rejected.
_TOP_FIELDS = ("orbit", "model", "paths", "tolerances")

# Optional fields of each model kind.  Every field is the keyword of the
# same name of the kind's builder, which supplies its default.
_MODEL_FIELDS = {
    "trivial": {},
    "constant": {"coefficients": "coefficients"},
    "monopole": {"strength": "strength"},
    "pure_gauge": {"rates": "pair"},
}

# Builder, required and optional fields of each path kind, keyed the same way.
_PATHS = {
    "latitude": (latitude_path, {"theta": "colatitude"}, {"winds": "int", "phi0": "real"}),
    "meridian": (meridian_path, {}, {}),
    "segment": (segment_path, {"q_from": "pair", "q_to": "pair"},
                {"p_from": "pair", "p_to": "pair", "chart": "chart"}),
    "phase_circle": (phase_circle_path, {"center_q": "pair", "radius": "real"},
                     {"plane": "plane", "chart": "chart"}),
}


class Fiber(dict):
    """The fiber of one spin: "spec", "basis" and the generators "rep" (``build_rep``) and "quad"
    (``quadrature_rep``), each built on first read and then shared.  The builders are looked up by
    module name on each call, so that wrappers installed on those names (benchmark tracing) see it."""

    def __init__(self, two_j: int):
        super().__init__(spec=OrbitSpec(two_j))

    def __missing__(self, key: str):
        build = {"basis": lambda: build_basis(self["spec"]), "rep": lambda: build_rep(self["basis"]),
                 "quad": lambda: quadrature_rep(self["basis"])}[key]  # KeyError: no such entry
        self[key] = value = build()
        return value


@dataclass
class Scenario:
    two_j: int
    model_kind: str
    model_params: dict
    path_specs: dict
    tolerances: dict

    def spec(self) -> OrbitSpec:
        return OrbitSpec(self.two_j)

    def build_context(self) -> Fiber:
        """The scenario spin's ``Fiber`` with the "model" added, checked on its basis.  Set-up builds the basis,
        the model, its check and the "rep" generators, in that order; "quad" is built only if read."""
        ctx = Fiber(self.two_j)
        basis = ctx["basis"]
        # Builders are looked up by module name on each call, so that
        # wrappers installed on those names (benchmark tracing) see it.
        builders = {"trivial": trivial_model, "constant": constant_model,
                    "monopole": monopole_model, "pure_gauge": pure_gauge_model}
        ctx["model"] = builders[self.model_kind](ctx["spec"], **self.model_params)
        check_model(ctx["model"], basis)
        ctx["rep"]  # built in set-up, not at its first use
        return ctx

    def path(self, name: str) -> BasePath:
        if name not in self.path_specs:
            raise ValidationError(f"paths.{name}: no such path in the scenario")
        fields = dict(self.path_specs[name])
        return _PATHS[fields.pop("kind")][0](**fields)

    def tolerance(self, name: str) -> float:
        """The bound of a max-mode check: the scenario override or the default."""
        default = DEFAULT_TOLERANCES[name]  # KeyError: not a tolerance key
        return float(self.tolerances.get(name, default))

    def echo(self) -> dict:
        return {
            "orbit": {"two_j": self.two_j},
            "model": {"kind": self.model_kind, **self.model_params},
            "paths": sorted(self.path_specs),
            "tolerances": {k: float(v) for k, v in sorted(self.tolerances.items())},
        }


def _default_paths(model_kind: str) -> dict:
    if model_kind == "monopole":
        return {
            "lat30": {"kind": "latitude", "theta": np.pi / 6.0},
            "lat60": {"kind": "latitude", "theta": np.pi / 3.0},
            "lat90": {"kind": "latitude", "theta": np.pi / 2.0},
            "lat120": {"kind": "latitude", "theta": 2.0 * np.pi / 3.0},
            "meridian": {"kind": "meridian"},
        }
    chart = "flat" if model_kind == "pure_gauge" else "main"  # the kind's first chart
    return {
        "unit_x": {"kind": "segment", "q_from": [0.0, 0.0], "q_to": [1.0, 0.0], "chart": chart},
        "unit_y": {"kind": "segment", "q_from": [0.0, 0.0], "q_to": [0.0, 1.0], "chart": chart},
        "phase_loop": {"kind": "phase_circle", "center_q": [0.0, 0.0], "radius": 0.5, "plane": 0,
                       "chart": chart},
    }


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _check_fields(obj: dict, where: str, required: dict, optional: dict) -> None:
    fields = {**required, **optional}
    for name in obj:
        _require(name in fields, f"{where}.{name}: unknown field; valid fields: {', '.join(fields) or 'none'}")
    for name, kind in fields.items():
        if name not in obj:
            _require(name not in required, f"{where}.{name}: required field missing")
            continue
        check, what = _FIELD_TYPES[kind]
        _require(check(obj[name]), f"{where}.{name}: must be {what}, got {obj[name]!r}")


def validate_scenario_dict(data: dict, source: str = "<dict>") -> Scenario:
    """Check a scenario document field by field and return its Scenario.

    ``source`` names the document for callers that pass it; it is not used.
    """
    _require(isinstance(data, dict), "scenario: top level must be an object")
    for name in data:
        _require(name in _TOP_FIELDS, f"{name}: unknown field; valid fields: {', '.join(_TOP_FIELDS)}")
    orbit = data.get("orbit")
    _require(isinstance(orbit, dict), "orbit: required object with field two_j")
    _check_fields(orbit, "orbit", {"two_j": "spin"}, {})

    model = data.get("model")
    _require(isinstance(model, dict), "model: required object with field kind")
    kind = model.get("kind")
    _require(isinstance(kind, str) and kind in _MODEL_FIELDS,
             f"model.kind: must be one of {tuple(_MODEL_FIELDS)}, got {kind!r}")
    params = {k: v for k, v in model.items() if k != "kind"}
    _check_fields(params, "model", {}, _MODEL_FIELDS[kind])

    path_specs = dict(_default_paths(kind))
    user_paths = data.get("paths", {})
    _require(isinstance(user_paths, dict), "paths: must be an object")
    for name, pspec in user_paths.items():
        _require(isinstance(pspec, dict) and isinstance(pspec.get("kind"), str) and pspec["kind"] in _PATHS,
                 f"paths.{name}.kind: must be one of {tuple(_PATHS)}")
        _, required, optional = _PATHS[pspec["kind"]]
        _check_fields({k: v for k, v in pspec.items() if k != "kind"}, f"paths.{name}", required, optional)
        path_specs[name] = pspec

    tolerances = data.get("tolerances", {})
    _require(isinstance(tolerances, dict), "tolerances: must be an object")
    for name, tol in tolerances.items():
        _require(name in DEFAULT_TOLERANCES,
                 f"tolerances.{name}: unknown key; valid keys: {', '.join(DEFAULT_TOLERANCES)}")
        _require(_is_real(tol) and tol > 0, f"tolerances.{name}: must be a positive real, got {tol!r}")

    return Scenario(
        two_j=orbit["two_j"],
        model_kind=kind,
        model_params=params,
        path_specs=path_specs,
        tolerances=dict(tolerances),
    )


def resolve_config_path(path_arg: str) -> str:
    """Resolve a --config argument, falling back to the config directory."""
    if os.path.exists(path_arg):
        return path_arg
    cfg_dir = os.environ.get(CONFIG_DIR_ENV)
    if cfg_dir:
        candidate = os.path.join(cfg_dir, path_arg)
        if os.path.exists(candidate):
            return candidate
    raise ParseError(f"config file {path_arg!r} not found"
                     + (f" (also tried ${CONFIG_DIR_ENV})" if cfg_dir else ""))


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file; does not build the model yet."""
    resolved = resolve_config_path(path)
    try:
        with open(resolved, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{resolved}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ParseError(f"{resolved}: {exc}") from exc
    return validate_scenario_dict(data, source=resolved)


def default_scenario(two_j: int = 1, model_kind: str = "trivial", **params) -> Scenario:
    return validate_scenario_dict(
        {"orbit": {"two_j": two_j}, "model": {"kind": model_kind, **params}},
        source="<default>",
    )
