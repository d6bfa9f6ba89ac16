import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fiberquant import scenario
from fiberquant.cli import (
    EXIT_ACCURACY,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_USAGE,
    run_command,
)
from fiberquant.errors import ParseError, ValidationError
from fiberquant.gauge import ChartData, pure_gauge_model
from fiberquant.scenario import default_scenario, load_scenario, validate_scenario_dict


@pytest.fixture()
def monopole_config(tmp_path):
    cfg = tmp_path / "monopole.json"
    cfg.write_text(json.dumps({
        "orbit": {"two_j": 2},
        "model": {"kind": "monopole", "strength": 1},
    }))
    return str(cfg)


@pytest.fixture()
def trivial_config(tmp_path):
    cfg = tmp_path / "trivial.json"
    cfg.write_text(json.dumps({
        "orbit": {"two_j": 1},
        "model": {"kind": "trivial"},
    }))
    return str(cfg)


class TestScenarioLoading:
    def test_minimal_valid(self):
        sc = validate_scenario_dict({"orbit": {"two_j": 1}, "model": {"kind": "trivial"}})
        assert sc.two_j == 1 and sc.model_kind == "trivial"
        sc.build_context()  # runs the model check on the scenario's basis

    def test_negative_spin_rejected(self):
        with pytest.raises(ValidationError):
            validate_scenario_dict({"orbit": {"two_j": -1}, "model": {"kind": "trivial"}})

    def test_unknown_model_rejected(self):
        with pytest.raises(ValidationError):
            validate_scenario_dict({"orbit": {"two_j": 1}, "model": {"kind": "wormhole"}})

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValidationError):
            validate_scenario_dict({"orbit": {"two_j": 1}, "model": {"kind": "trivial"},
                                    "tolerances": {"gram": -1.0}})

    def test_unknown_tolerance_key_rejected(self):
        with pytest.raises(ValidationError) as err:
            validate_scenario_dict({"orbit": {"two_j": 1}, "model": {"kind": "trivial"},
                                    "tolerances": {"gramm": 1e-30}})
        assert "tolerances.gramm" in str(err.value) and "chart_covariance" in str(err.value)
        with pytest.raises(KeyError):
            default_scenario().tolerance("gramm")

    def test_monopole_defaults_carry_paths(self, monopole_config):
        sc = load_scenario(monopole_config)
        assert {"lat30", "lat60", "lat90", "lat120", "meridian"} <= set(sc.path_specs)
        echo = sc.echo()
        assert echo["orbit"]["two_j"] == 2
        assert echo["model"]["kind"] == "monopole"

    def test_parse_error_carries_line(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"orbit": {"two_j": 1},]')
        with pytest.raises(ParseError) as err:
            load_scenario(str(bad))
        assert "line" in str(err.value)

    def test_config_dir_env(self, tmp_path, monkeypatch, monopole_config):
        import shutil

        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        shutil.copy(monopole_config, cfg_dir / "m.json")
        monkeypatch.setenv("FIBERQUANT_CONFIG_DIR", str(cfg_dir))
        sc = load_scenario("m.json")
        assert sc.model_kind == "monopole"

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_scenario("/nonexistent/path.json")


class TestCommands:
    def test_prequant_diagonal(self):
        code, out = run_command(["prequant", "--spin", "1", "--hamiltonian", "0,0,1"])
        assert code == EXIT_OK
        doc = json.loads(out)
        matrix = np.array([[complex(re, im) for re, im in row] for row in doc["payload"]["matrix"]])
        assert np.linalg.norm(matrix - np.diag([0.5, -0.5]), 2) < 1e-10
        assert doc["conventions"]["s_dirac"] == -1

    def test_gram_passes(self):
        code, out = run_command(["gram", "--spin", "4"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["payload"]["pass"] is True
        assert doc["payload"]["closed_form_relative_error"] <= doc["payload"]["tolerance"]

    def test_transition_diagonal_phases(self):
        code, out = run_command(["transition", "--spin", "2", "--axis", "0,0,1", "--angle", "0.5"])
        assert code == EXIT_OK
        doc = json.loads(out)
        matrix = np.array([[complex(re, im) for re, im in row] for row in doc["payload"]["matrix"]])
        # one-parameter subgroup through tau_3: phases e^{-i m t}
        expected = np.diag(np.exp(-1j * np.array([1.0, 0.0, -1.0]) * 0.5))
        assert np.linalg.norm(matrix - expected, 2) < 1e-10

    @pytest.mark.parametrize("extreme, plain", [("1e200,1e200,1e200", "1,1,1"), ("1e-200,0,0", "1,0,0"),
                                                ("1e-160,0,0", "1,0,0")])
    def test_transition_axis_scale_free(self, extreme, plain):
        payloads = []
        for axis in (extreme, plain):
            code, out = run_command(["transition", "--spin", "2", "--axis", axis, "--angle", "0.5"])
            assert code == EXIT_OK
            payloads.append(json.loads(out)["payload"])
        for key in ("group_element", "matrix"):
            assert np.max(np.abs(np.subtract(payloads[0][key], payloads[1][key]))) <= 1e-15

    def test_connection_sources_agree(self, monopole_config):
        outs = {}
        for source in ("rep", "quad"):
            code, out = run_command(["connection", "--config", monopole_config,
                                     "--point", "0.4,0.1;0.0,0.0", "--tangent", "0.3,-0.2",
                                     "--chart", "north", "--source", source])
            assert code == EXIT_OK
            doc = json.loads(out)
            outs[source] = np.array([[complex(re, im) for re, im in row]
                                     for row in doc["payload"]["matrix"]])
        assert np.linalg.norm(outs["rep"] - outs["quad"], 2) < 1e-8

    def test_wilson_latitude_phases(self, monopole_config):
        code, out = run_command(["wilson", "--config", monopole_config,
                                 "--path", "lat60", "--steps", "3000"])
        assert code == EXIT_OK
        doc = json.loads(out)
        phases = [complex(re, im) for re, im in doc["payload"]["diagonal_phases"]]
        solid = 2 * np.pi * (1 - np.cos(np.pi / 3))
        expected = np.exp(-1j * np.array([1.0, 0.0, -1.0]) * solid)
        assert np.max(np.abs(np.array(phases) - expected)) < 1e-6

    def test_transport_reports_unitarity(self, monopole_config):
        code, out = run_command(["transport", "--config", monopole_config,
                                 "--path", "lat90", "--steps", "1000"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["payload"]["unitarity_deviation"] <= 1e-8
        assert doc["payload"]["alpha_phase"] == 0

    @pytest.mark.parametrize("kind", ["trivial", "constant", "monopole", "pure_gauge"])
    def test_every_default_path_transports(self, tmp_path, kind):
        data = {"orbit": {"two_j": 1}, "model": {"kind": kind}}
        cfg = tmp_path / f"{kind}.json"
        cfg.write_text(json.dumps(data))
        for name in validate_scenario_dict(data).path_specs:
            code, out = run_command(["transport", "--config", str(cfg), "--path", name,
                                     "--steps", "200"])
            assert code == EXIT_OK, (name, out)

    def test_wilson_uses_scenario_quadrature(self, tmp_path):
        cfg = tmp_path / "quad.json"
        cfg.write_text(json.dumps({
            "orbit": {"two_j": 2},
            "model": {"kind": "monopole", "strength": 1},
            "quadrature": {"n_t": 30, "n_phi": 41},
        }))
        argv = ["--config", str(cfg), "--source", "quad", "--path", "lat60", "--steps", "200"]
        payloads = {}
        for command in ("wilson", "transport"):
            code, out = run_command([command] + argv)
            assert code == EXIT_OK
            payloads[command] = json.loads(out)["payload"]
        as_matrix = lambda rows: np.array([[complex(re, im) for re, im in row] for row in rows])
        trans = payloads["transport"]
        expected = np.exp(1j * trans["alpha_phase"]) * as_matrix(trans["unitary"])
        assert np.array_equal(as_matrix(payloads["wilson"]["holonomy"]), expected)

    def test_section_residual(self, trivial_config):
        code, out = run_command(["section", "--config", trivial_config])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["payload"]["residual"] == 0

    def test_verify_fiber_suite(self):
        code, out = run_command(["verify", "fiber", "--spin", "1"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["payload"]["all_pass"] is True
        assert all("tolerance" in row for row in doc["payload"]["checks"])

    def test_verify_all_trivial(self, trivial_config):
        code, out = run_command(["verify", "all", "--config", trivial_config])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["payload"]["all_pass"] is True


class TestExitCodes:
    def test_unknown_subcommand(self):
        code, out = run_command(["frobnicate"])
        assert code == EXIT_USAGE
        assert "usage" in out

    def test_empty_invocation(self):
        code, _ = run_command([])
        assert code == EXIT_USAGE

    def test_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"orbit": {"two_j": -1}, "model": {"kind": "trivial"}}))
        code, out = run_command(["gram", "--config", str(bad)])
        assert code == EXIT_INVALID
        assert "two_j" in out

    def test_missing_required_flag(self):
        code, _ = run_command(["prequant", "--spin", "1"])
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("command", ["transport", "wilson"])
    @pytest.mark.parametrize("steps", ["0", "-5"])
    def test_non_positive_steps_rejected(self, monopole_config, command, steps):
        code, out = run_command([command, "--config", monopole_config, "--path", "lat60",
                                 "--steps", steps])
        assert code == EXIT_INVALID
        assert "--steps" in out

    _CONTEXT_COMMANDS = [
        ["connection", "--point", "0.3,0.2", "--tangent", "1,0.5"],
        ["transport", "--path", "unit_y", "--steps", "300"],
        ["wilson", "--path", "phase_loop", "--steps", "300"],
        ["section"],
    ]

    @pytest.mark.parametrize("argv", _CONTEXT_COMMANDS)
    def test_inconsistent_model_rejected_by_every_context_command(self, tmp_path, monkeypatch, argv):
        # the gauged chart's potential is 1% off (dg) g^{-1}, so the overlap law fails
        def skewed_pure_gauge_model(spec, **params):
            model = pure_gauge_model(spec, **params)
            gauged = model.charts["gauged"]
            charts = {**model.charts, "gauged": ChartData(lambda q: 1.01 * gauged.potential(q))}
            return dataclasses.replace(model, charts=charts)

        monkeypatch.setattr(scenario, "pure_gauge_model", skewed_pure_gauge_model)
        cfg = tmp_path / "pure.json"
        cfg.write_text(json.dumps({"orbit": {"two_j": 2}, "model": {"kind": "pure_gauge"}}))
        code, out = run_command(argv + ["--config", str(cfg)])
        assert code == EXIT_INVALID
        assert out.startswith("error: chart potentials inconsistent")

    @pytest.mark.parametrize("argv", _CONTEXT_COMMANDS)
    def test_fast_pure_gauge_model_accepted_by_every_context_command(self, tmp_path, argv):
        # the model is exactly consistent; the check must not reject it for its rates
        cfg = tmp_path / "pure50.json"
        cfg.write_text(json.dumps({"orbit": {"two_j": 2}, "model": {"kind": "pure_gauge", "rates": [50, 50]}}))
        code, out = run_command(argv + ["--config", str(cfg)])
        assert code == EXIT_OK, out

    @pytest.mark.parametrize("model, paths, field", [
        ({"kind": "trivial"}, {"bad": {"kind": "segment", "q_to": [1.0, 0.0]}}, "paths.bad.q_from"),
        ({"kind": "monopole"}, {"bad": {"kind": "latitude", "theta": 1.0, "winds": "two"}},
         "paths.bad.winds"),
        ({"kind": "trivial"}, {"bad": {"kind": "phase_circle", "center_q": [0, 0], "radius": 0.5,
                                       "plane": 2}}, "paths.bad.plane"),
        ({"kind": "trivial"}, {"bad": {"kind": "momentum_circle", "q_fixed": [0, 0],
                                       "p_center": [0, 0]}}, "paths.bad.radius"),
        ({"kind": "pure_gauge", "rates": ["x", 1]}, {}, "model.rates"),
        ({"kind": "constant", "coefficients": [[1, 0, "a"], [0, 1, 0]]}, {}, "model.coefficients"),
        ({"kind": "monopole", "strenght": 2}, {}, "model.strenght"),
    ])
    def test_malformed_fields_rejected(self, tmp_path, model, paths, field):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"orbit": {"two_j": 1}, "model": model, "paths": paths}))
        code, out = run_command(["transport", "--config", str(cfg), "--path", "bad"])
        assert code == EXIT_INVALID
        assert out.startswith(f"error: {field}:")

    @pytest.mark.parametrize("quadrature, field", [
        (None, "quadrature"),
        (False, "quadrature"),
        (0, "quadrature"),
        ({}, "quadrature.n_t"),
        ({"n_t": True, "n_phi": 9}, "quadrature.n_t"),
        ({"n_t": 12, "n_phi": 0}, "quadrature.n_phi"),
        ({"n_t": 12, "n_phi": 17, "n_tt": 12}, "quadrature.n_tt"),
    ])
    def test_malformed_quadrature_rejected(self, tmp_path, quadrature, field):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"orbit": {"two_j": 1}, "model": {"kind": "trivial"}, "quadrature": quadrature}))
        code, out = run_command(["transport", "--config", str(cfg), "--path", "unit_x"])
        assert code == EXIT_INVALID
        assert out.startswith(f"error: {field}:")

    @pytest.mark.parametrize("argv, flag", [
        (["prequant", "--hamiltonian", "nan,0,0"], "--hamiltonian"),
        (["transition", "--axis", "0,0,1", "--angle", "nan"], "--angle"),
        (["transition", "--axis", "inf,0,1", "--angle", "0.3"], "--axis"),
        (["connection", "--point", "0.1,0.2", "--tangent", "inf,0"], "--tangent"),
        (["connection", "--point", "0.1,0.2;nan,0", "--tangent", "1,0"], "--point"),
        (["verify", "orbit", "--tol", "inf"], "--tol"),
        (["verify", "orbit", "--tol", "nan"], "--tol"),
    ])
    def test_non_finite_numbers_rejected(self, argv, flag):
        code, out = run_command(argv + ["--spin", "1"])
        assert code == EXIT_INVALID
        assert out.startswith(f"error: {flag}")

    def test_overflowing_spin_is_accuracy_failure(self):
        with np.errstate(all="ignore"):
            code, out = run_command(["gram", "--spin", "160"])
        assert code == EXIT_ACCURACY
        assert out.startswith("accuracy failure:") and "nan" not in out

    def test_table_output(self, trivial_config):
        code, out = run_command(["verify", "orbit", "--config", trivial_config,
                                 "--output", "table"])
        assert code == EXIT_OK
        assert "pass" in out and "check" in out


class TestToleranceOverrides:
    FLOORS = {
        "fiber.polarization_counterexample_ratio": 1e3,
        "gauge.constant_model_curvature": 0.1,
        "transport.noncommutativity": 0.1,
        "transport.corruption_sensitivity": 10.0,
    }

    def test_tol_reaches_every_row_but_not_floors(self):
        code, out = run_command(["verify", "all", "--spin", "1", "--tol", "1e-30"])
        assert code == EXIT_ACCURACY
        rows = json.loads(out)["payload"]["checks"]
        assert {row["name"] for row in rows if row["mode"] == "min"} == set(self.FLOORS)
        for row in rows:
            expected = self.FLOORS[row["name"]] if row["mode"] == "min" else 1e-30
            assert row["tolerance"] == expected, row["name"]

    def test_scenario_override_reaches_row(self, tmp_path):
        cfg = tmp_path / "loose.json"
        cfg.write_text(json.dumps({"orbit": {"two_j": 1}, "model": {"kind": "trivial"},
                                   "tolerances": {"chart_covariance": 1e-3}}))
        code, out = run_command(["verify", "orbit", "--config", str(cfg)])
        assert code == EXIT_OK
        rows = {row["name"]: row for row in json.loads(out)["payload"]["checks"]}
        assert rows["orbit.chart_covariance"]["tolerance"] == 1e-3
        assert rows["orbit.poisson_sign_global"]["tolerance"] == 1e-9

    @pytest.mark.parametrize("argv", [
        ["transport", "--path", "lat90", "--steps", "1000"],
        ["wilson", "--path", "lat60", "--steps", "1000"],
        ["connection", "--point", "0.4,0.1", "--tangent", "0.3,-0.2", "--chart", "north"],
    ])
    def test_tol_reaches_payload(self, monopole_config, argv):
        code, out = run_command(argv + ["--config", monopole_config, "--tol", "0.25"])
        assert code == EXIT_OK
        assert json.loads(out)["payload"]["tolerance"] == 0.25


class TestDeterminism:
    def test_byte_identical_documents(self, monopole_config):
        runs = [run_command(["wilson", "--config", monopole_config, "--path", "lat60",
                             "--steps", "1000"]) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_verify_deterministic(self):
        runs = [run_command(["verify", "fiber", "--spin", "1"]) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_float_formatting_17_digits(self):
        from fiberquant.cli import _serialize

        assert _serialize(1.0 / 3.0) == format(1.0 / 3.0, ".17g")
        blob = _serialize({"b": [1.5, 2], "a": True, "c": None})
        assert blob.index('"a"') < blob.index('"b"') < blob.index('"c"')


class TestRuntimeDependencies:
    def test_verify_all_loads_only_stdlib_and_numpy(self):
        # -S skips site's .pth hooks, so every loaded module is the program's doing
        import fiberquant

        src = os.path.dirname(os.path.dirname(fiberquant.__file__))
        site = os.path.dirname(os.path.dirname(np.__file__))
        script = ("import sys\n"
                  "from fiberquant.cli import run_command\n"
                  "print(run_command(['verify', 'all'])[0])\n"
                  "print(' '.join(sorted({name.partition('.')[0] for name in sys.modules})))\n")
        done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join([src, site])})
        code, modules = done.stdout.splitlines()
        assert code == "0"
        allowed = set(sys.stdlib_module_names) | {"__main__", "numpy", "fiberquant", "cython_runtime"}
        assert [m for m in modules.split() if m not in allowed and not m.startswith("_cython_")] == []
