import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fiberquant import scenario
from fiberquant.cli import (
    _COMMANDS,
    _build_parser,
    EXIT_ACCURACY,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_USAGE,
    USAGE,
    main,
    run_command,
)
from fiberquant.errors import ParseError, ValidationError
from fiberquant.fiberq import build_basis, prequant_matrix
from fiberquant.gauge import ChartData, build_rep, check_model, pure_gauge_model, quadrature_rep
from fiberquant.scenario import Fiber, default_scenario, load_scenario, validate_scenario_dict


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
        # a misspelt key, and the keys of the deleted section command and zero-by-construction rows
        for key in ("gramm", "section", "vertical_independence", "vertical_loop", "trivial_identity"):
            with pytest.raises(ValidationError) as err:
                validate_scenario_dict({"orbit": {"two_j": 1}, "model": {"kind": "trivial"},
                                        "tolerances": {key: 1e-30}})
            assert f"tolerances.{key}:" in str(err.value) and "chart_covariance" in str(err.value)
            with pytest.raises(KeyError):
                default_scenario().tolerance(key)

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


def record_calls(monkeypatch, functions) -> list:
    """The names of the calls of ``functions``, in order, patched at every name a module looks each one up by."""
    calls = []
    modules = [m for name, m in sys.modules.items() if name.startswith("fiberquant.")]
    for original in functions:
        wrapper = lambda *args, _f=original, **kwargs: calls.append(_f.__name__) or _f(*args, **kwargs)
        for module in modules:
            for attr in [attr for attr, value in vars(module).items() if value is original]:
                monkeypatch.setattr(module, attr, wrapper)
    return calls


class TestSetUpWork:
    """What a command builds before it computes: the set-up that the benchmark times."""

    BUILDERS = [build_basis, check_model, build_rep, quadrature_rep, prequant_matrix]

    @pytest.mark.parametrize("two_j", [2, 20])
    def test_build_context_builds_the_basis_the_check_and_the_rep_once(self, monkeypatch, two_j):
        calls = record_calls(monkeypatch, self.BUILDERS)
        ctx = default_scenario(two_j, "monopole", strength=1).build_context()
        assert calls == ["build_basis", "check_model", "build_rep"]
        assert (ctx["basis"].spec.two_j, ctx["model"].kind) == (two_j, "monopole")
        assert calls == ["build_basis", "check_model", "build_rep"]  # read again, built once

    @pytest.mark.parametrize("source, built", [("rep", []), ("quad", ["quadrature_rep"])])
    def test_transport_builds_the_quad_rep_only_on_its_route(self, monkeypatch, monopole_config, source, built):
        calls = record_calls(monkeypatch, [quadrature_rep])
        code, _ = run_command(["transport", "--config", monopole_config, "--path", "lat60", "--source", source])
        assert code == EXIT_OK and calls == built

    def test_a_fiber_builds_each_entry_on_first_read(self, monkeypatch):
        calls = record_calls(monkeypatch, self.BUILDERS)
        fiber = Fiber(3)
        assert calls == [] and fiber["spec"].two_j == 3
        assert fiber["quad"] is fiber["quad"] and fiber["rep"] is fiber["rep"]
        assert calls == ["build_basis", "quadrature_rep", "prequant_matrix", "build_rep"]
        with pytest.raises(KeyError):
            fiber["model"]


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

    def test_transition_unitary_at_spin_80(self):
        code, out = run_command(["transition", "--spin", "80", "--axis", "0.3,-0.4,0.5", "--angle", "1.1"])
        assert code == EXIT_OK
        assert json.loads(out)["payload"]["unitarity_deviation"] <= 1e-12

    def test_non_abelian_transport_unitary_at_spin_80(self, tmp_path):
        cfg = tmp_path / "constant80.json"
        cfg.write_text(json.dumps({"orbit": {"two_j": 80}, "model": {"kind": "constant"}}))
        code, out = run_command(["transport", "--config", str(cfg), "--path", "unit_x", "--steps", "200"])
        assert code == EXIT_OK
        assert json.loads(out)["payload"]["unitarity_deviation"] <= 1e-12

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
                                     "--point", "0.4,0.1", "--tangent", "0.3,-0.2",
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

    def test_wilson_holonomy_is_phased_transport_on_quad_source(self, monopole_config):
        argv = ["--config", monopole_config, "--source", "quad", "--path", "lat60", "--steps", "200"]
        payloads = {}
        for command in ("wilson", "transport"):
            code, out = run_command([command] + argv)
            assert code == EXIT_OK
            payloads[command] = json.loads(out)["payload"]
        as_matrix = lambda rows: np.array([[complex(re, im) for re, im in row] for row in rows])
        trans = payloads["transport"]
        expected = np.exp(1j * trans["alpha_phase"]) * as_matrix(trans["unitary"])
        assert np.array_equal(as_matrix(payloads["wilson"]["holonomy"]), expected)

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
        # a name never defined, and the deleted section command
        for command in ("frobnicate", "section"):
            code, out = run_command([command])
            assert code == EXIT_USAGE
            assert out == USAGE

    def test_usage_lists_exactly_the_commands(self):
        listed = USAGE.split("commands:\n", 1)[1].split("\n\n", 1)[0]
        assert tuple(line.split()[0] for line in listed.splitlines()) == _COMMANDS

    def test_usage_lists_every_flag(self):
        flags = [flag for action in _build_parser()._actions for flag in action.option_strings]
        assert flags and [f for f in flags if not re.search(rf"(?<![\w-]){re.escape(f)}(?![\w-])", USAGE)] == []

    def test_empty_invocation(self):
        code, _ = run_command([])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [["gram", "foo"], ["gram", "--bogus", "1"], ["verify", "all", "all"],
                                      ["gram", "--s", "1"], ["gram", "-h"], ["gram", "--sp", "2"]])
    def test_stray_arguments_exit_usage_quietly(self, argv):
        # a positional on a command other than verify, an unknown flag, a second positional,
        # an ambiguous flag prefix, help after a command, and a prefix of one flag only (flags are not
        # abbreviated): USAGE on stdout, nothing on stderr
        import fiberquant

        src = os.path.dirname(os.path.dirname(fiberquant.__file__))
        done = subprocess.run([sys.executable, "-m", "fiberquant", *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])})
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_USAGE, USAGE + "\n", "")

    def test_closed_stdout_exits_with_the_command_code_quietly(self):
        # the reader of stdout is gone before the document is written, as under `| head -1`: the exit
        # code is the command's own (0 here, where the interpreter's would be 1) and stderr stays empty
        import fiberquant

        src = os.path.dirname(os.path.dirname(fiberquant.__file__))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
            done = subprocess.run([sys.executable, "-m", "fiberquant", "verify", "orbit"], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": path})
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (EXIT_OK, "")

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
    ]

    @pytest.mark.parametrize("argv", _CONTEXT_COMMANDS)
    def test_inconsistent_model_rejected_by_every_context_command(self, tmp_path, monkeypatch, argv):
        # the gauged chart's potential is 1% off (dg) g^{-1}, so the overlap law fails
        def skewed_pure_gauge_model(spec, **params):
            model = pure_gauge_model(spec, **params)
            gauged = model.charts["gauged"]
            charts = {**model.charts, "gauged": ChartData(lambda q, dq: 1.01 * gauged.potential(q, dq))}
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
        ({"kind": "trivial"}, {"bad": {"kind": "phase_circle", "center_q": [0, 0]}}, "paths.bad.radius"),
        ({"kind": "pure_gauge", "rates": ["x", 1]}, {}, "model.rates"),
        ({"kind": "constant", "coefficients": [[1, 0, "a"], [0, 1, 0]]}, {}, "model.coefficients"),
        ({"kind": "monopole", "strenght": 2}, {}, "model.strenght"),
        # a loop in p alone, which the minimal-coupling form cannot see, is no path kind
        ({"kind": "constant"}, {"bad": {"kind": "momentum_circle", "q_fixed": [0, 0], "p_center": [0, 0],
                                        "radius": 0.7}}, "paths.bad.kind"),
    ])
    def test_malformed_fields_rejected(self, tmp_path, model, paths, field):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"orbit": {"two_j": 1}, "model": model, "paths": paths}))
        code, out = run_command(["transport", "--config", str(cfg), "--path", "bad"])
        assert code == EXIT_INVALID
        assert out.startswith(f"error: {field}:")

    @pytest.mark.parametrize("extra, orbit, field", [
        ({"tolerance": {"gram": 1e-30}}, {"two_j": 1}, "tolerance"),
        # the fiber's rule follows from the spin, and the format is --output's
        ({"quadrature": {"n_t": 12, "n_phi": 17}}, {"two_j": 1}, "quadrature"),
        ({"output": "table"}, {"two_j": 1}, "output"),
        ({}, {"two_j": 1, "spin": 3}, "orbit.spin"),
        ({}, {"two_j": True}, "orbit.two_j"),
        ({}, {"two_j": -1}, "orbit.two_j"),
        ({}, {}, "orbit.two_j"),
    ])
    def test_unknown_or_malformed_scenario_fields_rejected(self, tmp_path, capsys, extra, orbit, field):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"orbit": orbit, "model": {"kind": "trivial"}, **extra}))
        code = main(["gram", "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_INVALID, "")
        assert out.startswith(f"error: {field}:")

    @pytest.mark.parametrize("doc, field", [
        # a kind that is no string, and integers beyond the float range or past 2**53, where every
        # integer field stops being exact in the float arithmetic it enters
        ({"model": {"kind": ["monopole"]}}, "model.kind"),
        ({"paths": {"bad": {"kind": ["latitude"], "theta": 1.0}}}, "paths.bad.kind"),
        ({"tolerances": {"gram": 10**400}}, "tolerances.gram"),
        ({"paths": {"bad": {"kind": "latitude", "theta": 10**400}}}, "paths.bad.theta"),
        ({"model": {"kind": "pure_gauge", "rates": [10**400, 1.0]}}, "model.rates"),
        ({"model": {"kind": "constant", "coefficients": [[10**400, 0, 0], [0, 1, 0]]}}, "model.coefficients"),
        ({"paths": {"bad": {"kind": "segment", "q_from": [0, 10**400], "q_to": [1, 0]}}}, "paths.bad.q_from"),
        ({"paths": {"bad": {"kind": "latitude", "theta": 1.0, "winds": 10**400}}}, "paths.bad.winds"),
        ({"paths": {"bad": {"kind": "latitude", "theta": 1.0, "winds": -(2**53 + 1)}}}, "paths.bad.winds"),
        ({"model": {"kind": "monopole", "strength": 2**53 + 1}}, "model.strength"),
        ({"orbit": {"two_j": 10**400}}, "orbit.two_j"),
        ({"paths": {"bad": {"kind": "phase_circle", "center_q": [0, 0], "radius": 1, "plane": 10**400}}},
         "paths.bad.plane"),
    ])
    def test_out_of_range_scenario_values_rejected(self, tmp_path, capsys, doc, field):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"orbit": {"two_j": 1}, "model": {"kind": "monopole"}, **doc}))
        code = main(["transport", "--config", str(cfg), "--path", "bad"])
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_INVALID, "")
        assert out.startswith(f"error: {field}:")

    def test_integer_fields_hold_up_to_two_to_the_53(self):
        sc = validate_scenario_dict({"orbit": {"two_j": 2**53}, "model": {"kind": "monopole", "strength": -2**53},
                                     "paths": {"far": {"kind": "latitude", "theta": 1.0, "winds": 2**53}}})
        assert (sc.two_j, sc.model_params["strength"], sc.path_specs["far"]["winds"]) == (2**53, -2**53, 2**53)

    @pytest.mark.parametrize("argv, flag", [
        (["prequant", "--hamiltonian", "nan,0,0"], "--hamiltonian"),
        (["transition", "--axis", "0,0,1", "--angle", "nan"], "--angle"),
        (["transition", "--axis", "inf,0,1", "--angle", "0.3"], "--axis"),
        (["connection", "--point", "0.1,0.2", "--tangent", "inf,0"], "--tangent"),
        (["connection", "--point", "0.1,nan", "--tangent", "1,0"], "--point"),
        (["verify", "orbit", "--tol", "inf"], "--tol"),
        (["verify", "orbit", "--tol", "nan"], "--tol"),
        # the retired ";p" and ";dp" parts: a point is q, a tangent dq
        (["connection", "--point", "0.1,0.2;0,0", "--tangent", "1,0"], "--point"),
        (["connection", "--point", "0.1,0.2", "--tangent", "1,0;0.5,0"], "--tangent"),
    ])
    def test_non_finite_numbers_rejected(self, argv, flag):
        code, out = run_command(argv + ["--spin", "1"])
        assert code == EXIT_INVALID
        assert out.startswith(f"error: {flag}")

    @pytest.mark.parametrize("scenario_doc, argv", [
        ({"model": {"kind": "pure_gauge", "rates": [1e300, 1e300]}}, ["transport", "--path", "unit_x"]),
        ({"model": {"kind": "trivial"},
          "paths": {"big": {"kind": "segment", "q_from": [-1e308, 0], "q_to": [1e308, 0]}}},
         ["transport", "--path", "big", "--steps", "10"]),
        ({"model": {"kind": "constant"},
          "paths": {"big": {"kind": "phase_circle", "center_q": [0, 0], "radius": 1e300}}},
         ["transport", "--path", "big", "--steps", "10"]),
        ({"model": {"kind": "constant", "coefficients": [[1e10, 0, 0], [0, 1e10, 0]]}},
         ["transport", "--path", "unit_x", "--steps", "100"]),
        (None, ["prequant", "--spin", "2", "--hamiltonian", "1e308,1e308,1e308"]),
        # a finite transport whose phase p . dq overflows
        ({"model": {"kind": "trivial"},
          "paths": {"big": {"kind": "phase_circle", "center_q": [0, 0], "radius": 1e200}}},
         ["transport", "--path", "big", "--steps", "10"]),
    ])
    def test_non_finite_matrix_fails_its_guard(self, tmp_path, scenario_doc, argv):
        # in a subprocess: in-process, pytest would turn numpy's overflow warnings into errors
        if scenario_doc is not None:
            cfg = tmp_path / "huge.json"
            cfg.write_text(json.dumps({"orbit": {"two_j": 2}, **scenario_doc}))
            argv = argv + ["--config", str(cfg)]
        import fiberquant

        src = os.path.dirname(os.path.dirname(fiberquant.__file__))
        done = subprocess.run([sys.executable, "-m", "fiberquant", *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode in (EXIT_INVALID, EXIT_ACCURACY), done.stderr
        assert done.stderr == ""
        assert done.stdout.count("\n") == 1 and "inf" in done.stdout

    def test_gram_failure_on_default_rule_names_spin_and_basis(self):
        # from two_j = 84 the monomial basis, not the default rule, is what fails
        code, out = run_command(["gram", "--spin", "84"])
        assert code == EXIT_ACCURACY
        assert "at two_j = 84;" in out and "monomial basis z**k loses precision" in out
        assert "under-resolved" not in out

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


class TestReadmeUsage:
    def test_every_usage_line_exits_zero(self, tmp_path, monkeypatch):
        # the README's CLI block, run against its scenario-file example saved as monopole.json
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = text.split("\n## CLI\n", 1)[1]
        usage = re.search(r"```\n(.*?)```", section, re.S).group(1)
        example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        (tmp_path / "monopole.json").write_text(example)
        monkeypatch.chdir(tmp_path)
        lines = [line for line in usage.splitlines() if line.startswith("fiberquant ")]
        assert len(lines) == 7
        for line in lines:
            code, out = run_command(shlex.split(line)[1:])
            assert code == EXIT_OK, (line, out)


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
