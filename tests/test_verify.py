import re
from collections import Counter
from pathlib import Path

import pytest

from fiberquant import verify
from fiberquant.errors import FiberquantError
from fiberquant.scenario import CHECKS, default_scenario
from fiberquant.verify import run_suite


@pytest.mark.parametrize("suite", ["orbit", "fiber"])
def test_light_suites_pass(suite):
    checks = run_suite(suite, default_scenario(2, "monopole", strength=1))
    failed = [c for c in checks if not c.passed]
    assert not failed, f"failed: {[(c.name, c.value) for c in failed]}"


def test_gauge_suite_passes():
    checks = run_suite("gauge", default_scenario(2, "monopole", strength=1))
    failed = [c for c in checks if not c.passed]
    assert not failed, f"failed: {[(c.name, c.value) for c in failed]}"
    names = {c.name for c in checks}
    assert "gauge.connection_equivalence" in names
    assert "gauge.transformation_law" in names


def test_transport_suite_passes():
    checks = run_suite("transport", default_scenario(2, "monopole", strength=1))
    failed = [c for c in checks if not c.passed]
    assert not failed, f"failed: {[(c.name, c.value) for c in failed]}"


def test_all_aggregates_every_suite():
    scenario = default_scenario(1, "trivial")
    checks = run_suite("all", scenario)
    names = {c.name for c in checks}
    for prefix in ("orbit.", "fiber.", "gauge.", "transport."):
        assert any(name.startswith(prefix) for name in names)
    # Exactly the rows of the check table, in its order, each with its bound.
    assert [c.name for c in checks] == list(CHECKS)
    for c in checks:
        key, bound = CHECKS[c.name]
        assert (c.mode, c.tolerance) == (("min", bound) if key is None else ("max", bound))


def test_unknown_suite_rejected():
    with pytest.raises(FiberquantError):
        run_suite("everything", default_scenario())


def test_min_mode_checks_report_floor():
    checks = run_suite("fiber", default_scenario(1, "trivial"))
    ratio = next(c for c in checks if c.name == "fiber.polarization_counterexample_ratio")
    assert ratio.mode == "min" and ratio.passed


class TestCheckTable:
    # The bound each acceptance criterion pins, by the verify row that
    # measures the same invariant.  Floors are the min-mode rows.  These are
    # copies of the literals in tests/test_acceptance.py: change a bound there
    # and here together.
    CRITERIA = {
        "fiber.gram_oracle": 1e-10,                      # 1
        "fiber.spectrum_no_half_form": 1e-8,             # 2
        "fiber.dirac_condition": 1e-8,                   # 3
        "gauge.lift_orthogonality": 1e-8,                # 4
        "fiber.polarization_moment": 1e-8,               # 5
        "fiber.polarization_counterexample_ratio": 1e3,  # 5, floor
        "gauge.transformation_law": 1e-6,                # 6
        "gauge.connection_equivalence": 1e-8,            # 7
        "transport.monopole_holonomy": 1e-6,             # 8
        "transport.constant_oracle": 1e-8,               # 9
        "transport.noncommutativity": 0.1,               # 9, floor
        "transport.total_space_residual": 1e-5,          # 10
        "transport.corruption_sensitivity": 10.0,        # 10, floor
        "fiber.transition_homomorphism": 1e-9,           # 12
    }
    FLOORS = {"fiber.polarization_counterexample_ratio", "gauge.constant_model_curvature",
              "transport.noncommutativity", "transport.corruption_sensitivity"}

    def test_each_key_bounds_exactly_one_row(self):
        keys = Counter(key for key, _ in CHECKS.values() if key is not None)
        assert set(keys.values()) == {1}
        assert {row for row, (key, _) in CHECKS.items() if key is None} == self.FLOORS

    @pytest.mark.parametrize("row", sorted(CRITERIA))
    def test_default_equals_acceptance_bound(self, row):
        assert CHECKS[row][1] == self.CRITERIA[row]
        assert (CHECKS[row][0] is None) == (row in self.FLOORS)

    def test_row_missing_from_table_raises(self, monkeypatch):
        monkeypatch.setattr(verify, "suite_orbit", lambda two_j: {"orbit.unlisted": 0.0})
        with pytest.raises(KeyError):
            run_suite("orbit", default_scenario())

    def test_readme_table_matches(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = text.split("### Tolerances", 1)[1].split("\n## ", 1)[0]
        table = {}
        for key, default, users in re.findall(r"^\| `(\w+)` \| ([^|]+) \| (.+) \|$", section, re.M):
            rows = [name for name in re.findall(r"`([\w.]+)`", users) if "." in name]
            table[key] = (float(default), rows)
        expected = {}
        for row, (key, bound) in CHECKS.items():
            if key is not None:
                expected.setdefault(key, (bound, []))[1].append(row)
        assert table == expected
        floors = dict(re.findall(r"`([\w.]+)`\s+>=\s+([\d.e+-]+)", section))
        assert {row: float(v) for row, v in floors.items()} == {
            row: bound for row, (key, bound) in CHECKS.items() if key is None}
