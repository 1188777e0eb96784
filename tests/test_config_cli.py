import copy
import functools
import inspect
import json
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gasnetsim import cli, network
from gasnetsim.cli import main
from gasnetsim.config import (build_network, config_sha, load_config,
                              parse_config)
from gasnetsim.eos import EOS_KEYS, make_eos
from gasnetsim.errors import ConfigError
from gasnetsim.experiments import MassLedger, RunResult, TimeSeriesStore
from gasnetsim.output import CSV_HEADER, write_series
from support import read_series


def bundled_config_path():
    return resources.files("gasnetsim.configs") / "five_node.json"


@pytest.fixture
def five_node_path(tmp_path):
    path = tmp_path / "five_node.json"
    path.write_text(bundled_config_path().read_text())
    return path


def minimal_doc():
    return {
        "version": "v1",
        "eos": {"kind": "cnga"},
        "nodes": [
            {"id": "a", "kind": "slack",
             "pressure": {"type": "constant", "value": 6.5e6}},
            {"id": "b", "kind": "demand",
             "withdrawal": {"type": "constant", "value": 100.0}},
        ],
        "pipes": [{"id": "p", "from": "a", "to": "b", "length": 10000.0,
                   "diameter": 0.9144, "friction": 0.01}],
        "compressors": [],
        "simulation": {"dt": 1.0, "t_end": 120.0, "dx_target": 1000.0,
                       "cfl_safety": 0.9, "output_cadence": 60.0,
                       "output_path": "out"},
    }


class TestConfig:
    def test_bundled_config_round_trips(self, five_node_path):
        cfg = load_config(five_node_path, strict=True)
        cfg2 = parse_config(cfg.to_dict(), strict=True)
        assert cfg == cfg2
        assert cfg.to_dict() == cfg2.to_dict()
        assert config_sha(cfg) == config_sha(cfg2)

    def test_missing_slack_names_rule(self):
        doc = minimal_doc()
        doc["nodes"][0]["kind"] = "demand"
        doc["nodes"][0]["withdrawal"] = doc["nodes"][0].pop("pressure")
        with pytest.raises(ConfigError, match="slack"):
            parse_config(doc)

    def test_negative_length_rejected(self):
        doc = minimal_doc()
        doc["pipes"][0]["length"] = -5.0
        with pytest.raises(ConfigError, match="length"):
            parse_config(doc)

    def test_all_violations_reported(self):
        doc = minimal_doc()
        doc["pipes"][0]["length"] = -5.0
        doc["pipes"][0]["to"] = "nowhere"
        doc["nodes"][1]["kind"] = "sink"
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert len(err.value.violations) >= 3

    def test_unknown_keys_only_rejected_in_strict(self):
        doc = minimal_doc()
        doc["pipes"][0]["colour"] = "red"
        parse_config(doc)
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(doc, strict=True)

    def test_parse_error_reports_location(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        with pytest.raises(ConfigError, match="line"):
            load_config(bad)

    def test_wrong_version_rejected(self):
        doc = minimal_doc()
        doc["version"] = "v2"
        with pytest.raises(ConfigError, match="version"):
            parse_config(doc)

    def test_build_network(self):
        cfg = parse_config(minimal_doc())
        net = build_network(cfg)
        assert len(net.nodes) == 2 and len(net.edges) == 1
        assert net.edges[0].grid.dx == pytest.approx(1000.0)


class TestOutput:
    def test_csv_header_is_stable(self, tmp_path):
        path = tmp_path / "series.csv"
        write_series([(0.0, "node", "1", "pressure", 1.5)], path)
        first = path.read_text().splitlines()[0]
        assert first == ",".join(CSV_HEADER) == "t,entity,id,field,value"

    def test_series_round_trip(self, tmp_path):
        rows = [(0.0, "node", "1", "pressure", 3447378.645),
                (60.0, "pipe", "2", "mass", 1.25e6)]
        path = tmp_path / "series.csv"
        write_series(rows, path)
        assert read_series(path) == rows


class TestCli:
    def test_validate_bundled_config(self, five_node_path, capsys):
        assert main(["validate", str(five_node_path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_failure_exit_code(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["pipes"][0]["length"] = -1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        assert "error: validation" in capsys.readouterr().err

    def test_run_rejects_unstable_step(self, five_node_path, tmp_path,
                                       capsys):
        code = main(["run", str(five_node_path), "--dx", "2000",
                     "--dt", "30", "--t-end", "60",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "cfl_violation" in capsys.readouterr().err

    def test_run_writes_series_and_summary(self, tmp_path, capsys):
        doc = minimal_doc()
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "results"
        assert main(["run", str(path), "--out", str(out)]) == 0
        rows = read_series(out / "run.csv")
        assert rows, "run.csv should contain samples"
        summary = json.loads((out / "run_summary.json").read_text())
        for key in ("config_sha", "steps", "max_ledger_discrepancy_kg",
                    "wall_seconds"):
            assert key in summary

    def test_identical_runs_write_identical_csv(self, tmp_path):
        doc = minimal_doc()
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["run", str(path), "--out", str(out)]) == 0
            outs.append((out / "run.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_bundled_config_runs_at_reduced_resolution(self, five_node_path,
                                                       tmp_path):
        out = tmp_path / "five"
        assert main(["run", str(five_node_path), "--dx", "4000",
                     "--t-end", "120", "--cadence", "60",
                     "--out", str(out)]) == 0
        rows = read_series(out / "run.csv")
        times = [r[0] for r in rows]
        assert times == sorted(times), "CSV t column must be non-decreasing"
        assert any(r[1] == "network" and r[3] == "discrepancy" for r in rows)

    def test_steady_subcommand(self, five_node_path, capsys):
        assert main(["steady", str(five_node_path), "--dx", "2000"]) == 0
        out = capsys.readouterr().out
        assert "node 1" in out and "pipe 5" in out

    def test_convergence_subcommand(self, tmp_path, capsys):
        out = tmp_path / "conv"
        assert main(["convergence", "--out", str(out)]) == 0
        doc = json.loads((out / "convergence.json").read_text())
        assert set(doc["rates"]) == {"rho", "p", "phi"}

    def test_fast_transient_subcommand(self, tmp_path):
        out = tmp_path / "fast"
        assert main(["fast-transient", "--eos", "ideal", "--dx", "1000",
                     "--t-end", "300", "--cadence", "60",
                     "--out", str(out)]) == 0
        assert (out / "fast_transient_ideal.csv").exists()
        summary = json.loads(
            (out / "fast_transient_ideal_summary.json").read_text())
        assert summary["eos"] == "ideal"


def _mutated(path, value, doc=None):
    if not path:                            # the whole document
        return copy.deepcopy(value)
    doc = minimal_doc() if doc is None else doc
    *parents, key = path
    target = doc
    for name in parents:
        target = target[name]
    target[key] = value
    return doc


# inputs that once escaped validation as a traceback, or were accepted
VALIDATION_ESCAPES = {
    "cfl_safety_text": (("simulation", "cfl_safety"), "x"),
    "cadence_text": (("simulation", "output_cadence"), "x"),
    "cadence_zero": (("simulation", "output_cadence"), 0),
    "cadence_negative": (("simulation", "output_cadence"), -5),
    "pipes_null": (("pipes",), None),
    "length_nan": (("pipes", 0, "length"), float("nan")),
    "length_inf": (("pipes", 0, "length"), float("inf")),
    "eos_kind_list": (("eos", "kind"), ["cnga"]),
    "compressor_side_list": (("compressors",), [
        {"pipe": "p", "side": ["inlet"], "ratio": 1.2}]),
    "disconnected": (("nodes",), minimal_doc()["nodes"] + [
        {"id": "c", "kind": "demand", "withdrawal": 0.0}]),
    "slack_pressure_nan": (("nodes", 0, "pressure"), float("nan")),
    "slack_pressure_inf": (("nodes", 0, "pressure"), float("inf")),
    "amplitude_nan": (("nodes", 1, "withdrawal"), {
        "type": "harmonic", "offset": 100.0, "amplitude": float("nan"),
        "omega": 1e-4}),
    "period_nan": (("nodes", 1, "withdrawal"), {
        "type": "constant", "value": 100.0, "period": float("nan")}),
    "knot_time_inf": (("nodes", 1, "withdrawal"), {
        "type": "piecewise_linear",
        "knots": [[0.0, 100.0], [float("inf"), 120.0]]}),
    "temperature_below_zero": (("eos",), {
        "kind": "cnga_nonisothermal", "t_ambient": 10.0, "t_jump": -20.0,
        "decay_rate": 1e-3, "gas_gravity": 0.65}),
    "gravity_negative": (("eos",), {
        "kind": "cnga_nonisothermal", "t_ambient": 288.0, "t_jump": 40.0,
        "decay_rate": 1e-3, "gas_gravity": -0.65}),
    "length_1e12": (("pipes", 0, "length"), 1e12),
    "length_1e308": (("pipes", 0, "length"), 1e308),
    "slack_pressure_negative": (("nodes", 0, "pressure"), -3e6),
    "slack_pressure_knot_negative": (("nodes", 0, "pressure"), {
        "type": "piecewise_linear", "knots": [[0, 3.4e6], [30, -1e6]]}),
    "slack_pressure_harmonic_dips": (("nodes", 0, "pressure"), {
        "type": "harmonic", "offset": 3e6, "amplitude": 3e6, "omega": 1e-4}),
    "slack_pressure_step_zero": (("nodes", 0, "pressure"), {
        "type": "step_sequence", "intervals": [[60, 6.5e6], [1e9, 0.0]]}),
    "ratio_zero": (("compressors",), [
        {"pipe": "p", "side": "inlet", "ratio": 0}]),
    "ratio_relative_harmonic_dips": (("compressors",), [
        {"pipe": "p", "side": "outlet", "ratio": {
            "type": "harmonic", "offset": 1.2, "amplitude": 1.5,
            "omega": 1e-4, "relative": True}}]),
    "wave_speed_true": (("eos",), {"kind": "ideal", "wave_speed": True}),
    "gravity_true": (("eos",), {
        "kind": "cnga_detailed", "t_kelvin": 288.0, "gas_gravity": True}),
    "wave_speed_inf": (("eos",), {"kind": "ideal",
                                  "wave_speed": float("inf")}),
    "rt_inf": (("eos", "rt"), float("inf")),
    "output_path_null": (("simulation", "output_path"), None),
    "output_path_number": (("simulation", "output_path"), 5),
    "output_path_true": (("simulation", "output_path"), True),
    "output_path_list": (("simulation", "output_path"), ["a"]),
    "output_path_empty": (("simulation", "output_path"), ""),
    "gravity_200_detailed": (("eos",), {
        "kind": "cnga_detailed", "t_kelvin": 288.0, "gas_gravity": 200.0}),
    "gravity_200_nonisothermal": (("eos",), {
        "kind": "cnga_nonisothermal", "t_ambient": 288.0, "t_jump": 40.0,
        "decay_rate": 1e-3, "gas_gravity": 200.0}),
    "b1_squared_overflows": (("eos", "b1"), 1e200),
    "gravity_100_detailed": (("eos",), {
        "kind": "cnga_detailed", "t_kelvin": 288.0, "gas_gravity": 100.0}),
    "gravity_100_nonisothermal": (("eos",), {
        "kind": "cnga_nonisothermal", "t_ambient": 288.0, "t_jump": 40.0,
        "decay_rate": 1e-3, "gas_gravity": 100.0}),
    "temperature_tiny_detailed": (("eos",), {
        "kind": "cnga_detailed", "t_kelvin": 1e-100, "gas_gravity": 0.65}),
    "temperature_tiny_nonisothermal": (("eos",), {
        "kind": "cnga_nonisothermal", "t_ambient": 1e-100, "t_jump": 40.0,
        "decay_rate": 1e-3, "gas_gravity": 0.65}),
    "length_huge_int": (("pipes", 0, "length"), 10 ** 400),
    "withdrawal_huge_int": (("nodes", 1, "withdrawal"), 10 ** 400),
    "profile_value_huge_int": (("nodes", 1, "withdrawal", "value"),
                               -10 ** 400),
    "period_huge_int": (("nodes", 1, "withdrawal", "period"), 10 ** 400),
    "step_end_huge_int": (("nodes", 1, "withdrawal"), {
        "type": "step_sequence", "intervals": [[10 ** 400, 1.0],
                                               [1e9, 2.0]]}),
    "no_pipes": ((), {**minimal_doc(), "nodes": minimal_doc()["nodes"][:1],
                      "pipes": []}),
    "wave_speed_1e200": (("eos",), {"kind": "ideal", "wave_speed": 1e200}),
    "temperature_1e300_detailed": (("eos",), {
        "kind": "cnga_detailed", "t_kelvin": 1e300, "gas_gravity": 0.65}),
    "temperature_1e80_detailed": (("eos",), {
        "kind": "cnga_detailed", "t_kelvin": 1e80, "gas_gravity": 0.65}),
    "temperature_jump_1e300_nonisothermal": (("eos",), {
        "kind": "cnga_nonisothermal", "t_ambient": 288.0, "t_jump": 1e300,
        "decay_rate": 1e-3, "gas_gravity": 0.65}),
    "gravity_1e-300_detailed": (("eos",), {
        "kind": "cnga_detailed", "t_kelvin": 1e6, "gas_gravity": 1e-300}),
    "profile_value_text": (("nodes", 0, "pressure"), {
        "type": "constant", "value": "6.5e6"}),
    "slack_pressure_true": (("nodes", 0, "pressure"), True),
    "period_true": (("nodes", 1, "withdrawal", "period"), True),
    "relative_text": (("nodes", 1, "withdrawal"), {
        "type": "harmonic", "offset": 100.0, "amplitude": 0.1, "omega": 1e-4,
        "relative": "yes"}),
    "relative_one": (("nodes", 1, "withdrawal"), {
        "type": "harmonic", "offset": 100.0, "amplitude": 0.1, "omega": 1e-4,
        "relative": 1}),
    "knots_text": (("nodes", 1, "withdrawal"), {
        "type": "piecewise_linear", "knots": [["0", "1"], [10, "2"]]}),
    "step_end_text": (("nodes", 1, "withdrawal"), {
        "type": "step_sequence", "intervals": [["60", 1.0], [1e9, 2.0]]}),
    "profile_strict_key": (("nodes", 1, "withdrawal"), {
        "type": "piecewise_linear", "knots": [[0, 100.0], [60, 120.0]],
        "strict": True}),
}


@pytest.mark.parametrize("path, value", list(VALIDATION_ESCAPES.values()),
                         ids=list(VALIDATION_ESCAPES))
def test_validation_escapes_are_listed(path, value, tmp_path, capsys):
    doc = _mutated(path, value)
    with pytest.raises(ConfigError):
        parse_config(doc)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    assert main(["validate", str(config)]) == 1
    assert "error: validation: " in capsys.readouterr().err


@pytest.mark.parametrize("case", ["temperature_tiny_detailed",
                                  "temperature_tiny_nonisothermal",
                                  "temperature_1e300_detailed",
                                  "temperature_1e80_detailed",
                                  "temperature_jump_1e300_nonisothermal",
                                  "gravity_1e-300_detailed"])
def test_fit_temperature_domain_is_one_quiet_violation(case):
    # below the fit's domain T**3.825 underflows to 0 and b1 to inf; above
    # it T**3.825 or b2's divisor overflows, and below its gravity RT does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as err:
            parse_config(_mutated(*VALIDATION_ESCAPES[case]))
    [violation] = err.value.violations
    assert violation.startswith("eos: ") and "domain" in violation


@pytest.mark.parametrize("case, reason", [
    ("b1_squared_overflows", "squares beyond the float range"),
    ("wave_speed_1e200", "squares beyond the float range"),
    ("gravity_100_detailed", "domain"),
    ("gravity_100_nonisothermal", "domain")])
def test_a_b1_whose_square_overflows_is_one_quiet_violation(case, reason):
    # the pressure map squares b1, which would read 0 for every density;
    # the fit's domain keeps a fitted b1 below that
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as err:
            parse_config(_mutated(*VALIDATION_ESCAPES[case]))
    [violation] = err.value.violations
    assert violation.startswith("eos: ") and reason in violation


# a valid value for every key of the EoS kind table
EOS_VALUES = {"wave_speed": 338.25, "b1": 1.003, "b2": 3e-8, "rt": 1.368e5,
              "t_kelvin": 280.0, "gas_gravity": 0.6, "t_ambient": 288.706,
              "t_jump": 20.0, "decay_rate": 1e-4}


def _eos_doc(kind, keys):
    return _mutated(("eos",), {"kind": kind,
                               **{key: EOS_VALUES[key] for key in keys}})


@pytest.mark.parametrize("kind", sorted(EOS_KEYS))
def test_eos_table_keys_validate_and_build_the_gas(kind):
    required, optional = EOS_KEYS[kind]
    for keys in [required] + [required | {key} for key in sorted(optional)]:
        cfg = parse_config(_eos_doc(kind, keys), strict=True)
        gas = make_eos(kind, **{key: EOS_VALUES[key] for key in keys})
        assert type(build_network(cfg).eos) is type(gas)


@pytest.mark.parametrize("kind, key", [(kind, key) for kind in sorted(EOS_KEYS)
                                       for key in sorted(EOS_KEYS[kind][0])])
def test_eos_missing_key_is_listed_once(kind, key):
    with pytest.raises(ConfigError) as err:
        parse_config(_eos_doc(kind, EOS_KEYS[kind][0] - {key}), strict=True)
    assert err.value.violations == [f"eos: missing keys [{key!r}]"]


@pytest.mark.parametrize("value", [True, "x", None, [1.0], float("nan"),
                                   float("inf")])
def test_eos_key_that_is_no_finite_number_is_listed_once(value):
    for kind, (required, optional) in EOS_KEYS.items():
        for key in sorted(required | optional):
            doc = _eos_doc(kind, required | {key})
            doc["eos"][key] = value
            with pytest.raises(ConfigError) as err:
                parse_config(doc)
            assert err.value.violations == \
                [f"eos: {key} must be a finite number"]


def test_negative_withdrawal_is_an_injection():
    doc = minimal_doc()
    doc["nodes"][1]["withdrawal"] = {"type": "harmonic", "offset": -50.0,
                                     "amplitude": 100.0, "omega": 1e-4}
    parse_config(doc)


# steady failures on the bundled config that must exit 2 with their message
STEADY_FAILURES = {
    "non-positive nodal pressure": (("compressors", 0, "ratio"), 1.2),
    "steady pressure of pipe 1 is not finite": (("pipes", 0, "friction"),
                                                1e300),
    "stalled": (("nodes", 4, "withdrawal"), 400),
}


@pytest.mark.parametrize("message, path, value",
                         [(m, *case) for m, case in STEADY_FAILURES.items()],
                         ids=list(STEADY_FAILURES))
def test_steady_failures_exit_2(message, path, value, five_node_path,
                                capfd):
    doc = _mutated(path, value, json.loads(five_node_path.read_text()))
    five_node_path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["steady", str(five_node_path), "--dx", "4000"]) == 2
    out, err = capfd.readouterr()
    assert "error: steady_state_failure: " in err and message in err
    assert "Traceback" not in err
    # nothing non-finite reaches numpy or LAPACK on the way
    assert "DLASCL" not in out + err and "RuntimeWarning" not in out + err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_disconnected_graph_fails_validate_and_steady(tmp_path, capsys):
    doc = _mutated(*VALIDATION_ESCAPES["disconnected"])
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    for command in ("validate", "steady"):
        assert main([command, str(config)]) == 1
        err = capsys.readouterr().err
        assert "not connected" in err and "Traceback" not in err


def test_a_graph_without_pipes_fails_every_config_command(tmp_path,
                                                         capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(_mutated(*VALIDATION_ESCAPES["no_pipes"])))
    for args in (["validate"], ["steady"], ["run", "--out", str(tmp_path)]):
        assert main([args[0], str(config), *args[1:]]) == 1
        assert capsys.readouterr().err == \
            "error: validation: at least one pipe is required\n"


def test_nonisothermal_network_runs(five_node_path, tmp_path):
    doc = json.loads(five_node_path.read_text())
    doc["eos"] = {"kind": "cnga_nonisothermal", "t_ambient": 288.706,
                  "t_jump": 40.0, "decay_rate": 1e-3, "gas_gravity": 0.650784}
    path = tmp_path / "noniso.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "noniso"
    assert main(["run", str(path), "--dx", "4000", "--t-end", "120",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["max_ledger_discrepancy_kg"] <= \
        1e-12 * summary["total_mass_kg"]


class TestStudyFlags:
    def test_zero_flags_do_not_fall_back_to_defaults(self, capsys):
        assert main(["fast-transient", "--cfl-safety", "0", "--dt", "0"]) == 1
        err = capsys.readouterr().err
        assert "error: validation: --dt" in err
        assert "error: validation: --cfl-safety" in err

    def test_negative_cfl_safety_rejected(self, capsys):
        assert main(["temperature", "--cfl-safety", "-1"]) == 1
        assert "error: validation: --cfl-safety" in capsys.readouterr().err

    def test_cfl_safety_above_one_rejected(self, capsys):
        assert main(["fast-transient", "--cfl-safety", "1.5"]) == 1
        assert "error: validation: --cfl-safety" in capsys.readouterr().err

    def test_nonpositive_study_flags_rejected(self, capsys):
        assert main(["temperature", "--rate", "-1"]) == 1
        assert main(["slow-transient", "--periods", "0"]) == 1
        err = capsys.readouterr().err
        assert "error: validation: --rate" in err
        assert "error: validation: --periods" in err

    def test_cell_count_is_bounded_before_allocation(self, five_node_path,
                                                     capsys):
        assert main(["temperature", "--dx", "1e-9"]) == 1
        assert main(["steady", str(five_node_path), "--dx", "1e-9"]) == 1
        err = capsys.readouterr().err
        assert err.count("error: validation: pipe") == 2
        assert "Traceback" not in err

    def test_non_finite_step_count_rejected(self, tmp_path, capsys):
        assert main(["fast-transient", "--t-end", "1e300", "--dt", "1e-10",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "error: validation: (t_end - t0)/dt" in err
        assert "Traceback" not in err

    def test_study_params_hash_is_stable(self, tmp_path):
        out = tmp_path / "five"
        assert main(["five-node", "--dx", "4000", "--t-end", "60",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "five_node_cnga_summary.json")
                             .read_text())
        assert summary["config_sha"] == config_sha(
            {"experiment": "five-node", "eos": "cnga", "dx_target": 4000.0,
             "t_end": 60.0, "dt": 0.125})


def test_non_finite_step_count_in_config_rejected(tmp_path, capsys):
    doc = minimal_doc()
    doc["simulation"].update(t_end=1e300, dt=1e-10)
    config = tmp_path / "endless.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: validation: (t_end - t0)/dt" in err
    assert "Traceback" not in err
    assert not (out / "run.csv").exists()


def test_unstable_step_in_config_leaves_no_csv(tmp_path, capsys):
    doc = minimal_doc()
    doc["simulation"]["dt"] = 1e300
    config = tmp_path / "unstable.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 2
    assert "error: cfl_violation: " in capsys.readouterr().err
    assert not (out / "run.csv").exists()


@pytest.mark.parametrize("command", [
    ["run", "{config}", "--dx", "4000", "--t-end", "60"],
    ["five-node", "--dx", "4000", "--t-end", "60"],
    ["steady", "{config}", "--dx", "4000"]], ids=lambda c: c[0])
def test_output_path_that_is_a_file_exits_1(command, five_node_path,
                                             tmp_path, capfd):
    blocker = tmp_path / "f"
    blocker.touch()
    argv = [a.format(config=five_node_path) for a in command]
    assert main(argv + ["--out", str(blocker)]) == 1
    err = capfd.readouterr().err
    assert err.startswith("error: output: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert blocker.is_file() and blocker.stat().st_size == 0


def test_missing_config_is_a_validation_error(tmp_path, capfd):
    assert main(["run", str(tmp_path / "nope.json")]) == 1
    err = capfd.readouterr().err
    assert err.startswith("error: validation: cannot read config ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_unexpected_exception_is_one_internal_error_line(five_node_path,
                                                         monkeypatch, capfd):
    def broken(*args, **kwargs):
        raise KeyError("boom")
    monkeypatch.setattr(cli, "load_config", broken)
    assert main(["validate", str(five_node_path)]) == 2
    err = capfd.readouterr().err
    assert err == "error: internal_error: KeyError: 'boom'\n"


@pytest.mark.parametrize("command, written, absent", [
    (["steady", "--out", "out"], "out/steady_summary.json", "results"),
    (["steady"], None, "out"),
    (["run", "--out", "out"], "out/run.csv", "results"),
    (["run"], "results/run.csv", "out"),
], ids=["steady-out", "steady", "run-out", "run"])
def test_out_given_as_its_default_name_is_honoured(command, written, absent,
                                                   tmp_path, monkeypatch):
    doc = minimal_doc()
    doc["simulation"]["output_path"] = "results"
    (tmp_path / "net.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert main([command[0], "net.json", *command[1:]]) == 0
    if written is not None:
        assert (tmp_path / written).is_file()
    assert not (tmp_path / absent).exists()


# each subcommand at a cheap scale, and the flags its handler does not read
DROPPED_FLAGS = {
    ("validate", "{config}"): ("--dt", "--dx", "--t-end", "--out",
                               "--cadence", "--cfl-safety"),
    ("steady", "{config}", "--dx", "4000"): ("--dt", "--t-end", "--cadence",
                                             "--cfl-safety"),
    ("convergence", "--out", "{out}"): ("--dt", "--dx", "--t-end",
                                        "--cadence", "--cfl-safety",
                                        "--strict"),
    ("fast-transient", "--dx", "2000", "--t-end", "60", "--out", "{out}"):
        ("--strict",),
    ("slow-transient", "--dx", "10000", "--periods", "1", "--out", "{out}"):
        ("--t-end", "--strict"),
    ("temperature", "--dx", "5000", "--t-end", "60", "--out", "{out}"):
        ("--strict",),
    ("five-node", "--dx", "4000", "--t-end", "60", "--out", "{out}"):
        ("--cfl-safety", "--strict"),
}


@pytest.mark.parametrize(
    "argv, flag",
    [(argv, flag) for argv, flags in DROPPED_FLAGS.items() for flag in flags],
    ids=[f"{argv[0]} {flag}" for argv, flags in DROPPED_FLAGS.items()
         for flag in flags])
def test_flag_the_handler_does_not_read_is_rejected(argv, flag,
                                                    five_node_path,
                                                    tmp_path, capfd):
    extra = [flag] if flag == "--strict" else [flag, "5"]
    argv = [a.format(config=five_node_path, out=tmp_path) for a in argv]
    assert main(argv + extra) == 1
    err = capfd.readouterr().err
    assert err == ("error: validation: unrecognized arguments: "
                   f"{' '.join(extra)}\n")


@pytest.mark.parametrize("argv, detail", [
    (["run", "{config}", "--dt", "abc"], "--dt"),
    ([], "command"),
], ids=["non-numeric", "no-subcommand"])
def test_malformed_command_line_exits_1(argv, detail, five_node_path, capfd):
    assert main([a.format(config=five_node_path) for a in argv]) == 1
    err = capfd.readouterr().err
    assert err.startswith("error: validation: ") and err.count("\n") == 1
    assert detail in err and "usage:" not in err


def test_help_exits_0_and_lists_only_the_handler_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["five-node", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--dx" in out and "--strict" not in out


def _record(monkeypatch, name, calls):
    """Replace a study's experiment by a recorder of its keyword arguments;
    return the experiment."""
    study = cli._STUDIES[name]

    @functools.wraps(study.run)     # keeps the signature the defaults live in
    def record(**kwargs):
        calls.append(kwargs)
        return RunResult(TimeSeriesStore(), {}, MassLedger())

    monkeypatch.setitem(cli._STUDIES, name, study._replace(run=record))
    return study.run


# each study's output stem and hashed params when no flag is given
STUDY_DEFAULTS = {
    "fast-transient": ("fast_transient_cnga",
                       {"eos": "cnga", "dx": 100.0, "t_end": 3600.0}),
    "slow-transient": ("slow_transient_cnga",
                       {"eos": "cnga", "periods": 50, "dx": 500.0}),
    "temperature": ("temperature_0.001",
                    {"rate": 1e-3, "dx": 200.0, "t_end": 57600.0}),
    "five-node": ("five_node_cnga", {"eos": "cnga", "dx_target": 62.5,
                                     "t_end": 86400.0, "dt": 0.125}),
}


@pytest.mark.parametrize("name", sorted(STUDY_DEFAULTS))
def test_study_defaults_are_the_experiment_defaults(name, monkeypatch,
                                                    tmp_path):
    calls = []
    run = _record(monkeypatch, name, calls)
    assert main([name, "--out", str(tmp_path)]) == 0
    assert calls == [{arg: p.default for arg, p
                      in inspect.signature(run).parameters.items()}]
    stem, params = STUDY_DEFAULTS[name]
    summary = json.loads((tmp_path / f"{stem}_summary.json").read_text())
    assert summary["config_sha"] == config_sha({"experiment": name,
                                                **params})


# a value for every study flag, and the experiment argument it sets
FLAG_VALUES = {"--eos": ("ideal", "eos_kind"), "--periods": (2, "n_periods"),
               "--rate": (1e-4, "decay_rate"), "--dt": (0.25, "dt"),
               "--dx": (3000.0, "dx"), "--t-end": (120.0, "t_end"),
               "--cadence": (30.0, "cadence"),
               "--cfl-safety": (0.5, "cfl_safety")}


@pytest.mark.parametrize("name", sorted(cli._STUDIES))
def test_every_study_flag_reaches_the_experiment(name, monkeypatch,
                                                 tmp_path):
    calls = []
    run = _record(monkeypatch, name, calls)
    flags = [f for f in cli._COMMANDS[name].flags if f != "--out"]
    flag_sets = [flags]
    if "--cfl-safety" in flags:
        # --cfl-safety only sizes a step that --dt leaves unset
        flag_sets = [[f for f in flags if f != other]
                     for other in ("--dt", "--cfl-safety")]
    for chosen in flag_sets:
        calls.clear()
        argv = [name, "--out", str(tmp_path)]
        expected = {arg: p.default for arg, p
                    in inspect.signature(run).parameters.items()}
        for flag in chosen:
            value, arg = FLAG_VALUES[flag]
            argv += [flag, str(value)]
            expected["dx_target" if (name, arg) == ("five-node", "dx")
                     else arg] = value
        assert main(argv) == 0
        assert calls == [expected]


@pytest.mark.parametrize("argv", [
    ["fast-transient", "--dt", "0.5"],
    ["slow-transient", "--dt", "0.5"],
    ["temperature", "--dt", "0.5"],
    ["run", "{config}", "--dt", "0.5"],
    ["run", "{config}"],
], ids=["fast-transient", "slow-transient", "temperature", "run-dt",
        "run-config-dt"])
def test_cfl_safety_with_a_set_step_is_refused(argv, tmp_path, monkeypatch,
                                               capfd):
    # minimal_doc sets simulation.dt
    (tmp_path / "net.json").write_text(json.dumps(minimal_doc()))
    monkeypatch.chdir(tmp_path)
    argv = [a.format(config="net.json") for a in argv]
    assert main(argv + ["--cfl-safety", "0.5", "--out", "o"]) == 1
    err = capfd.readouterr().err
    assert err.startswith("error: validation: --cfl-safety") and \
        err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_cfl_safety_sizes_the_step_a_config_leaves_unset(tmp_path):
    doc = minimal_doc()
    doc["simulation"]["dt"] = None
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    dts = {}
    for safety in ("0.9", "0.45"):
        out = tmp_path / safety
        assert main(["run", str(path), "--cfl-safety", safety,
                     "--out", str(out)]) == 0
        dts[safety] = json.loads((out / "run_summary.json").read_text())
    assert dts["0.45"]["steps"] > dts["0.9"]["steps"]


# --strict reports each profile that a run clamps, once, when the config is
# read: a piecewise-linear profile whose first knot lies after t = 0


def _clamping_doc(first_knot):
    """``minimal_doc`` with a withdrawal whose first knot is at
    ``first_knot``."""
    return _mutated(("nodes", 1, "withdrawal"), {
        "type": "piecewise_linear",
        "knots": [[first_knot, 100.0], [first_knot + 60.0, 120.0]]})


def _user_warnings(call):
    """``call()`` and the messages of the UserWarnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [str(w.message) for w in caught
                    if issubclass(w.category, UserWarning)]


@pytest.mark.parametrize("command", [["validate"], ["steady"],
                                     ["run", "--out", "o"]],
                         ids=lambda c: c[0])
@pytest.mark.parametrize("first_knot, strict, reports", [
    (100.0, True, 1), (100.0, False, 0), (0.0, True, 0), (-30.0, True, 0)])
def test_strict_reports_a_clamping_profile_once(command, first_knot, strict,
                                                reports, tmp_path,
                                                monkeypatch):
    (tmp_path / "net.json").write_text(json.dumps(_clamping_doc(first_knot)))
    monkeypatch.chdir(tmp_path)
    argv = [command[0], "net.json", *command[1:]] + ["--strict"] * strict
    code, caught = _user_warnings(lambda: main(argv))
    assert code == 0 and len(caught) == reports
    for message in caught:
        assert message.startswith("nodes[1]: ") and "t = 100 s" in message


def test_strict_run_reports_once_and_writes_the_same_csv(tmp_path):
    doc = _clamping_doc(100.0)
    doc["simulation"]["t_end"] = 60.0
    (tmp_path / "net.json").write_text(json.dumps(doc))
    csv = {}
    for flags in ([], ["--strict"]):
        out = tmp_path / f"out{len(flags)}"
        code, caught = _user_warnings(lambda: main(
            ["run", str(tmp_path / "net.json"), "--out", str(out), *flags]))
        assert code == 0 and len(caught) == len(flags)
        csv[len(flags)] = (out / "run.csv").read_bytes()
    assert csv[0] == csv[1]


def test_strict_names_each_clamping_profile_by_location():
    doc = _clamping_doc(100.0)
    doc["nodes"][0]["pressure"] = {
        "type": "piecewise_linear", "period": 600.0,
        "knots": [[7.5, 6.5e6], [300.0, 6.4e6]]}
    doc["compressors"] = [{"pipe": "p", "side": "inlet", "ratio": {
        "type": "piecewise_linear", "knots": [[2e-3, 1.2], [60.0, 1.3]]}}]
    cfg, caught = _user_warnings(lambda: parse_config(doc, strict=True))
    assert [m.split(":")[0] for m in caught] == ["nodes[0]", "nodes[1]",
                                                 "compressors[0]"]
    assert "t = 7.5 s" in caught[0] and "t = 0.002 s" in caught[2]
    # the config reads the same with or without the report
    assert _user_warnings(lambda: parse_config(doc)) == (cfg, [])


def test_strict_prints_one_warning_line_per_clamping_profile(tmp_path):
    # the CLI's own format, as its error lines are, not Python's two-line
    # warning with a source line; run in a process of its own, since pytest
    # records warnings instead of printing them
    doc = _clamping_doc(100.0)
    doc["simulation"]["t_end"] = 60.0
    doc["compressors"] = [{"pipe": "p", "side": "inlet", "ratio": {
        "type": "piecewise_linear", "knots": [[2e-3, 1.2], [60.0, 1.3]]}}]
    (tmp_path / "net.json").write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    held = "profile holds its first value before its first knot at"
    expected = [f"warning: nodes[1]: {held} t = 100 s",
                f"warning: compressors[0]: {held} t = 0.002 s"]
    for command in (["validate"], ["steady"], ["run", "--out", "o"]):
        for strict in (False, True):
            argv = [command[0], "net.json", *command[1:]] + \
                ["--strict"] * strict
            proc = subprocess.run([sys.executable, "-m", "gasnetsim", *argv],
                                  cwd=tmp_path, env=env, capture_output=True,
                                  text=True)
            assert proc.returncode == 0, (argv, proc.stderr)
            assert proc.stderr.splitlines() == expected * strict, argv


def test_a_profile_strict_key_is_an_unknown_key(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(
        _mutated(*VALIDATION_ESCAPES["profile_strict_key"])))
    for flags in ([], ["--strict"]):
        assert main(["validate", str(config), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: validation: nodes[1]: bad profile (")
        assert "'strict'" in err and err.count("\n") == 1


@pytest.mark.parametrize("path, sha", [
    (bundled_config_path(),
     "035902fe1e38244f7cc680089eca9106f072b52a81fd834d4cb4989ea302340c"),
    (Path(__file__).with_name("data") / "mesh_small.json",
     "cd00727157d666892c195dc4239489a2d7e7a23157e0a716c29c67559648f4d0"),
], ids=["five_node", "mesh_small"])
@pytest.mark.parametrize("strict", [False, True])
def test_shipped_config_sha_is_pinned(path, sha, strict):
    # the golden fallback for a platform with no recorded hashes compares
    # numbers only; this pins the hashed document itself
    cfg, caught = _user_warnings(lambda: load_config(path, strict=strict))
    assert config_sha(cfg) == sha and caught == []


# config fuzz: documents one to three leaves away from a valid one
FUZZ_BASES = (minimal_doc(), json.loads(bundled_config_path().read_text()))
FUZZ_VALUES = st.recursive(
    st.floats() | st.integers(-10 ** 400, 10 ** 400) | st.booleans() |
    st.text(max_size=4) | st.sampled_from(["0", "1.5", "-2e3", "nan", "inf"])
    | st.none(),
    lambda inner: st.lists(inner, max_size=3) |
    st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def _leaves(node, path=()):
    """The paths to ``node``'s scalars and empty containers."""
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _leaves(value, path + (key,))
    else:
        yield path


@st.composite
def fuzzed_docs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    paths = draw(st.lists(st.sampled_from(list(_leaves(doc))), min_size=1,
                          max_size=3, unique=True))
    # the last first, so that dropping a list entry moves no later path
    for *parents, key in sorted(paths, reverse=True):
        target = functools.reduce(lambda node, k: node[k], parents, doc)
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(FUZZ_VALUES)
    return doc


@settings(derandomize=True, max_examples=300, deadline=None)
@given(doc=fuzzed_docs(), strict=st.booleans())
def test_fuzzed_config_is_refused_or_round_trips_and_builds(doc, strict):
    with warnings.catch_warnings(record=True) as caught, \
            pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("always")
        # a lower cell bound keeps each network small; validation and the
        # build both refuse a pipe above it
        patch.setattr(network, "MAX_CELLS", 10 ** 4)
        try:
            cfg = parse_config(doc, strict=strict)
        except ConfigError as exc:
            assert exc.violations
            assert all(isinstance(v, str) for v in exc.violations)
        else:
            again = parse_config(cfg.to_dict(), strict=strict)
            assert again == cfg and config_sha(again) == config_sha(cfg)
            try:
                build_network(cfg)
            except ConfigError:
                pass
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
