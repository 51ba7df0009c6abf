"""Config parsing, CSV formatting and command-line exit codes."""

import json
import subprocess
import sys

import pytest

from fdmimo.cli import CSV_HEADER, ConfigError, format_csv, main, parse_config
from fdmimo.link import CurvePoint, default_scenario


def _write(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_bundled_configs_match_reference_defaults():
    for code in "abcd":
        assert parse_config(f"scenario_{code}") == default_scenario(code)
        assert parse_config(f"scenario_{code}.json") == default_scenario(code)


def test_partial_config_merges_into_defaults(tmp_path):
    src = _write(
        tmp_path,
        {
            "scenario": "a",
            "trials": 3,
            "architecture": {"num_taps": 4},
            "budget": {"si_isolation_db": 50.0},
            "power_sweep_dbm": [0, 10],
            "schemes": ["hd"],
        },
    )
    cfg = parse_config(src)
    base = default_scenario("a")
    assert cfg.trials == 3
    assert cfg.arch.num_taps == 4
    assert cfg.arch.n_tx == base.arch.n_tx
    assert cfg.budget.si_isolation_db == 50.0
    assert cfg.budget.dl_pathloss_db == base.budget.dl_pathloss_db
    assert cfg.power_sweep_dbm == (0.0, 10.0)
    assert cfg.schemes == ("hd",)
    assert cfg.seed == base.seed


def test_aging_section_and_null(tmp_path):
    cfg = parse_config(_write(tmp_path, {"scenario": "a", "aging": None}))
    assert cfg.aging is None
    cfg = parse_config(_write(tmp_path, {"scenario": "c", "aging": {"doppler_hz": 10.0}}))
    assert cfg.aging.doppler_hz == 10.0
    assert cfg.aging.slot_s == default_scenario("c").aging.slot_s


def test_config_error_messages(tmp_path):
    with pytest.raises(ConfigError, match="botch"):
        parse_config(_write(tmp_path, {"scenario": "a", "botch": 1}))
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(_write(tmp_path, {"scenario": "a", "architecture": {"bogus": 1}}))
    with pytest.raises(ConfigError, match="scenario"):
        parse_config(_write(tmp_path, {"trials": 5}))
    with pytest.raises(ConfigError, match="scenario"):
        parse_config(_write(tmp_path, {"scenario": "q"}))
    with pytest.raises(ConfigError, match="trials"):
        parse_config(_write(tmp_path, {"scenario": "a", "trials": "ten"}))
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, {"scenario": "a", "schemes": ["ideal-csi"]}))
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, {"scenario": "a", "power_sweep_dbm": []}))
    with pytest.raises(ConfigError, match="not found"):
        parse_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        parse_config(str(bad))


def test_format_csv_golden():
    points = [
        CurvePoint(10.0, "hd", 1.234567, 0.01, 5),
        CurvePoint(0.0, "benchmark", 2.0, 0.0, 5),
    ]
    assert format_csv(points) == (
        "power_dbm,scheme,mean_rate_bps_hz,std_err,trials\n"
        "0,benchmark,2,0,5\n"
        "10,hd,1.23457,0.01,5\n"
    )
    assert format_csv([]) == CSV_HEADER + "\n"


def test_validate_command(capsys):
    assert main(["validate", "--config", "scenario_b"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: scenario b")
    assert "100 trials" in out


def test_complexity_command(capsys):
    assert main(["complexity", "--config", "scenario_b"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {
        "phase_shifters_partially_connected": 96,
        "phase_shifters_fully_connected": 320,
        "taps_full_antenna": 2048,
        "taps_full_chain": 8,
        "taps_configured": 4,
    }


def test_run_command_to_file(tmp_path, capsys):
    src = _write(
        tmp_path,
        {"scenario": "a", "trials": 2, "power_sweep_dbm": [10, 30], "schemes": ["hd"]},
    )
    out = tmp_path / "curve.csv"
    assert main(["run", "--config", src, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "wrote" in captured.err
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.endswith(",2")  # trial count in the last column


def test_run_command_to_stdout(tmp_path, capsys):
    src = _write(
        tmp_path,
        {"scenario": "a", "trials": 1, "power_sweep_dbm": [20], "schemes": ["hd"]},
    )
    assert main(["run", "--config", src]) == 0
    out = capsys.readouterr().out
    assert out.startswith(CSV_HEADER)
    assert ",hd," in out


def test_run_command_overrides(tmp_path):
    src = _write(
        tmp_path,
        {"scenario": "a", "trials": 2, "power_sweep_dbm": [20], "schemes": ["hd"]},
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["run", "--config", src, "--out", str(out1)]) == 0
    assert main(["run", "--config", src, "--seed", "99", "--out", str(out2)]) == 0
    assert out1.read_text() != out2.read_text()
    assert main(["run", "--config", src, "--trials", "1", "--out", str(out1)]) == 0
    assert out1.read_text().splitlines()[1].endswith(",1")


def test_exit_code_one_on_config_errors(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert main(["run", "--config", _write(tmp_path, {"scenario": "a", "junk": 1})]) == 1
    assert main(["validate", "--config", "scenario_a", "--schemes", "bogus"]) == 1
    assert main(["validate", "--config", "scenario_a", "--trials", "0"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err


def test_exit_code_one_on_bad_flags():
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # --config is required
    assert exc.value.code == 1


def test_exit_code_two_on_runtime_failure(tmp_path, monkeypatch, capsys):
    src = _write(
        tmp_path,
        {"scenario": "a", "trials": 1, "power_sweep_dbm": [20], "schemes": ["hd"]},
    )

    def failing_sweep(cfg):
        raise RuntimeError("rate exceeded its bound")

    monkeypatch.setattr("fdmimo.cli.run_scenario", failing_sweep)
    assert main(["run", "--config", src]) == 2
    assert "runtime error: rate exceeded its bound" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["x", "0", "-2", "1.5"])
def test_exit_code_one_on_bad_thread_count(tmp_path, monkeypatch, capsys, value):
    src = _write(
        tmp_path,
        {"scenario": "a", "trials": 1, "power_sweep_dbm": [20], "schemes": ["hd"]},
    )
    monkeypatch.setenv("FDMIMO_THREADS", value)
    assert main(["run", "--config", src]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "FDMIMO_THREADS" in err and repr(value) in err


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fdmimo.cli", "validate", "--config", "scenario_a"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("ok: scenario a")
    proc = subprocess.run(
        [sys.executable, "-m", "fdmimo.cli"], capture_output=True, text=True
    )
    assert proc.returncode == 1
