"""Config parsing, CSV formatting and command-line exit codes."""

import json
import re
import subprocess
import sys

import pytest

from fdmimo import link
from fdmimo.beamforming import SingularChannelError
from fdmimo.cli import CSV_HEADER, ConfigError, format_csv, main, parse_config
from fdmimo.link import CurvePoint, TrialError, default_scenario, run_scenario


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


def test_run_out_needs_a_writable_path(tmp_path, monkeypatch, capsys):
    src = _write(
        tmp_path,
        {"scenario": "a", "trials": 1, "power_sweep_dbm": [20], "schemes": ["hd"]},
    )
    with monkeypatch.context() as patch:

        def no_sweep(cfg):
            raise AssertionError("the sweep ran before --out was checked")

        patch.setattr("fdmimo.cli.run_scenario", no_sweep)
        missing = tmp_path / "missing" / "curve.csv"
        assert main(["run", "--config", src, "--out", str(missing)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and str(missing) in err
    # The directory exists but the path cannot be written: still a config error.
    taken = tmp_path / "taken"
    taken.mkdir()
    assert main(["run", "--config", src, "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("scenario", ["c", "d"])
def test_hd_pilot_fraction_above_one_is_rejected(tmp_path, capsys, scenario):
    src = _write(tmp_path, {"scenario": scenario, "hd_pilot_fraction": 1.5})
    assert main(["run", "--config", src]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "hd_pilot_fraction" in err


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


@pytest.mark.parametrize(
    "payload, key",
    [
        ({"seed": 1.7}, "'seed'"),  # not integral
        ({"trials": True}, "'trials'"),  # a bool is not a number
        ({"impairments": {"enabled": "false"}}, "'impairments.enabled'"),
        ({"architecture": {"num_taps": 2.5}}, "'architecture.num_taps'"),
        ({"power_sweep_dbm": [0, False]}, "'power_sweep_dbm[1]'"),
    ],
    ids=["float-seed", "bool-trials", "string-bool", "float-taps", "bool-power"],
)
def test_exit_code_one_on_mistyped_values(tmp_path, capsys, payload, key):
    src = _write(tmp_path, {"scenario": "a", **payload})
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config(src)
    assert main(["run", "--config", src]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err


@pytest.mark.parametrize(
    "payload, key",
    [
        ({"scenario": "c", "kappa_si_db": float("nan")}, "'kappa_si_db'"),
        ({"budget": {"dl_pathloss_db": float("nan")}}, "'budget.dl_pathloss_db'"),
        ({"impairments": {"irr_db": float("nan")}}, "'impairments.irr_db'"),
        ({"aging": {"doppler_hz": float("nan"), "slot_s": 1e-3}}, "'aging.doppler_hz'"),
    ],
    ids=["kappa-si", "dl-pathloss", "irr", "doppler"],
)
def test_exit_code_one_on_nan_values(tmp_path, capsys, payload, key):
    # JSON's NaN used to reach the simulation and exit 2 from an SVD or
    # the aging correlation check.
    src = _write(tmp_path, {"scenario": "a", **payload})
    assert "NaN" in (tmp_path / "cfg.json").read_text()
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config(src)
    assert main(["run", "--config", src]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err


@pytest.mark.parametrize(
    "payload, key",
    [
        ({"budget": {"dl_pathloss_db": 10**400}}, "'budget.dl_pathloss_db'"),
        ({"kappa_si_db": 10**400}, "'kappa_si_db'"),
        ({"power_sweep_dbm": [10**400, 20]}, "'power_sweep_dbm[0]'"),
    ],
    ids=["dl-pathloss", "kappa-si", "power-sweep"],
)
def test_exit_code_one_on_integers_beyond_float_range(tmp_path, capsys, payload, key):
    # float() of such an integer raises OverflowError, which used to escape
    # the config check as a traceback.
    src = _write(tmp_path, {"scenario": "a", **payload})
    assert "1" + "0" * 400 in (tmp_path / "cfg.json").read_text()
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config(src)
    assert main(["validate", "--config", src]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def test_exit_code_one_on_integer_past_the_digit_limit(tmp_path, capsys):
    # Python refuses to parse integers of more than 4300 digits.
    path = tmp_path / "cfg.json"
    path.write_text('{"scenario": "a", "kappa_si_db": 1' + "0" * 5000 + "}")
    assert main(["validate", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_dropped_pilot_stream_count_is_rejected(tmp_path, capsys):
    src = _write(tmp_path, {"scenario": "a", "pilots": {"num_streams": 4}})
    assert main(["run", "--config", src]) == 1
    err = capsys.readouterr().err
    assert "unknown key 'num_streams' in section 'pilots'" in err


@pytest.mark.parametrize(
    "payload, key, bound",
    [
        ({"power_sweep_dbm": [0, 1e6]}, "power_sweep_dbm[1]", "[-300, 300] dBm"),
        ({"budget": {"bs_noise_dbm": 1e6}}, "bs_noise_dbm", "[-300, 300] dBm"),
        ({"budget": {"ue_noise_dbm": -1e6}}, "ue_noise_dbm", "[-300, 300] dBm"),
        ({"budget": {"ul_power_dbm": 1e6}}, "ul_power_dbm", "[-300, 300] dBm"),
        ({"budget": {"rx_saturation_dbm": 1e6}}, "rx_saturation_dbm", "[-300, 300] dBm"),
        ({"pilots": {"power_dbm": 1e6}}, "power_dbm", "[-300, 300] dBm"),
        ({"impairments": {"drive_dbm": 1e6}}, "drive_dbm", "[-300, 300] dBm"),
        ({"impairments": {"iip3_dbm": 1e6}}, "iip3_dbm", "[-300, 300] dBm"),
        ({"impairments": {"iip3_dbm": float("-inf")}}, "iip3_dbm", "[-300, 300] dBm"),
        # Within the dBm range but below thermal noise in 1 Hz: these used
        # to fail at run time with an indefinite noise covariance.
        ({"budget": {"bs_noise_dbm": -280}}, "bs_noise_dbm", "-174 dBm"),
        ({"budget": {"bs_noise_dbm": -174.5}}, "bs_noise_dbm", "-174 dBm"),
        ({"budget": {"ue_noise_dbm": -220}}, "ue_noise_dbm", "-174 dBm"),
    ],
    ids=["sweep", "bs-noise", "ue-noise", "ul-power", "saturation", "pilot-power", "drive",
         "iip3", "iip3-minus-inf", "bs-noise-thermal", "bs-noise-just-below-thermal",
         "ue-noise-thermal"],
)
def test_exit_code_one_on_unbounded_dbm(tmp_path, capsys, payload, key, bound):
    src = _write(tmp_path, {"scenario": "a", **payload})
    assert main(["run", "--config", src]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err and bound in err
    section = next(iter(payload))
    if section != "power_sweep_dbm":
        assert f"'{section}'" in err


def test_integral_floats_read_as_ints(tmp_path):
    cfg = parse_config(
        _write(tmp_path, {"scenario": "a", "trials": 200.0, "architecture": {"num_taps": 4.0}})
    )
    assert cfg.trials == 200 and type(cfg.trials) is int
    assert cfg.arch.num_taps == 4 and type(cfg.arch.num_taps) is int


def test_failing_trial_names_where_it_failed(tmp_path, monkeypatch, capsys):
    payload = {
        "scenario": "a",
        "seed": 3,
        "trials": 2,
        "power_sweep_dbm": [20, 30],
        "schemes": ["hd"],
    }
    original = link.mmse_combiner
    calls = []

    def third_call_fails(*args, **kwargs):
        # hd calls the combiner once per (trial, power): call 3 is trial 1 at 20 dBm
        calls.append(None)
        if len(calls) == 3:
            raise SingularChannelError("planted singular channel")
        return original(*args, **kwargs)

    monkeypatch.setattr(link, "mmse_combiner", third_call_fails)
    fields = ("scenario a", "seed 3", "trial 1", "power 20 dBm", "scheme hd", "planted singular")
    with pytest.raises(TrialError) as info:
        run_scenario(parse_config(_write(tmp_path, payload)))
    assert all(f in str(info.value) for f in fields), str(info.value)
    assert isinstance(info.value.__cause__, SingularChannelError)

    calls.clear()
    assert main(["run", "--config", _write(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert "runtime error" in err
    assert all(f in err for f in fields), err


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
