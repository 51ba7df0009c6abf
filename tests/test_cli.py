"""Config parsing, CSV formatting and command-line exit codes."""

import dataclasses
import json
import re
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest
from conftest import EVERY_KEY, UNREAD, config_json
from hypothesis import given, settings
from hypothesis import strategies as st

from fdmimo import link
from fdmimo.beamforming import SingularChannelError
from fdmimo.cli import CSV_HEADER, ConfigError, default_scenario, format_csv, main, parse_config
from fdmimo.config import PA_TURNOVER_DB, CurvePoint, allowed_schemes
from fdmimo.link import TrialError, run_scenario


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
    # Only scenario c ages its channels: elsewhere even a null is rejected.
    with pytest.raises(ConfigError, match="scenario 'a' does not take 'aging'"):
        parse_config(_write(tmp_path, {"scenario": "a", "aging": None}))
    with pytest.raises(ConfigError, match="'aging' must be a JSON object"):
        parse_config(_write(tmp_path, {"scenario": "c", "aging": None}))
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


def test_complexity_takes_only_a_config(capsys):
    # It reads no seed, trials or schemes, so it takes no flag for them.
    with pytest.raises(SystemExit) as exc:
        main(["complexity", "--config", "scenario_b", "--seed", "3"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


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

        patch.setattr("fdmimo.link.run_scenario", no_sweep)
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

    monkeypatch.setattr("fdmimo.link.run_scenario", failing_sweep)
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
        ({"scenario": "c", "aging": {"doppler_hz": float("nan")}}, "'aging.doppler_hz'"),
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
    "aging",
    [
        {"doppler_hz": 0, "slot_s": float("inf")},
        {"doppler_hz": float("inf"), "slot_s": 1e-3},
        {"doppler_hz": 1e300, "slot_s": 1e300},
    ],
    ids=["infinite-slot", "infinite-doppler", "infinite-product"],
)
def test_exit_code_one_on_non_finite_aging(tmp_path, capsys, aging):
    # These used to pass `validate`, then exit 2 from the aging step's rho check.
    src = _write(tmp_path, {"scenario": "c", "trials": 2, "aging": aging})
    with pytest.raises(ConfigError, match="'aging'"):
        parse_config(src)
    for command in ("validate", "run"):
        assert main([command, "--config", src]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "'aging'" in err


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


@pytest.mark.parametrize(
    "content", [b'{"scenario": "\xff"}', b"[" * 100000], ids=["not-utf8", "nested-past-recursion"]
)
def test_exit_code_one_on_unreadable_config(tmp_path, capsys, content):
    # A decode error and a RecursionError used to escape as tracebacks.
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"fdmimo: config error: {path}: not valid JSON"), err


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
        # Scenario a does not read the UL power; c does.
        ({"budget": {"ul_power_dbm": 1e6}, "scenario": "c"}, "ul_power_dbm", "[-300, 300] dBm"),
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
        # Rician K-factors that used to pass `validate`, then exit 2 from
        # an SVD, a non-finite rate or an OverflowError in the draw.
        ({"kappa_si_db": float("inf")}, "kappa_si_db", "[-300, 300] dB"),
        ({"kappa_ue_db": float("inf"), "scenario": "d"}, "kappa_ue_db", "[-300, 300] dB"),
        ({"kappa_ue_db": 1e308, "scenario": "d"}, "kappa_ue_db", "[-300, 300] dB"),
        ({"kappa_si_db": 1e300, "scenario": "b"}, "kappa_si_db", "[-300, 300] dB"),
        ({"kappa_si_db": float("-inf")}, "kappa_si_db", "[-300, 300] dB"),
    ],
    ids=["sweep", "bs-noise", "ue-noise", "ul-power", "saturation", "pilot-power", "drive",
         "iip3", "iip3-minus-inf", "bs-noise-thermal", "bs-noise-just-below-thermal",
         "ue-noise-thermal", "kappa-si-inf", "kappa-ue-inf", "kappa-ue-huge", "kappa-si-huge",
         "kappa-si-minus-inf"],
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


def _members(h):
    """The bytes of each matrix in a stack of them."""
    h = np.asarray(h)
    return {m.tobytes() for m in h.reshape(-1, *h.shape[-2:])}


def test_failing_trial_names_where_it_failed(tmp_path, monkeypatch, capsys):
    payload = {
        "scenario": "a",
        "seed": 3,
        "trials": 2,
        "power_sweep_dbm": [20, 30],
        "schemes": ["hd"],
    }
    cfg = parse_config(_write(tmp_path, payload))
    original = link.mmse_combiner
    # A clean pass records the channels that trial 1 at 20 dBm hands the
    # combiner; the fault is planted on those inputs, however they are stacked.
    planted = set()

    def record(h, noise_cov):
        planted.update(_members(h))
        return original(h, noise_cov)

    monkeypatch.setattr(link, "mmse_combiner", record)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=3, spawn_key=(1,)))
    link.run_trial(cfg, 20.0, "hd", rng)
    assert planted

    def fails_on_planted(h, noise_cov):
        if planted & _members(h):
            raise SingularChannelError("planted singular channel")
        return original(h, noise_cov)

    monkeypatch.setattr(link, "mmse_combiner", fails_on_planted)
    fields = ("scenario a", "seed 3", "trial 1", "power 20 dBm", "scheme hd", "planted singular")
    with pytest.raises(TrialError) as info:
        run_scenario(cfg)
    assert all(f in str(info.value) for f in fields), str(info.value)
    assert isinstance(info.value.__cause__, SingularChannelError)

    assert main(["run", "--config", _write(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert "runtime error" in err
    assert all(f in err for f in fields), err


def test_non_finite_rate_exits_two_naming_the_point(tmp_path, monkeypatch, capsys):
    # A rate that leaves the float range is a simulation fault, not a CSV
    # entry: the trial names the first such (power, scheme) and run exits 2.
    payload = {
        "scenario": "a", "trials": 1, "power_sweep_dbm": [20, 30], "schemes": ["proposed", "hd"],
    }
    original = link.dl_rate

    def inf_at_one_watt(h, w, p, noise, cov=None):
        return np.where(np.asarray(p) == 1.0, np.inf, original(h, w, p, noise, cov))

    monkeypatch.setattr(link, "dl_rate", inf_at_one_watt)
    with pytest.raises(TrialError, match="trial 0, power 30 dBm, scheme proposed: rate is not fin"):
        run_scenario(parse_config(_write(tmp_path, payload)))
    assert main(["run", "--config", _write(tmp_path, payload)]) == 2
    assert "power 30 dBm, scheme proposed: rate is not finite (inf)" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "scenario, key", [(s, k) for s, keys in UNREAD.items() for k in keys],
    ids=[f"{s}-{k}" for s, keys in UNREAD.items() for k in keys],
)
def test_unread_key_exits_one(tmp_path, capsys, scenario, key):
    # The whole aging section is set, as scenario c's default.
    keys = ["aging.doppler_hz", "aging.slot_s"] if key == "aging" else [key]
    src = _write(tmp_path, config_json(default_scenario(scenario), keys))
    message = f"scenario {scenario!r} does not take {key!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(src)
    assert main(["validate", "--config", src]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and repr(key) in err


@pytest.mark.parametrize("scenario", "abcd")
def test_bf_mode_is_an_unknown_key(tmp_path, capsys, scenario):
    # The geometry alone makes an array fully digital or hybrid.
    src = _write(tmp_path, {"scenario": scenario, "architecture": {"bf_mode": "digital"}})
    message = "unknown key 'bf_mode' in section 'architecture'"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(src)
    assert main(["validate", "--config", src]) == 1
    assert message in capsys.readouterr().err


def test_accepted_keys_are_every_key_but_the_unread(accepted_keys):
    for scenario, keys in UNREAD.items():
        unread = {k for k in EVERY_KEY if k in keys or k.split(".")[0] in keys}
        assert set(accepted_keys[scenario]) == set(EVERY_KEY) - unread


def test_bundled_configs_list_exactly_the_accepted_keys(accepted_keys):
    # Each bundled file is its scenario's defaults written back under every
    # accepted key; with test_bundled_configs_match_reference_defaults, that
    # written-back config parses back equal.
    for code in "abcd":
        text = (resources.files("fdmimo") / "configs" / f"scenario_{code}.json").read_text()
        assert json.loads(text) == config_json(default_scenario(code), accepted_keys[code])


@st.composite
def small_overrides(draw):
    """A bundled scenario with a few of the keys every scenario reads changed."""
    cfg = default_scenario(draw(st.sampled_from("abcd")))
    arch, bud, imp = cfg.arch, cfg.budget, cfg.impairments
    names = st.sampled_from(allowed_schemes(cfg.scenario))
    schemes = draw(st.lists(names, min_size=1, unique=True))
    dbm = st.floats(-100.0, 100.0, allow_nan=False)
    # The PA model accepts no drive at or past its turnover under the IIP3.
    drive = st.floats(-100.0, imp.iip3_dbm - PA_TURNOVER_DB, exclude_max=True)
    return dataclasses.replace(
        cfg,
        seed=draw(st.integers(0, 2**70)),
        trials=draw(st.integers(1, 1000)),
        schemes=tuple(schemes),
        power_sweep_dbm=tuple(draw(st.lists(dbm, min_size=1, max_size=4, unique=True))),
        arch=dataclasses.replace(arch, num_taps=draw(st.integers(0, arch.n_tx_rf * arch.n_rx_rf))),
        budget=dataclasses.replace(bud, si_isolation_db=draw(st.floats(0.0, 200.0))),
        impairments=dataclasses.replace(imp, enabled=draw(st.booleans()), drive_dbm=draw(drive)),
        kappa_si_db=draw(st.floats(-50.0, 50.0)),
        packet_symbols=draw(st.integers(400, 5000)),
    )


@settings(max_examples=40, deadline=None)
@given(cfg=small_overrides())
def test_written_back_overrides_parse_back_equal(tmp_path_factory, accepted_keys, cfg):
    path = tmp_path_factory.mktemp("roundtrip") / "cfg.json"
    path.write_text(json.dumps(config_json(cfg, accepted_keys[cfg.scenario])))
    assert parse_config(str(path)) == cfg


def test_too_few_hd_pilots_for_the_ues_exits_one(tmp_path, capsys):
    # 0.005 of a 400-symbol packet is 2 half-duplex pilots for 4 UEs; this
    # passed validation and then exited 2 from the pilot builder.
    src = _write(tmp_path, {"scenario": "c", "trials": 2, "hd_pilot_fraction": 0.005})
    for command in ("validate", "run"):
        assert main([command, "--config", src]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "hd_pilot_fraction" in err
    # Four pilots, one per UE, are enough.
    assert parse_config(_write(tmp_path, {"scenario": "c", "hd_pilot_fraction": 0.01}))


@pytest.mark.parametrize("schemes", [["proposed"], ["ideal-csi"]], ids=["proposed", "ideal-csi"])
def test_scenario_c_with_unequal_arrays_exits_one(tmp_path, capsys, schemes):
    # c's DL channel is its UL channel transposed.  With 4 TX and 8 RX
    # antennas a full-duplex scheme exited 2 from a matmul, and ideal-csi
    # alone ran, precoding over 8 antennas.
    payload = {"scenario": "c", "trials": 2, "architecture": {"n_tx": 4, "n_tx_rf": 4}}
    src = _write(tmp_path, {**payload, "schemes": schemes})
    for command in ("validate", "run"):
        assert main([command, "--config", src]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "n_tx must equal n_rx" in err


def test_scenario_d_with_a_hybrid_receive_side_exits_one(tmp_path, capsys):
    # d receives on each antenna's own chain.  With 4 receive antennas on 2
    # chains this passed validation and then exited 2 from a broadcast of
    # the 4-row SI channel against the 2-row noise.
    arch = {"n_tx": 64, "n_rx": 4, "n_tx_rf": 2, "n_rx_rf": 2, "phase_bits": 3, "num_taps": 2}
    src = _write(tmp_path, {"scenario": "d", "trials": 2, "architecture": arch})
    for command in ("validate", "run"):
        assert main([command, "--config", src]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "n_rx must equal n_rx_rf" in err


def test_too_few_pilots_for_the_ul_streams_exits_one(tmp_path, capsys):
    payload = {"scenario": "a", "ul_ue_antennas": 8, "ul_streams": 8, "pilots": {"num_pilots": 4}}
    src = _write(tmp_path, payload)
    for command in ("validate", "run"):
        assert main([command, "--config", src]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "pilots.num_pilots" in err


def test_pa_drive_past_the_turnover_exits_one(tmp_path, capsys):
    # Driven 46 dB over an IIP3 of -33 dBm, the cubic PA's output grows
    # without bound; this ran and could exit 0 with inf in the CSV.
    payload = {"scenario": "b", "schemes": ["hd"], "impairments": {"drive_dbm": 13, "iip3_dbm": -33}}
    src = _write(tmp_path, payload)
    for command in ("validate", "run"):
        assert main([command, "--config", src]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "drive_dbm" in err and "turns over" in err


def test_repeated_schemes_exit_one(capsys):
    # A repeated scheme ran, exited 0 and wrote each of its rows twice.
    for command in ("validate", "run"):
        assert main([command, "--config", "scenario_a", "--schemes", "proposed,proposed"]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "schemes must not repeat" in err


@pytest.mark.parametrize(
    "sweep", [[0, 0], [0.0, -0.0], [10, 20, 10.0]], ids=["equal", "signed-zero", "apart"]
)
def test_repeated_powers_exit_one(tmp_path, capsys, sweep):
    # A repeated power ran, exited 0 and wrote each of its rows twice.
    src = _write(tmp_path, {"scenario": "a", "trials": 1, "power_sweep_dbm": sweep})
    for command in ("validate", "run"):
        assert main([command, "--config", src]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "power_sweep_dbm must not repeat" in err


@pytest.mark.parametrize(
    "payload, key",
    [
        ({"trials": 10**400}, "'trials'"),
        ({"packet_symbols": 2**63}, "'packet_symbols'"),
        ({"pilots": {"num_pilots": 1e300}}, "'pilots.num_pilots'"),
    ],
    ids=["trials", "packet", "pilots-float"],
)
def test_exit_code_one_on_integers_beyond_index_range(tmp_path, capsys, payload, key):
    # Such a count used to pass validation and exit 2 from numpy at run time.
    src = _write(tmp_path, {"scenario": "a", **payload})
    for command in ("validate", "run"):
        assert main([command, "--config", src]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and key in err


def test_trials_flag_beyond_index_range_exits_one(capsys):
    assert main(["validate", "--config", "scenario_a", "--trials", str(10**30)]) == 1
    assert "'--trials'" in capsys.readouterr().err


def test_seed_takes_any_nonnegative_integer(tmp_path):
    assert parse_config(_write(tmp_path, {"scenario": "a", "seed": 10**400})).seed == 10**400
