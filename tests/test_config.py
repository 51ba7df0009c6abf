"""The config module computes with `math` what the simulator computes with
numpy, to the same values, and the package serves the simulator's names
on first use."""

import numpy as np
import pytest

import fdmimo
from fdmimo import cli
from fdmimo.config import PA_TURNOVER_DB, check_dbm


def test_integer_bound_is_numpys_array_index_bound():
    assert cli._INT_MAX == np.iinfo(np.intp).max


def test_pa_turnover_is_numpys_10_log10_4():
    assert PA_TURNOVER_DB == 10 * np.log10(4.0)


def test_check_dbm_rejects_what_is_not_a_finite_bounded_power():
    for bad in (float("nan"), float("inf"), -float("inf"), 301.0, -301.0, np.float64("nan"),
                np.float64(np.inf), np.float64(301.0)):
        with pytest.raises(ValueError, match="finite power within"):
            check_dbm("p", bad)
    for good in (0.0, 300.0, -300, np.float64(-300.0), np.float64(12.5)):
        check_dbm("p", good)


def test_the_package_serves_every_public_name():
    from fdmimo import ClusteredParams, RicianParams, default_scenario, run_scenario, run_trial
    from fdmimo.channel import ClusteredParams as clustered, RicianParams as rician
    from fdmimo.cli import default_scenario as default
    from fdmimo.link import run_scenario as run, run_trial as trial

    assert (ClusteredParams, RicianParams, default_scenario, run_scenario, run_trial) == (
        clustered, rician, default, run, trial
    )
    for name in fdmimo.__all__:
        assert getattr(fdmimo, name) is not None, name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fdmimo.no_such_name


def test_dir_lists_the_names_served_on_first_use():
    assert set(fdmimo.__all__) <= set(dir(fdmimo))
