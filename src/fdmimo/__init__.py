"""Link-level full-duplex massive MIMO simulator.

Building blocks: the scenario config types (`config`), fading channel
generators (`channel`), transmit-chain impairment models (`impairments`),
analog/digital beamforming (`beamforming`), multi-tap analog plus
nonlinear digital self-interference cancellation (`cancellation`),
pilot-based channel and direction estimation (`estimation`), the Monte
Carlo link simulator (`link`) and the processes its trials run in
(`trials`).  The bundled JSON configs define the four scenarios; `cli`
reads them and the `fdmimo` console script drives everything from them.

Importing the package loads `config` alone, which needs no numpy; the
names of the simulator modules load on first use.
"""

from fdmimo.config import (
    AgingParams,
    ArchitectureConfig,
    CurvePoint,
    LinkBudget,
    PilotConfig,
    ScenarioConfig,
    TxImpairmentConfig,
    allowed_schemes,
    complexity_report,
)

__all__ = [
    "AgingParams",
    "ArchitectureConfig",
    "ClusteredParams",
    "CurvePoint",
    "LinkBudget",
    "PilotConfig",
    "RicianParams",
    "ScenarioConfig",
    "TxImpairmentConfig",
    "allowed_schemes",
    "complexity_report",
    "default_scenario",
    "run_scenario",
    "run_trial",
]

__version__ = "0.1.0"


def __getattr__(name):
    # The simulator's names load their module on first use: it imports
    # numpy, and importing cli here would run it twice under
    # `python -m fdmimo.cli`.
    if name in ("run_scenario", "run_trial"):
        from fdmimo.link import run_scenario, run_trial
    elif name in ("ClusteredParams", "RicianParams"):
        from fdmimo.channel import ClusteredParams, RicianParams
    elif name == "default_scenario":
        from fdmimo.cli import default_scenario
    else:
        raise AttributeError(f"module 'fdmimo' has no attribute {name!r}")
    return locals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
