"""Link-level full-duplex massive MIMO simulator.

Building blocks: fading channel generators (`channel`), transmit-chain
impairment models (`impairments`), analog/digital beamforming
(`beamforming`), multi-tap analog plus nonlinear digital self-interference
cancellation (`cancellation`), pilot-based channel and direction estimation
(`estimation`), and the Monte Carlo link simulator (`link`).  The bundled
JSON configs define the four scenarios; `cli` reads them and the `fdmimo`
console script drives everything from them.
"""

from fdmimo.beamforming import ArchitectureConfig
from fdmimo.channel import AgingParams, ClusteredParams, RicianParams
from fdmimo.estimation import PilotConfig
from fdmimo.impairments import TxImpairmentConfig
from fdmimo.link import (
    CurvePoint,
    LinkBudget,
    ScenarioConfig,
    allowed_schemes,
    complexity_report,
    run_scenario,
    run_trial,
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
    # Loaded on first use: importing cli here runs it twice under `python -m fdmimo.cli`.
    if name == "default_scenario":
        from fdmimo.cli import default_scenario
        return default_scenario
    raise AttributeError(f"module 'fdmimo' has no attribute {name!r}")
