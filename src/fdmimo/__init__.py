"""Link-level full-duplex massive MIMO simulator.

Building blocks: fading channel generators (`channel`), transmit-chain
impairment models (`impairments`), analog/digital beamforming
(`beamforming`), multi-tap analog plus nonlinear digital self-interference
cancellation (`cancellation`), pilot-based channel and direction estimation
(`estimation`), and the Monte Carlo link simulator with its scenario
catalogue (`link`).  The `fdmimo` console script drives everything from
JSON configs.
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
    default_scenario,
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
