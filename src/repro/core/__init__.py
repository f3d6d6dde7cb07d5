"""REKS: the paper's contribution — an RL framework over the session KG.

The pipeline (Fig. 2): a wrapped non-explainable SR model produces the
session representation ``Se``; the policy network fuses ``Se`` with the
current KG position into a state (Eq. 3) and walks the graph from the
session's last item; beam-searched paths simultaneously yield the
recommendation list (aggregated path probability ``ŷ``) and one
semantic explanation path per recommended item.
"""

from repro.core.config import REKSConfig
from repro.core.environment import KGEnvironment, Rollout, RolloutWorkspace
from repro.core.policy import PolicyNetwork
from repro.core.rewards import RewardComputer, RewardWeights
from repro.core.agent import REKSAgent
from repro.core.trainer import REKSTrainer
from repro.core.explain import Explanation, RecommendedItem, Explainer
from repro.core.beam import BeamDiagnostics, beam_diagnostics, enumerate_paths
from repro.core.presets import paper_config

__all__ = [
    "REKSConfig",
    "KGEnvironment",
    "Rollout",
    "RolloutWorkspace",
    "PolicyNetwork",
    "RewardComputer",
    "RewardWeights",
    "REKSAgent",
    "REKSTrainer",
    "Explanation",
    "RecommendedItem",
    "Explainer",
    "BeamDiagnostics",
    "beam_diagnostics",
    "enumerate_paths",
    "paper_config",
]
