"""Core stake-dynamics engine shared by the leak, Monte-Carlo and sim layers.

One implementation of the paper's per-epoch stake forces over flat arrays —
Equations 1–2 (inactivity scores and penalties, score floor, 16.75-ETH
ejection), attestation rewards/penalties (leak-gated, capped at the maximum
effective balance), slashing with exit scheduling and Casper FFG
justification/finalization over flat checkpoint-vote arrays — with a
vectorized ``"numpy"`` backend and a pure-loop ``"python"`` reference,
plus the seeded parallel task runner and trial-batched engine used by the
Monte-Carlo experiments and sweeps.
"""

from repro.core.backend import (
    EpochOutcome,
    FinalityEvent,
    FinalityRules,
    FinalityUpdate,
    NumpyBackend,
    PythonBackend,
    RewardOutcome,
    RewardRules,
    SlashingEpochOutcome,
    SlashingRules,
    StakeBackend,
    StakeRules,
    available_backends,
    get_backend,
    leak_mask,
)
from repro.core.attestation_batch import AttestationBatch, AttestationColumns
from repro.core.ffg import FinalityTracker, FlatVotePool, justified_at
from repro.core.stake_engine import BatchedStakeEngine, StakeEngine
from repro.core.trials import (
    DEFAULT_CHUNK_SIZE,
    TaskChunk,
    TrialChunk,
    group_chunks,
    plan_chunks,
    plan_task_chunks,
    resolve_jobs,
    run_tasks,
)

__all__ = [
    "AttestationBatch",
    "AttestationColumns",
    "BatchedStakeEngine",
    "DEFAULT_CHUNK_SIZE",
    "EpochOutcome",
    "FinalityEvent",
    "FinalityRules",
    "FinalityTracker",
    "FinalityUpdate",
    "FlatVotePool",
    "NumpyBackend",
    "PythonBackend",
    "RewardOutcome",
    "RewardRules",
    "SlashingEpochOutcome",
    "SlashingRules",
    "StakeBackend",
    "StakeEngine",
    "StakeRules",
    "TaskChunk",
    "TrialChunk",
    "available_backends",
    "get_backend",
    "group_chunks",
    "justified_at",
    "leak_mask",
    "plan_chunks",
    "plan_task_chunks",
    "resolve_jobs",
    "run_tasks",
]
