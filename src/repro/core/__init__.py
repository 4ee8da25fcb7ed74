"""The OMPC runtime: device plugin, event system, data manager, scheduler.

This is the paper's primary contribution (§3–§4): an OpenMP offloading
device that models a *cluster node*, built from

* a libomptarget-style device-plugin interface (:mod:`repro.core.device`)
  and its cluster implementation (:mod:`repro.core.plugin`),
* an MPI-based distributed event system (:mod:`repro.core.events`) with
  per-event tag isolation (:mod:`repro.core.tags`),
* a data manager that keeps buffer copies coherent across nodes and
  forwards worker-to-worker (:mod:`repro.core.datamanager`),
* a HEFT-based static task scheduler with the paper's adaptations
  (:mod:`repro.core.scheduler`), and
* the orchestrating runtime (:mod:`repro.core.runtime`).
"""

from repro.core.config import OMPCConfig
from repro.core.datamanager import DataManager
from repro.core.faultmodel import (
    FaultPlan,
    LinkDegradation,
    LinkLoss,
    MemoryPressure,
    NodeHang,
    NodeStall,
)
from repro.core.faults import (
    FailoverEvent,
    FailureInjector,
    FaultTolerantRuntime,
    FTRunResult,
    HeartbeatRing,
    NodeFailure,
    RecoveryError,
)
from repro.core.gossip import GossipMembership
from repro.core.headlog import HeadLog, LogRecord, Replicator
from repro.core.memory import DeviceMemory, DeviceMemoryError
from repro.core.runtime import OMPCRunResult, OMPCRuntime
from repro.core.scheduler import (
    HeftScheduler,
    MinLoadScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Schedule,
)

__all__ = [
    "DataManager",
    "DeviceMemory",
    "DeviceMemoryError",
    "FTRunResult",
    "FailoverEvent",
    "FailureInjector",
    "FaultPlan",
    "FaultTolerantRuntime",
    "GossipMembership",
    "HeadLog",
    "HeartbeatRing",
    "HeftScheduler",
    "LogRecord",
    "LinkDegradation",
    "LinkLoss",
    "MemoryPressure",
    "MinLoadScheduler",
    "NodeFailure",
    "NodeHang",
    "NodeStall",
    "OMPCConfig",
    "OMPCRunResult",
    "OMPCRuntime",
    "RandomScheduler",
    "RecoveryError",
    "Replicator",
    "RoundRobinScheduler",
    "Schedule",
    "ShardDirectory",
    "ShardPlaneError",
    "ShardRunResult",
    "ShardStats",
    "ShardedRuntime",
]

#: Sharded-plane exports, imported on first access: a single-head run
#: never loads :mod:`repro.core.shard` (``OMPCRuntime.launch`` imports
#: it only for ``head_shards > 1``).
_SHARD_EXPORTS = frozenset({
    "ShardDirectory", "ShardedRuntime", "ShardPlaneError",
    "ShardRunResult", "ShardStats",
})


def __getattr__(name: str):
    if name in _SHARD_EXPORTS:
        from repro.core import shard

        return getattr(shard, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
