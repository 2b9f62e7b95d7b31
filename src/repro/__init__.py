"""repro — Continuous probabilistic NN queries for uncertain trajectories.

A from-scratch Python reproduction of Trajcevski, Tamassia, Ding,
Scheuermann, Cruz: "Continuous Probabilistic Nearest-Neighbor Queries for
Uncertain Trajectories" (EDBT 2009).

The public API re-exports the pieces most users need:

* the trajectory model and the MOD store (:mod:`repro.trajectories`);
* the location pdfs and probability machinery (:mod:`repro.uncertainty`);
* the envelope algorithms (:mod:`repro.geometry.envelope`);
* the query context, IPAC-NN trees and query variants (:mod:`repro.core`);
* the serving stack — batched engine (:mod:`repro.engine`), the
  stand-alone batch API (:mod:`repro.parallel`), streaming monitor
  (:mod:`repro.streaming`), and the async query service
  (:mod:`repro.service`);
* the synthetic workloads of the paper's evaluation and the service
  traffic driver (:mod:`repro.workloads`).
"""

from .core import (
    IPACNode,
    IPACTree,
    ProbabilityDescriptor,
    QueryContext,
    build_ipac_tree,
)
from .engine import BatchResult, PreparedQuery, QueryEngine
from .parallel import ShardedBatchResult, ShardedEngine
from .query_language import PlannedStatement
from .service import QueryResponse, QueryService
from .streaming import (
    BatchReport,
    ContinuousMonitor,
    IntervalChanged,
    NeighborAppeared,
    NeighborDropped,
    StandingQuery,
)
from .trajectories import (
    ChangeRecord,
    MovingObjectsDatabase,
    Trajectory,
    TrajectorySample,
    UncertainTrajectory,
)
from .uncertainty import ConePDF, CrispPDF, TruncatedGaussianPDF, UniformDiskPDF
from .workloads import RandomWaypointConfig, generate_mod, generate_trajectories

__version__ = "0.1.0"

__all__ = [
    "BatchReport",
    "BatchResult",
    "ChangeRecord",
    "ConePDF",
    "ContinuousMonitor",
    "CrispPDF",
    "IntervalChanged",
    "NeighborAppeared",
    "NeighborDropped",
    "StandingQuery",
    "IPACNode",
    "IPACTree",
    "MovingObjectsDatabase",
    "PlannedStatement",
    "PreparedQuery",
    "ProbabilityDescriptor",
    "QueryContext",
    "QueryEngine",
    "QueryResponse",
    "QueryService",
    "RandomWaypointConfig",
    "ShardedBatchResult",
    "ShardedEngine",
    "Trajectory",
    "TrajectorySample",
    "TruncatedGaussianPDF",
    "UncertainTrajectory",
    "UniformDiskPDF",
    "build_ipac_tree",
    "generate_mod",
    "generate_trajectories",
    "__version__",
]
