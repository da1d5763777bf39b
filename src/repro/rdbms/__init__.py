"""The in-RDBMS analytics substrate — a miniature Bismarck-on-PostgreSQL.

Layers (bottom to top):

* :mod:`repro.rdbms.storage` — slotted pages, heap files (materialized and
  virtual), LRU buffer pool with I/O counters;
* :mod:`repro.rdbms.catalog` — table namespace;
* :mod:`repro.rdbms.executor` — the shuffle-once scan, delivered in
  chunks (and its shared cursor), and aggregate evaluation;
* :mod:`repro.rdbms.uda` — the initialize/transition/terminate aggregate
  contract over that chunked stream, with the Bismarck SGD epoch and its
  fused and shared-cursor forms;
* :mod:`repro.rdbms.bismarck` — the front-end controller and the three
  integration styles of Figure 1 (noiseless / bolt-on / white-box noisy);
* :mod:`repro.rdbms.cost_model` — counters-to-seconds for the runtime and
  scalability figures;
* :mod:`repro.rdbms.synthesizer` — the Figure 2 binary-data synthesizer.
"""

from repro.rdbms.bismarck import (
    BismarckSession,
    EpochReport,
    MultiTrainingReport,
    NoisySGDUDA,
    TrainingReport,
    integration_report,
)
from repro.rdbms.catalog import Catalog, TableInfo
from repro.rdbms.cost_model import (
    CostConstants,
    CostModel,
    RuntimeBreakdown,
    WorkCounters,
)
from repro.rdbms.executor import ShuffleOnce, run_aggregate
from repro.rdbms.storage import (
    PAGE_SIZE_BYTES,
    BufferPool,
    BufferPoolStats,
    HeapFile,
    MaterializedHeapFile,
    Page,
    VirtualHeapFile,
    tuple_width_bytes,
    tuples_per_page,
)
from repro.rdbms.synthesizer import (
    analytic_counters,
    dataset_size_bytes,
    dataset_size_gb,
    synthesize_heap,
)
from repro.rdbms.uda import (
    UDA,
    MultiSGDState,
    MultiSGDUDA,
    SGDState,
    SGDUDA,
)

__all__ = [
    "PAGE_SIZE_BYTES",
    "Page",
    "HeapFile",
    "MaterializedHeapFile",
    "VirtualHeapFile",
    "BufferPool",
    "BufferPoolStats",
    "tuple_width_bytes",
    "tuples_per_page",
    "Catalog",
    "TableInfo",
    "ShuffleOnce",
    "run_aggregate",
    "UDA",
    "MultiSGDState",
    "MultiSGDUDA",
    "MultiTrainingReport",
    "SGDUDA",
    "SGDState",
    "BismarckSession",
    "NoisySGDUDA",
    "TrainingReport",
    "EpochReport",
    "integration_report",
    "CostModel",
    "CostConstants",
    "WorkCounters",
    "RuntimeBreakdown",
    "synthesize_heap",
    "analytic_counters",
    "dataset_size_bytes",
    "dataset_size_gb",
]
