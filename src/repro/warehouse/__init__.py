"""The warehouse site: view storage, runtime plumbing and all algorithms.

* :class:`~repro.warehouse.view_store.MaterializedView` -- the stored view
  with GMS93 tuple counts; strict mode raises on impossible deletes,
  tolerant mode counts them as anomalies (used to expose what naive
  maintenance gets wrong).
* :class:`~repro.warehouse.base.WarehouseBase` /
  :class:`~repro.warehouse.base.QueueDrivenWarehouse` -- the Figure 4
  runtime: LogUpdates (the inbox's routing callback), UpdateMessageQueue,
  query send/await, install + snapshot instrumentation.
* Algorithms, one module each:

  ==================  =============================================
  :mod:`sweep`         SWEEP (Section 5): complete consistency,
                       local compensation, O(n) messages
  :mod:`nested_sweep`  Nested SWEEP (Section 6): strong consistency,
                       cumulative updates, amortized O(n)
  :mod:`eca`           ECA (ZGMHW95): centralized, compensating queries
  :mod:`strobe`        Strobe (ZGMW96): key assumption, quiescent install
  :mod:`cstrobe`       C-Strobe (ZGMW96): complete, compensation cascades
  :mod:`convergent`    naive incremental without compensation (anomalies)
  :mod:`recompute`     full recomputation per update (costly baseline)
  ==================  =============================================

* :mod:`~repro.warehouse.registry` -- name -> algorithm lookup plus the
  static properties column of Table 1.
"""

from repro.warehouse.base import QueueDrivenWarehouse, WarehouseBase
from repro.warehouse.convergent import ConvergentWarehouse
from repro.warehouse.cstrobe import CStrobeWarehouse
from repro.warehouse.eca import EcaWarehouse
from repro.warehouse.errors import UnsupportedViewError, WarehouseError
from repro.warehouse.global_txn import GlobalSweepWarehouse
from repro.warehouse.bootstrap import BootstrapSweepWarehouse
from repro.warehouse.nested_sweep import NestedSweepWarehouse
from repro.warehouse.pipelined import PipelinedSweepWarehouse
from repro.warehouse.recompute import RecomputeWarehouse
from repro.warehouse.registry import ALGORITHMS, AlgorithmInfo, algorithm_info
from repro.warehouse.strobe import StrobeWarehouse
from repro.warehouse.sweep import SweepWarehouse
from repro.warehouse.view_store import MaterializedView

__all__ = [
    "ALGORITHMS",
    "AlgorithmInfo",
    "BootstrapSweepWarehouse",
    "ConvergentWarehouse",
    "CStrobeWarehouse",
    "EcaWarehouse",
    "GlobalSweepWarehouse",
    "MaterializedView",
    "NestedSweepWarehouse",
    "PipelinedSweepWarehouse",
    "QueueDrivenWarehouse",
    "RecomputeWarehouse",
    "StrobeWarehouse",
    "SweepWarehouse",
    "UnsupportedViewError",
    "WarehouseBase",
    "WarehouseError",
    "algorithm_info",
]
