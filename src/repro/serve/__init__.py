"""SpGEMM-as-a-service: the async multi-tenant job server.

The single-run engine answers one question per process invocation; this
package wraps it in a long-lived asyncio service (``repro serve``) that
accepts concurrent multiply jobs over HTTP/JSON (TCP or a unix socket),
schedules them through a shared bounded worker pool, and streams
per-chunk completion events back to callers.  Two serving-layer
performance mechanisms carry the throughput story:

* the **content-addressed operand cache** (:mod:`.cache`) keys the
  CSR matrices jobs build on their content hash, so repeated operands
  across jobs share one object instead of being re-materialized per
  job;
* **priced admission + weighted fair queueing** (:mod:`.scheduler`)
  feeds each job's footprint — its output ceiling, or a sampled
  :func:`~repro.spgemm.estimate.estimate_row_nnz` total when that
  ceiling is large against the budget
  (:func:`~repro.serve.server.price_job`) — into the governor's
  host-memory ledger, shared across *jobs* instead of chunks, so N
  concurrent jobs never overcommit the node, with per-tenant quotas and
  weights deciding who runs next.

See ``docs/SERVING.md`` for the API and the tenancy/quota model.
"""

from .cache import OperandCache, content_hash
from .client import ServeClient, ServeError
from .jobs import JobRecord, JobSpec, JobState, canonical_spec, resolve_operand
from .scheduler import FairQueue, JobScheduler, TenantQuota
from .server import ServerConfig, SpgemmServer

__all__ = [
    "ServeClient",
    "ServeError",
    "OperandCache",
    "content_hash",
    "JobSpec",
    "JobRecord",
    "JobState",
    "canonical_spec",
    "resolve_operand",
    "TenantQuota",
    "FairQueue",
    "JobScheduler",
    "ServerConfig",
    "SpgemmServer",
]
