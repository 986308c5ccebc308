"""``repro.shard`` — a sharded multi-group service over VStoTO.

One VS group is one token ring and one total order: a hard throughput
ceiling.  The paper's VS layer is inherently multi-group — the group
name ``g`` is an explicit parameter of every signature in Figs. 6 and
8–10 — so running **many independent VStoTO groups side by side**
composes paper-faithful shards into an aggregate service whose capacity
grows with the number of groups while each group keeps exactly the
per-``g`` guarantees the paper proves.

The pieces:

- :mod:`repro.shard.routing` — a deterministic consistent-hash ring
  mapping client keys to group names (seeded placement, stable
  serialization);
- :mod:`repro.shard.router` — the client-facing front end: fans
  requests out to per-group backends with a bounded in-flight window
  per shard (backpressure: saturated shards queue, never drop) and
  per-group queue counters in its ``stats()``;
- :mod:`repro.shard.sim` — the DES substrate adapter: one
  :class:`~repro.apps.totalorder.TotalOrderBroadcast` per group, with
  continuous per-group :class:`~repro.core.monitor.OnlineVSMonitor`
  verification;
- :mod:`repro.shard.live` — the live substrate adapter: the
  :class:`ShardEnvelope` wire type and group demultiplexer that let one
  ``repro.rt`` node process host its group runtimes — one by default,
  ``--shards N`` of them — over one transport;
- :mod:`repro.shard.verify` — per-shard verdicts (VS monitor +
  TO-machine trace membership per group) plus the cross-shard
  invariant: every key's operation order is consistent with the owning
  shard's total order.

See ``docs/SHARDING.md`` for the architecture guide.
"""

from repro.shard.router import ShardBackend, ShardRouter
from repro.shard.routing import HashRing
from repro.shard.sim import ShardedSimService, SimShardGroup
from repro.shard.verify import (
    CrossShardReport,
    ShardVerdict,
    check_cross_shard_order,
)

__all__ = [
    "HashRing",
    "ShardBackend",
    "ShardRouter",
    "ShardedSimService",
    "SimShardGroup",
    "ShardVerdict",
    "CrossShardReport",
    "check_cross_shard_order",
]
