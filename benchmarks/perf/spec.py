"""Names, units and directions of every workload and metric.

``BENCHMARK.json`` at the repo root is the contract the acceptance
driver reads; this module is the same list for the harness itself, plus
what the JSON has no room for: which end-to-end metric each layer metric
should move, and on which workload.  ``tests/test_spec.py`` keeps the
two and the README glossary in step.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: (c) counter the public APIs expose, (t) self time from the traced
    #: run, (o) offline stage timed in the harness process, (e) end to end.
    source: str
    #: for layer metrics: the end-to-end metric(s) it should move.
    moves: str = ""


WORKLOADS = (
    Workload(
        "live3_steady",
        "open loop at a third of capacity: codec, transport and token "
        "circulation set latency; history growth and verification do not",
    ),
    Workload(
        "live3_saturate",
        "closed loop, window 32, fixed count: every live layer is "
        "CPU-bound and order/log growth shows as decay",
    ),
    Workload(
        "live3_shards2",
        "as live3_saturate over 2 groups and 16 keys: same layers behind "
        "ShardEnvelope/GroupDemux and two token rings per process",
    ),
    Workload(
        "live3_partition",
        "open loop through a {p1,p2}|{p3} split and heal: view formation "
        "and VStoTO state exchange do the work",
    ),
    Workload(
        "sim11_steady",
        "DES at n=11 with the online monitor: no rt.* or shard.* code "
        "runs, so codec and transport changes must not move it",
    ),
)

END_TO_END = (
    Metric("setup_s", "s", "lower", "e"),
    Metric("to_sends_per_s", "1/s", "higher", "e"),
    Metric("to_latency_p50_ms", "ms", "lower", "e"),
    Metric("to_latency_p99_ms", "ms", "lower", "e"),
    Metric("verify_s", "s", "lower", "e"),
    Metric("rss_mb", "MB", "lower", "e"),
)

_TPUT = "to_sends_per_s on live3_saturate/live3_shards2"
_SIM = "to_sends_per_s on sim11_steady"

PER_LAYER = (
    # rt.wire -----------------------------------------------------------
    Metric("rt.wire.bytes_per_delivery", "B", "lower", "c", _TPUT),
    Metric("rt.wire.entries_per_frame", "count", "higher", "c", _TPUT),
    Metric("rt.wire.codec_us_per_delivery", "us", "lower", "t", _TPUT),
    # rt.transport ------------------------------------------------------
    Metric("rt.transport.frames_per_delivery", "count", "lower", "c", _TPUT),
    Metric(
        "rt.transport.self_us_per_delivery", "us", "lower", "t",
        _TPUT + "; to_latency_p50_ms on live3_steady",
    ),
    # membership.ring ---------------------------------------------------
    Metric("membership.ring.forwards_per_send", "count", "lower", "c",
           _TPUT + "; " + _SIM),
    Metric("membership.ring.entries_per_forward", "count", "higher", "c",
           _TPUT + "; may raise to_latency_p50_ms on live3_steady"),
    Metric("membership.ring.token_resyncs", "count", "lower", "c", _TPUT),
    Metric("membership.ring.duplicates_suppressed", "count", "lower", "c", _TPUT),
    Metric("membership.ring.self_us_per_delivery", "us", "lower", "t",
           _TPUT + "; " + _SIM),
    Metric("membership.ring.view_installs", "count", "lower", "c",
           "fault_gap_s, heal_catchup_s on live3_partition"),
    Metric("membership.ring.formations", "count", "lower", "c",
           "fault_gap_s, heal_catchup_s on live3_partition"),
    Metric("fault_gap_s", "s", "lower", "o",
           "to_latency_p50_ms on live3_partition"),
    # core.vstoto -------------------------------------------------------
    Metric("core.vstoto.self_us_per_delivery", "us", "lower", "t",
           _TPUT + "; " + _SIM),
    Metric("core.vstoto.reconcile_s", "s", "lower", "o",
           "heal_catchup_s on live3_partition"),
    Metric("heal_catchup_s", "s", "lower", "o",
           "to_latency_p50_ms on live3_partition"),
    # rt.trace ----------------------------------------------------------
    Metric("rt.trace.events_per_send", "count", "lower", "c", _TPUT),
    Metric("rt.trace.record_us_per_event", "us", "lower", "t", _TPUT),
    Metric("rt.trace.load_s", "s", "lower", "o", "verify_s on live workloads"),
    # rt.node / obs -----------------------------------------------------
    Metric("rt.node.stats_rtt_ms", "ms", "lower", "o", _TPUT),
    Metric("rt.node.self_us_per_delivery", "us", "lower", "t", _TPUT),
    Metric("obs.self_us_per_delivery", "us", "lower", "t", _TPUT),
    # shard -------------------------------------------------------------
    Metric("shard.demux_self_us_per_delivery", "us", "lower", "t",
           "to_sends_per_s on live3_shards2 only"),
    Metric("shard.router.queued_frac", "ratio", "lower", "c",
           "to_sends_per_s on live3_shards2 only"),
    # sim.engine / net --------------------------------------------------
    Metric("sim.engine.events", "count", "lower", "c", _SIM),
    Metric("sim.engine.events_per_s", "1/s", "higher", "c", _SIM),
    Metric("sim.engine.self_us_per_event", "us", "lower", "t", _SIM),
    Metric("net.packets", "count", "lower", "c", _SIM),
    Metric("net.self_us_per_packet", "us", "lower", "t", _SIM),
    # oracles -----------------------------------------------------------
    Metric("core.monitor.us_per_event", "us", "lower", "o",
           "verify_s on live workloads; " + _SIM),
    Metric("core.to_spec.check_s", "s", "lower", "o", "verify_s on all workloads"),
    # event loop of the traced in-process cluster ------------------------
    Metric("loop.machinery_us_per_delivery", "us", "lower", "t", _TPUT),
    Metric("loop.select_frac", "ratio", "higher", "t",
           "to_latency_p50_ms on live3_steady"),
    # run level ---------------------------------------------------------
    Metric("run.decay_ratio", "ratio", "higher", "c",
           "to_sends_per_s, rss_mb on live3_saturate/live3_shards2/sim11_steady"),
    Metric("run.trace_overhead_ratio", "ratio", "higher", "t", ""),
    Metric("run.cost_stack_coverage", "ratio", "higher", "t", ""),
    Metric("bench.gen_late_p99_ms", "ms", "lower", "c", ""),
    Metric("bench.driver_cpu_frac", "ratio", "lower", "c", ""),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)
