"""Stable digests of an execution, for determinism checks.

A seed fixes a simulated execution; two checks hold the simulator to
that:

- **In-process**: run the same seed twice and compare
  :func:`trace_full_digest` — the full ``repr`` of every timed event.
  This is the strongest check, but full reprs are *not* stable across
  interpreter processes (frozensets of labels render in
  ``PYTHONHASHSEED``-dependent order), so full digests cannot be pinned
  as golden values.
- **Cross-process**: pin :func:`trace_shape_digest` (time, action name,
  arity per event — hash-order independent) and :func:`rng_digest`
  (exact Mersenne-Twister stream positions) as goldens.  Any change to
  event order, event count, timing or RNG consumption moves at least
  one of them.

These stay apart from :func:`repro.rt.trace.content_digest`: they pin
the simulator's timing and RNG use, while ``content_digest`` strips
timing from the TO content so that two live runs can agree.
"""

from __future__ import annotations

from hashlib import sha256
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.ioa.timed import TimedTrace
    from repro.sim.rng import RngRegistry


def trace_full_digest(trace: TimedTrace) -> str:
    """sha256 over the full repr of every event.  Same-process
    comparisons only (reprs of hash-ordered containers are not stable
    across interpreters)."""
    hasher = sha256()
    for event in trace.events:
        hasher.update(f"{event.time!r}|{event.action!r}\n".encode())
    return hasher.hexdigest()


def trace_shape_digest(trace: TimedTrace) -> str:
    """sha256 over (time, action name, arity) per event — stable across
    processes and interpreter hash seeds, suitable for golden values."""
    hasher = sha256()
    for event in trace.events:
        hasher.update(
            f"{event.time!r}|{event.action.name}|{len(event.action.args)}\n"
            .encode()
        )
    return hasher.hexdigest()


def rng_digest(rngs: RngRegistry) -> str:
    """sha256 over every stream's name and exact generator state.
    ``Random.getstate()`` is a tuple of ints — its repr is stable — so
    this digest is golden-able and catches any extra or missing draw."""
    hasher = sha256()
    for name in sorted(rngs._streams):
        state = rngs._streams[name].getstate()
        hasher.update(f"{name}|{state!r}\n".encode())
    return hasher.hexdigest()
