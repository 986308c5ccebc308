"""Unit tests for :mod:`repro.parallel` — the seed-sweep executor."""

import dataclasses

import pytest

from repro.parallel import (
    RunEnvelope,
    canonical_digest,
    make_envelope,
    parallel_map,
    run_seed_sweep,
)


# Module-level so they pickle into worker processes.
def _double(x):
    return x * 2


def _good_worker(seed):
    return make_envelope(seed, {"seed": seed, "value": seed * 10})


def _miswired_worker(seed):
    return make_envelope(seed + 1, {"seed": seed})


@dataclasses.dataclass
class _Result:
    name: str
    counts: dict


# ----------------------------------------------------------------------
def test_parallel_map_inline_matches_map():
    items = list(range(12))
    assert parallel_map(_double, items, workers=1) == [_double(i) for i in items]


def test_parallel_map_workers_preserve_input_order():
    items = list(range(12))
    expected = [_double(i) for i in items]
    assert parallel_map(_double, items, workers=2) == expected
    assert parallel_map(_double, items, workers=4) == expected


def test_parallel_map_empty():
    assert parallel_map(_double, [], workers=4) == []


# ----------------------------------------------------------------------
def test_canonical_digest_insensitive_to_dict_order():
    a = {"alpha": 1, "beta": {"x": 2, "y": 3}}
    b = {"beta": {"y": 3, "x": 2}, "alpha": 1}
    assert canonical_digest(a) == canonical_digest(b)


def test_canonical_digest_distinguishes_values():
    assert canonical_digest({"a": 1}) != canonical_digest({"a": 2})


def test_canonical_digest_handles_dataclasses():
    r1 = _Result("run", {"x": 1, "y": 2})
    r2 = _Result("run", {"y": 2, "x": 1})
    assert canonical_digest(r1) == canonical_digest(r2)
    assert canonical_digest(r1) != canonical_digest(_Result("run", {"x": 1}))


def test_make_envelope_stamps_digest():
    env = make_envelope(3, {"v": 1}, ok=True, stats={"n": 2}, wall_s=0.5)
    assert isinstance(env, RunEnvelope)
    assert env.seed == 3
    assert env.digest == canonical_digest({"v": 1})
    assert env.stats == {"n": 2}
    assert env.wall_s == 0.5


# ----------------------------------------------------------------------
def test_run_seed_sweep_sequential_equals_parallel():
    seeds = [5, 1, 9, 4]
    seq = run_seed_sweep(_good_worker, seeds, workers=1)
    par = run_seed_sweep(_good_worker, seeds, workers=2)
    assert [e.seed for e in seq] == seeds
    assert [e.digest for e in seq] == [e.digest for e in par]
    assert [e.result for e in seq] == [e.result for e in par]


def test_run_seed_sweep_detects_misalignment():
    with pytest.raises(RuntimeError, match="misalignment"):
        run_seed_sweep(_miswired_worker, [0, 1], workers=1)
