import pytest

from benchmarks.perf import analyze


def ev(ts, node, name, *args):
    return {"ts": ts, "node": node, "ev": name, "args": list(args)}


def brcv(ts, node, value, origin="p1"):
    return ev(ts, node, "brcv", value, origin, node)


def synthetic_partition_log():
    """p3 is cut off from t=4 to t=9; the majority stalls 4.0-4.7 while
    it forms a view; after the heal everything is delivered by t=10.2."""
    events = []
    due = {}
    # before the partition: one send per 0.5 s, delivered 10 ms later
    for i, t in enumerate([1.0, 1.5, 2.0, 2.5, 3.0, 3.5]):
        due[f"a{i}"] = t
        events += [brcv(t + 0.01, p, f"a{i}") for p in ("p1", "p2", "p3")]
    # during it: the majority resumes at 4.7 and delivers every 0.5 s
    events += [ev(4.7, "p1", "newview", "v1", "p1"), ev(4.7, "p2", "newview", "v1", "p2")]
    events += [ev(4.9, "p3", "newview", "v1'", "p3")]
    for i, t in enumerate([4.7, 5.2, 5.7, 6.2, 6.7, 7.2, 7.7, 8.2, 8.7]):
        due[f"b{i}"] = t - 0.3
        events += [brcv(t, p, f"b{i}") for p in ("p1", "p2")]
    # after the heal at 9.0: view at 9.8, state exchange done at 10.0
    events += [ev(9.8, p, "newview", "v2", p) for p in ("p1", "p2", "p3")]
    for i in range(9):
        events.append(brcv(10.0 + 0.02 * i, "p3", f"b{i}"))
    due["c0"] = 9.5
    events += [brcv(10.2, p, "c0") for p in ("p1", "p2", "p3")]
    events.sort(key=lambda e: e["ts"])
    return events, due


def test_completions_and_latencies():
    events, due = synthetic_partition_log()
    done = analyze.completions(events, due, nodes=3)
    assert not done.missing
    assert done.done_at["a0"] == pytest.approx(1.01)
    assert done.done_at["b0"] == pytest.approx(10.0)  # waits for p3
    latencies = done.latencies(due)
    assert latencies[0] == pytest.approx(0.01)
    assert max(latencies) == pytest.approx(10.0 - 4.4)


def test_send_missing_at_one_node_or_late_is_failed():
    events = [brcv(1.0, "p1", "x"), brcv(1.0, "p2", "x"), brcv(9.0, "p3", "x")]
    assert analyze.completions(events, ["x"], 3).missing == []
    assert analyze.completions(events, ["x"], 3, deadline=5.0).missing == ["x"]
    assert analyze.completions(events[:2], ["x", "y"], 3).missing == ["x", "y"]


def test_fault_gap_is_the_longest_majority_silence():
    events, _ = synthetic_partition_log()
    gap = analyze.fault_gap(events, ("p1", "p2"), partition_at=4.0, heal_at=9.0)
    assert gap == pytest.approx(0.7)  # 4.0 -> 4.7, longer than the 0.5 s beat
    # p3's deliveries never fill a majority-side gap
    events.append(brcv(4.3, "p3", "zz"))
    assert analyze.fault_gap(events, ("p1", "p2"), 4.0, 9.0) == pytest.approx(0.7)


def test_fault_gap_with_no_delivery_at_all():
    assert analyze.fault_gap([], ("p1", "p2"), 4.0, 9.0) == pytest.approx(5.0)


def test_heal_catchup():
    events, due = synthetic_partition_log()
    done = analyze.completions(events, due, nodes=3)
    # c0 is due after the heal mark, so the last value that counts is
    # b8, delivered at p3 at 10.0 + 0.16
    assert analyze.heal_catchup(done, due, heal_at=9.0) == pytest.approx(1.16)
    # a value due before the heal that never arrives: no catch-up time
    due["lost"] = 8.0
    done = analyze.completions(events, due, nodes=3)
    assert analyze.heal_catchup(done, due, heal_at=9.0) is None


def test_reconcile_time():
    events, _ = synthetic_partition_log()
    assert analyze.reconcile_time(events, heal_at=9.0) == pytest.approx(0.2)
    assert analyze.reconcile_time(events, heal_at=11.0) is None
    assert analyze.count_events(events, "newview") == 6
