from benchmarks.perf.tail import LogTailer

BRCV = '{"ts":1.0,"seq":%d,"node":"p1","ev":"brcv","args":["m%d","p2","p1"]}\n'
OTHER = '{"ts":1.0,"seq":%d,"node":"p1","ev":"gprcv","args":["x","p2","p1"]}\n'


def test_counts_only_complete_brcv_lines(tmp_path):
    path = tmp_path / "p1.events.jsonl"
    tailer = LogTailer([path])
    assert tailer.poll() == {path: 0}  # file not there yet
    with open(path, "w") as log:
        log.write(BRCV % (1, 1) + OTHER % 2 + BRCV % (3, 2))
        log.flush()
        assert tailer.poll()[path] == 2
        # a torn write: the line's head arrives first ...
        line = BRCV % (4, 3)
        log.write(line[:40])
        log.flush()
        assert tailer.poll()[path] == 2
        # ... and is counted exactly once when the rest lands
        log.write(line[40:])
        log.flush()
        assert tailer.poll()[path] == 3
        assert tailer.poll()[path] == 3
    tailer.close()


def test_torn_line_split_inside_the_marker(tmp_path):
    path = tmp_path / "p1.events.jsonl"
    tailer = LogTailer([path])
    line = BRCV % (1, 1)
    cut = line.index('"brcv"') + 3
    with open(path, "w") as log:
        log.write(line[:cut])
        log.flush()
        assert tailer.poll()[path] == 0
        log.write(line[cut:])
        log.flush()
        assert tailer.poll()[path] == 1
    tailer.close()


def test_several_files_counted_apart(tmp_path):
    a, b = tmp_path / "p1@g0.events.jsonl", tmp_path / "p2@g0.events.jsonl"
    a.write_text(BRCV % (1, 1) + BRCV % (2, 2))
    b.write_text(BRCV % (1, 1))
    tailer = LogTailer([a, b])
    assert tailer.poll() == {a: 2, b: 1}
    tailer.close()
