import os

from erbench.fsprobe import AckLedger, CountingFilesystem, disk_bytes
from erbench.spans import SpanRecorder


def test_counts_and_crash_to_last_fsynced_length(tmp_path):
    fs = CountingFilesystem()
    path = str(tmp_path / "wal-0.log")
    handle = fs.open(path, "ab")
    fs.write(handle, b"a" * 100)
    fs.flush(handle)
    fs.fsync(handle)
    fs.write(handle, b"b" * 50)  # reaches the OS, never the disk
    fs.flush(handle)
    handle.close()
    never = str(tmp_path / "never-synced")
    other = fs.open(never, "wb")
    fs.write(other, b"c" * 10)
    other.close()

    assert fs.counters()["fs_write_calls"] == 3
    assert fs.counters()["fs_write_bytes"] == 160
    assert fs.counters()["fs_fsync_calls"] == 1
    assert fs.total("write_bytes", "wal-") == 150
    assert disk_bytes(str(tmp_path)) == 160

    assert fs.crash(str(tmp_path)) == 60
    assert os.path.getsize(path) == 100
    assert os.path.getsize(never) == 0


def test_replace_carries_the_fsynced_length_and_spans_are_recorded(tmp_path):
    fs = CountingFilesystem()
    fs.recorder = SpanRecorder()
    tmp, final = str(tmp_path / "ckpt.tmp"), str(tmp_path / "ckpt.json")
    handle = fs.open(tmp, "wb")
    fs.write(handle, b"x" * 40)
    fs.flush(handle)
    fs.fsync(handle)
    handle.close()
    fs.replace(tmp, final)
    assert fs.crash(str(tmp_path)) == 0
    assert os.path.getsize(final) == 40
    assert [span[1] for span in fs.recorder.spans] == ["fs.write", "fs.flush", "fs.fsync", "fs.replace"]


def test_ack_ledger_counts_unreadable_commits():
    rows = {1: {"s_x": 10}, 2: {"s_x": 99}}
    ledger = AckLedger()
    ledger.ack(1, 10)
    ledger.ack(2, 20)  # overwritten value lost
    ledger.ack(3, 30)  # row lost
    assert ledger.lost(rows.get) == 2
