"""Crash-safety of the on-disk stores: snapshots and the result cache.

The contract under test: a SIGKILL at *any* instant during a write
leaves either the previous complete file or the new complete file on
disk — never a torn one — and anything that does end up unreadable is
quarantined, never silently trusted.
"""

import errno
import json
import os
import signal
import time

import pytest

from repro.checkpoint import SNAPSHOT_VERSION, SimSnapshot, CheckpointStore
from repro.checkpoint.store import SUFFIX
from repro.harness.parallel import CACHE_VERSION, DiskResultCache


def make_snapshot(tag: bytes, sim_time=1000, quanta=4) -> SimSnapshot:
    return SimSnapshot(
        version=SNAPSHOT_VERSION,
        sim_time=sim_time,
        quanta=quanta,
        payload=tag * 64,
    )


class TestCheckpointStoreRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        snapshot = make_snapshot(b"a")
        store.save("run", snapshot, key="cfg-1")
        loaded = store.load("run", expect_key="cfg-1")
        assert loaded is not None
        assert loaded.payload == snapshot.payload
        assert loaded.sim_time == snapshot.sim_time
        assert loaded.quanta == snapshot.quanta
        assert loaded.digest == snapshot.digest

    def test_missing_label_is_a_plain_miss(self, tmp_path):
        assert CheckpointStore(tmp_path).load("nothing") is None

    def test_key_mismatch_is_a_miss_not_corruption(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("run", make_snapshot(b"a"), key="cfg-1")
        assert store.load("run", expect_key="cfg-2") is None
        # The file is intact: the right key still reads it.
        assert store.load("run", expect_key="cfg-1") is not None
        assert not list(tmp_path.glob("*.corrupt"))

    def test_save_overwrites_atomically(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("run", make_snapshot(b"a", sim_time=100))
        store.save("run", make_snapshot(b"b", sim_time=200))
        loaded = store.load("run")
        assert loaded is not None and loaded.sim_time == 200
        # No temp droppings left behind.
        assert sorted(p.suffix for p in tmp_path.iterdir()) == [SUFFIX]


class TestCheckpointStoreCorruption:
    def test_truncated_payload_is_quarantined(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save("run", make_snapshot(b"a"))
        path.write_bytes(path.read_bytes()[:-10])
        assert store.load("run") is None
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()

    def test_garbage_header_is_quarantined(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save("run", make_snapshot(b"a"))
        path.write_bytes(b"not json\n" + b"x" * 32)
        assert store.load("run") is None
        assert path.with_suffix(".corrupt").exists()

    def test_stale_version_is_quarantined(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save("run", make_snapshot(b"a"))
        raw = path.read_bytes()
        newline = raw.index(b"\n")
        header = json.loads(raw[:newline])
        header["version"] = SNAPSHOT_VERSION + 1
        path.write_bytes(
            json.dumps(header, sort_keys=True).encode() + raw[newline:]
        )
        assert store.load("run") is None
        assert path.with_suffix(".corrupt").exists()

    def test_quarantined_snapshot_does_not_shadow_a_fresh_save(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save("run", make_snapshot(b"a"))
        path.write_bytes(b"garbage")
        assert store.load("run") is None
        store.save("run", make_snapshot(b"b", sim_time=777))
        loaded = store.load("run")
        assert loaded is not None and loaded.sim_time == 777


def _kill_mid_write(tmp_path, writer, verifier, *, rounds=25):
    """Fork a child that calls *writer* in a tight loop; SIGKILL it at
    randomized points; after every kill, *verifier* must succeed."""
    for round_index in range(rounds):
        pid = os.fork()
        if pid == 0:  # child: hammer the store until killed
            try:
                while True:
                    writer()
            finally:
                os._exit(0)
        time.sleep(0.001 * (round_index % 5))
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        verifier()


class TestKillDuringWrite:
    def test_sigkill_mid_snapshot_save_never_leaves_a_torn_file(self, tmp_path):
        store = CheckpointStore(tmp_path)
        baseline = make_snapshot(b"0", sim_time=1)
        store.save("run", baseline, key="k")
        # Large payload so kills land inside the write with high odds.
        big = make_snapshot(b"x", sim_time=2)
        big = SimSnapshot(
            version=big.version,
            sim_time=big.sim_time,
            quanta=big.quanta,
            payload=b"x" * (1 << 20),
        )

        def verify():
            loaded = store.load("run", expect_key="k")
            assert loaded is not None, "a kill destroyed the previous snapshot"
            assert loaded.sim_time in (1, 2)
            assert not list(tmp_path.glob("*.corrupt"))

        _kill_mid_write(
            tmp_path, lambda: store.save("run", big, key="k"), verify
        )

    def test_sigkill_mid_cache_put_never_leaves_a_torn_entry(self, tmp_path):
        """The DiskResultCache write path (fsync + atomic replace): a kill
        mid-``put`` leaves the old entry or the new one, never a torn file
        (which would show up as a ``.corrupt`` quarantine on read)."""
        from repro.core import FixedQuantumPolicy
        from repro.engine.units import MICROSECOND
        from repro.harness.experiment import ExperimentRunner
        from repro.workloads import PingPongWorkload

        runner = ExperimentRunner(seed=3)
        workload = PingPongWorkload()
        record = runner.run(workload, 2, FixedQuantumPolicy(10 * MICROSECOND))
        cache = DiskResultCache(tmp_path)
        payload = {"cache_version": CACHE_VERSION, "probe": "kill-test"}
        assert cache.put(payload, record)

        def verify():
            fresh = DiskResultCache(tmp_path)
            got = fresh.get(payload)
            assert got is not None, "a kill destroyed the previous entry"
            assert got.metric == record.metric
            assert not list(tmp_path.glob("*.corrupt"))

        _kill_mid_write(tmp_path, lambda: cache.put(payload, record), verify)


class TestFailedWriteLeavesNoTempFile:
    """A write that fails part-way (``fsync`` on a full disk) removes its
    temp file and leaves the previous complete file in place, on both
    stores."""

    @staticmethod
    def _disk_full(monkeypatch):
        def fsync(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", fsync)

    def test_snapshot_save_raises_and_cleans_up(self, tmp_path, monkeypatch):
        store = CheckpointStore(tmp_path)
        store.save("run", make_snapshot(b"a", sim_time=1), key="k")
        self._disk_full(monkeypatch)
        with pytest.raises(OSError) as raised:
            store.save("run", make_snapshot(b"b", sim_time=2), key="k")
        assert raised.value.errno == errno.ENOSPC
        assert [p.name for p in tmp_path.iterdir()] == [f"run{SUFFIX}"]
        monkeypatch.undo()
        assert store.load("run", expect_key="k").sim_time == 1

    def test_cache_put_returns_false_and_cleans_up(self, tmp_path, monkeypatch):
        from repro.core import FixedQuantumPolicy
        from repro.engine.units import MICROSECOND
        from repro.harness.experiment import ExperimentRunner
        from repro.workloads import PingPongWorkload

        record = ExperimentRunner(seed=3).run(
            PingPongWorkload(), 2, FixedQuantumPolicy(10 * MICROSECOND)
        )
        cache = DiskResultCache(tmp_path)
        payload = {"cache_version": CACHE_VERSION, "probe": "disk-full"}
        assert cache.put(payload, record)
        (entry,) = tmp_path.iterdir()
        self._disk_full(monkeypatch)
        assert not cache.put(payload, record)
        assert list(tmp_path.iterdir()) == [entry]
        monkeypatch.undo()
        assert DiskResultCache(tmp_path).get(payload).metric == record.metric
