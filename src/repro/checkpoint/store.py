"""Crash-safe on-disk snapshot store.

One file per run label under a directory, written by :func:`write_atomic`,
which :class:`~repro.harness.parallel.DiskResultCache` uses too: temp file
in the same directory, ``flush`` + ``fsync``, then an atomic
``os.replace``.  A SIGKILL at any instant leaves either the previous
complete snapshot or the new complete snapshot — never a truncated file.

File format: one JSON header line (version, payload SHA-256, sim time,
quanta, configuration key) followed by the raw pickle payload bytes.
:meth:`CheckpointStore.load` verifies version, checksum, and (when asked)
the configuration key; anything unreadable or corrupt is quarantined to
``<label>.corrupt`` and reported as absent, mirroring the cache's
quarantine behaviour.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

from repro.checkpoint.snapshot import SNAPSHOT_VERSION, SimSnapshot

#: Snapshot file suffix.
SUFFIX = ".ckpt"


def write_atomic(path: Path, body: bytes) -> None:
    """Replace *path* with *body* all at once.

    Write + fsync + atomic rename: a crash (or SIGKILL) at any instant
    leaves either the old file or the complete new one, never a torn file.
    The temp name is per-PID, so concurrent writers never collide; any
    failure (a full disk at ``fsync``, say) removes the temp file and
    re-raises.
    """
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(body)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def quarantine(path: Path) -> None:
    """Move an unreadable file aside to ``.corrupt`` (best-effort, never raises)."""
    try:
        os.replace(path, path.with_suffix(".corrupt"))
    except OSError:
        pass


class CheckpointStore:
    """Directory of atomically-replaced, checksummed run snapshots."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    def path_for(self, label: str) -> Path:
        return self.root / f"{label}{SUFFIX}"

    def save(self, label: str, snapshot: SimSnapshot, key: Optional[str] = None) -> Path:
        """Atomically write *snapshot* as the latest for *label*."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(label)
        header = {
            "version": snapshot.version,
            "sha256": snapshot.digest,
            "sim_time": snapshot.sim_time,
            "quanta": snapshot.quanta,
            "key": key,
        }
        body = json.dumps(header, sort_keys=True).encode() + b"\n" + snapshot.payload
        write_atomic(path, body)
        return path

    def load(self, label: str, expect_key: Optional[str] = None) -> Optional[SimSnapshot]:
        """The latest verified snapshot for *label*, or None.

        A missing file or a key mismatch (snapshot from a different
        configuration) is a plain miss.  A file that fails structural
        verification — bad header, version drift, checksum mismatch —
        is quarantined to ``<label>.corrupt`` so it stops shadowing
        fresh runs and stays inspectable.
        """
        path = self.path_for(label)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            newline = raw.index(b"\n")
            header = json.loads(raw[:newline])
            if not isinstance(header, dict):
                raise ValueError("snapshot header is not a JSON object")
            payload = raw[newline + 1 :]
            snapshot = SimSnapshot(
                version=header["version"],
                sim_time=header["sim_time"],
                quanta=header["quanta"],
                payload=payload,
            )
            if snapshot.version != SNAPSHOT_VERSION:
                raise ValueError(f"snapshot version {snapshot.version} is stale")
            if snapshot.digest != header["sha256"]:
                raise ValueError("snapshot payload checksum mismatch")
        except (ValueError, KeyError, TypeError):
            quarantine(path)
            return None
        if expect_key is not None and header.get("key") != expect_key:
            return None
        return snapshot
