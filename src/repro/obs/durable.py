"""The shared durable JSONL writer behind trace sinks and timeline files.

Both the trace bus's :class:`~repro.obs.trace.JsonlSink` and the flight
recorder's :class:`~repro.obs.recorder.TimelineWriter` stream one JSON
object per line to a file that must survive three hostile exits:

* **normal interpreter shutdown** — an ``atexit`` hook closes the file;
* **multiprocessing-worker exit** — workers leave through ``os._exit``
  and skip ``atexit``, so an optional ``multiprocessing.util.Finalize``
  closes worker shards (the parallel runner registers one for trace
  shards; timeline writers always register their own);
* **fork** — a writer inherited by a forked child shares the parent's
  file object and buffer, so every close/flush path is pid-guarded: the
  child keeps the reference but never flushes the parent's bytes.

Closing flushes and ``fsync``\\ s so shard tails survive abrupt exits.
This used to be copy-pasted between the two call sites; keep any new
durability rule here so both stay in lockstep.
"""

from __future__ import annotations

import atexit
import json
import multiprocessing.util
import os
import tempfile
from typing import Any, Dict


def repro_version() -> str:
    """The installed package version (metadata first, source as fallback)."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        try:
            return version("repro")
        except PackageNotFoundError:
            pass
    except ImportError:  # pragma: no cover - py<3.8 only
        pass
    from repro import __version__

    return __version__


def provenance_doc() -> Dict[str, Any]:
    """The provenance header every JSONL artifact leads with.

    Records what produced the file — package version and the fingerprint
    configuration (if any) — so a shard dug out of a CI artifact months
    later still says which build wrote it.  The single ``"provenance"``
    marker key is what every loader (traces, timelines, fingerprints)
    skips on.
    """
    from repro.obs.fingerprint import configured_fingerprint

    fp = configured_fingerprint()
    doc: Dict[str, Any] = {
        "provenance": 1,
        "repro_version": repro_version(),
    }
    if fp is not None:
        doc["fingerprint"] = {
            "checkpoint_every": fp.checkpoint_every,
            "detail": list(fp.detail) if fp.detail is not None else None,
        }
    return doc


def write_json_atomic(path: str, doc: Dict[str, Any]) -> None:
    """Crash-safely publish one JSON document at ``path``.

    The document is serialized to a temporary file *in the same
    directory* (same filesystem, so the final rename cannot degrade to a
    copy), flushed and ``fsync``\\ ed, then moved into place with
    ``os.replace`` — readers either see the complete old content, the
    complete new content, or nothing, never a truncated tail.  A process
    killed mid-write leaves only a ``*.tmp`` file that readers ignore
    (the campaign store's ``gc`` sweeps them up).
    """
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"), sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


class DurableJsonlWriter:
    """Streams JSON documents to a file, one object per line.

    Args:
        path: Target file, truncated on open.
        finalize: Also register a ``multiprocessing.util.Finalize`` so
            the writer closes at worker-process exit.  Callers that
            shard per worker *after* fork (trace sinks) register their
            own finalizer on the shard instead.
        header: Write the provenance header as the file's first line
            (``written`` counts only documents, not the header).

    Attributes:
        path: The file being written.
        written: Number of documents written so far.

    Usable as a context manager; close is idempotent.
    """

    def __init__(
        self, path: str, finalize: bool = False, header: bool = True
    ) -> None:
        self.path = str(path)
        self._file = open(self.path, "w", encoding="utf-8")
        self._pid = os.getpid()
        self.written = 0
        if header:
            self._file.write(
                json.dumps(provenance_doc(), separators=(",", ":")) + "\n"
            )
        atexit.register(self.close)
        if finalize:
            multiprocessing.util.Finalize(self, self.close, exitpriority=10)

    def write_doc(self, doc: Dict[str, Any]) -> None:
        """Append one JSON document as a single line."""
        if self._file is None:
            return
        self._file.write(json.dumps(doc, separators=(",", ":")))
        self._file.write("\n")
        self.written += 1

    def flush(self) -> None:
        if self._file is not None and self._pid == os.getpid():
            self._file.flush()

    def close(self) -> None:
        if self._file is None:
            return
        if self._pid != os.getpid():
            # Inherited across fork: the buffer (and its unflushed bytes)
            # belong to the parent process.  Keep the reference so nothing
            # here ever flushes the parent's bytes a second time.
            return
        file = self._file
        self._file = None
        file.flush()
        os.fsync(file.fileno())
        file.close()
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover - unregister is best-effort
            pass

    def __enter__(self) -> "DurableJsonlWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
