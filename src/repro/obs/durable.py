"""Durable JSONL artifacts: one writer, one shard format, one reader.

Every observability artifact — the trace (:mod:`repro.obs.trace`), the
flight-recorder timeline (:mod:`repro.obs.recorder`) and the determinism
fingerprint (:mod:`repro.obs.fingerprint`) — is a stream of JSON objects,
one per line, led by a provenance header.  This module owns everything
those streams share, so the three cannot drift apart:

* :class:`DurableJsonlWriter` survives three hostile exits: normal
  interpreter shutdown (an ``atexit`` hook closes the file),
  multiprocessing-worker exit (workers leave through ``os._exit``, so
  :class:`JsonlArtifact` registers a ``multiprocessing.util.Finalize``),
  and fork (a writer inherited by a forked child shares the parent's
  buffer, so every close/flush path is pid-guarded).  Closing flushes
  and ``fsync``\\ s so shard tails survive abrupt exits.
* :func:`shard_path` names worker ``k``'s shard of a base path
  (``trace.jsonl`` -> ``trace.k.jsonl``); :func:`resolve_trace_paths`
  finds shards by the same rule.
* :func:`remove_artifact` deletes an artifact and its shards, so a new
  activation never merges with a previous run's; :func:`artifact_files`
  lists the ones that exist.
* :class:`JsonlArtifact` is one process's lazily opened handle on one
  artifact.  Closing a handle that recorded nothing deletes its file, so
  an artifact on disk always holds records.
* :class:`JsonlRecords` reads artifacts back: it skips blank lines,
  provenance headers and the attempt markers earlier builds wrote, and
  counts bad lines.
"""

from __future__ import annotations

import atexit
import glob as _glob
import json
import multiprocessing.util
import os
import tempfile
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple


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
    marker key is what :class:`JsonlRecords` skips on.
    """
    from repro.obs.config import active

    obs = active("fingerprint")
    doc: Dict[str, Any] = {
        "provenance": 1,
        "repro_version": repro_version(),
    }
    if obs is not None:
        detail = obs.config.fingerprint_detail
        doc["fingerprint"] = {
            "checkpoint_every": obs.config.checkpoint_every,
            "detail": list(detail) if detail is not None else None,
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
        path: Target file, truncated on open.  Its first line is the
            provenance header.

    Attributes:
        path: The file being written.
        written: Number of documents written so far (not counting the
            header).

    Usable as a context manager; close is idempotent.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._file = open(self.path, "w", encoding="utf-8")
        self._pid = os.getpid()
        self.written = 0
        header = json.dumps(provenance_doc(), separators=(",", ":"))
        self._file.write(header + "\n")
        atexit.register(self.close)

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


# ----------------------------------------------------------------------
# Shard naming and discovery
# ----------------------------------------------------------------------
def shard_path(base: str, index: int) -> str:
    """Worker ``index``'s shard of ``base`` (``t.jsonl`` -> ``t.3.jsonl``)."""
    stem, ext = os.path.splitext(base)
    return f"{stem}.{index}{ext}"


def _shard_indexes(base: str) -> List[Tuple[int, str]]:
    """``(index, path)`` of every existing shard of ``base``, by index."""
    stem, ext = os.path.splitext(base)
    directory = os.path.dirname(base) or "."
    prefix = os.path.basename(stem) + "."
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    found = []
    for name in names:
        if not (name.startswith(prefix) and name.endswith(ext)):
            continue
        middle = name[len(prefix) : len(name) - len(ext)]
        if middle.isdigit():
            found.append((int(middle), shard_path(base, int(middle))))
    return sorted(found)


def remove_artifact(base: str) -> None:
    """Delete ``base`` and every existing shard of it."""
    for path in [base] + [shard for _, shard in _shard_indexes(base)]:
        try:
            os.unlink(path)
        except OSError:
            pass


def artifact_files(base: str) -> List[str]:
    """``base`` if it exists, then every existing shard of it by index."""
    files = [base] if os.path.isfile(base) else []
    return files + [shard for _, shard in _shard_indexes(base)]


def resolve_trace_paths(path: str) -> List[str]:
    """Expand ``path`` into the concrete JSONL files it names.

    Accepts a plain file, a directory (all ``*.jsonl`` inside), or a glob
    pattern.  A plain path resolves to the file, if it exists, plus its
    per-worker shards (:func:`shard_path`) in index order — after a
    ``--jobs N`` run the workers wrote only shards, so ``repro inspect
    trace.jsonl`` keeps working unchanged.

    Raises:
        FileNotFoundError: when nothing matches.
    """
    if _glob.has_magic(path):
        matches = sorted(p for p in _glob.glob(path) if os.path.isfile(p))
        if not matches:
            raise FileNotFoundError(f"no trace files match {path!r}")
        return matches
    if os.path.isdir(path):
        matches = sorted(
            os.path.join(path, name)
            for name in os.listdir(path)
            if name.endswith(".jsonl")
        )
        if not matches:
            raise FileNotFoundError(f"no *.jsonl trace files in {path!r}")
        return matches
    files = artifact_files(path)
    if files:
        return files
    raise FileNotFoundError(f"no such trace file: {path}")


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
class JsonlRecords:
    """The records of one or more JSONL artifact files, in file order.

    Iterating yields ``(shard, record)`` pairs, where ``shard`` is the
    source file's basename (run and message ids are only unique within
    one shard).  Blank lines, provenance headers and the attempt markers
    earlier builds wrote are bookkeeping and skipped silently.  Unparseable lines — including the
    truncated final line a killed worker leaves — and lines that are not
    JSON objects are skipped and counted in :attr:`skipped`.  With
    ``dedupe``, an exact repeat of an earlier line of the same shard is
    dropped and counted in :attr:`duplicates`.
    """

    def __init__(self, paths: Iterable[str], dedupe: bool = False) -> None:
        self.paths = list(paths)
        self.dedupe = dedupe
        self.skipped = 0
        self.duplicates = 0

    def __iter__(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        for path in self.paths:
            shard = os.path.basename(path)
            seen: set = set()
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    if line in seen:
                        self.duplicates += 1
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        self.skipped += 1
                        continue
                    if not isinstance(record, dict):
                        self.skipped += 1
                        continue
                    if "provenance" in record or "attempt" in record:
                        continue
                    if self.dedupe:
                        seen.add(line)
                    yield shard, record


# ----------------------------------------------------------------------
# Writing: one artifact per process
# ----------------------------------------------------------------------
class JsonlArtifact:
    """One process's handle on one JSONL artifact.

    Args:
        path: The file this process writes (a worker's shard path).
        opener: Writer class to open it with (:class:`DurableJsonlWriter`
            or a subclass such as the trace bus's ``JsonlSink``).

    The file opens on the first :meth:`writer` call, so a worker that
    never records leaves no shard behind; one opened early (the trace,
    so an unwritable path fails up front) is deleted on :meth:`close`
    if it recorded nothing.
    """

    def __init__(
        self,
        path: str,
        opener: Callable[[str], DurableJsonlWriter] = DurableJsonlWriter,
    ) -> None:
        self.path = path
        self._opener = opener
        self._writer: Optional[DurableJsonlWriter] = None

    def writer(self) -> DurableJsonlWriter:
        """The (lazily opened) writer."""
        if self._writer is None:
            self._writer = self._opener(self.path)
            # Workers exit through os._exit (multiprocessing skips normal
            # interpreter shutdown), so the atexit hook never runs there.
            multiprocessing.util.Finalize(
                self._writer, self._writer.close, exitpriority=10
            )
        return self._writer

    def close(self) -> None:
        writer = self._writer
        if writer is not None:
            writer.close()
            self._writer = None
            if not writer.written and writer._pid == os.getpid():
                try:
                    os.unlink(writer.path)
                except OSError:
                    pass
