"""Marshal snapshots of parsed inputs, kept in a ``__pycache__`` directory
beside the sources, trusted as Python trusts the ``.pyc`` files there, and
skipped silently where that directory cannot be written.

Unlike ``.pyc`` files, snapshots follow neither ``sys.dont_write_bytecode``
(``PYTHONDONTWRITEBYTECODE``) nor ``sys.pycache_prefix``.  Containers often
set the first, and honouring it there would make every load a text parse:
in-process, the 30k-stem lexicon of the benchmark's big-lexicon workload
takes 150-250 ms to parse and under 10 ms to restore (Python 3.11).

A snapshot holds a SHA-256 over every input of the parse: each source's
bytes, length-prefixed, and the bytes of this package's modules, so it
never outlives the code that parsed and checked its rows.  It is written
only after a text parse that passed every check, from sources that did not
change during that parse, so a hit stands for such a parse.  Deleting
``__pycache__`` clears it."""

from __future__ import annotations

import functools
import hashlib
import logging
import marshal
import os
import sys
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from .textio import atomic_write

log = logging.getLogger(__name__)

_T = TypeVar("_T")

_CHUNK = 1 << 16


def snapshot_path(directory, name: str) -> Path:
    """Where the snapshot called ``name`` of sources in ``directory`` lives."""
    return (Path(directory) / "__pycache__"
            / f"{name}.{sys.implementation.cache_tag}.marshal")


def _hash_files(h, paths: Iterable) -> None:
    """Feed each file's length, then its bytes, read in chunks, to ``h``."""
    for path in paths:
        with open(path, "rb") as f:
            h.update(os.fstat(f.fileno()).st_size.to_bytes(8, "little"))
            while chunk := f.read(_CHUNK):
                h.update(chunk)


@functools.cache
def _code_digest() -> bytes:
    """The digest of this package's modules, taken once per process: the
    code that runs is the code imported."""
    h = hashlib.sha256()
    _hash_files(h, sorted(Path(__file__).parent.glob("*.py")))
    return h.digest()


def _digest(sources: Sequence) -> bytes | None:
    """The snapshot key of ``sources``, or None if one cannot be read."""
    try:
        h = hashlib.sha256(_code_digest())
        _hash_files(h, sources)
    except OSError:
        return None
    return h.digest()


def load_cached(sources: Sequence, path: Path, parse: Callable[[], _T],
                dump: Callable[[_T], object],
                restore: Callable[[object], _T]) -> _T:
    """``restore`` of the payload of the snapshot at ``path`` if its key is
    that of ``sources``; else ``parse()``, whose result ``dump`` turns into
    the payload of a new snapshot.  ``parse`` is the reference: a snapshot
    that cannot be read or restored is passed over, and a source that
    cannot be read is left for ``parse`` to report."""
    key = _digest(sources)
    if key is not None:
        try:
            with open(path, "rb") as f:
                data = f.read()
            # marshal.load(f) reads object by object, many times slower.
            stored, payload = marshal.loads(data)
            del data
            if stored == key:
                result = restore(payload)
                log.debug("snapshot hit: %s", path)
                return result
        except (OSError, EOFError, ValueError, TypeError, LookupError):
            pass
    result = parse()
    if key is None or _digest(sources) != key:
        log.debug("snapshot miss, not written: %s: sources changed or "
                  "unreadable", path)
        return result
    try:
        atomic_write(path, marshal.dumps((key, dump(result))))
    except OSError as exc:
        log.debug("snapshot miss, not written: %s: %s", path, exc)
    else:
        log.debug("snapshot miss, written: %s", path)
    return result
