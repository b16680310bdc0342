"""Reading UTF-8 text inputs: a decode failure becomes an
``EncodingError`` that names the input, so the CLI can report it; TSV
inputs share one rule for blank and comment lines.  Every file the
program writes goes through ``atomic_write``."""

from __future__ import annotations

import functools
import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, TypeVar

_T = TypeVar("_T")


@functools.cache
def not_xml_char() -> re.Pattern[str]:
    """The pattern of a character outside XML 1.0's Char production,
    compiled on the first call: the compile takes milliseconds, and every
    such character is unprintable, so a caller that tests
    ``str.isprintable()`` first never needs it on common text."""
    return re.compile(
        "[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


class EncodingError(ValueError):
    """An input that is not UTF-8 text."""


@contextmanager
def decoding(name: str) -> Iterator[None]:
    """Raise a UTF-8 decode failure inside the block as an
    ``EncodingError`` naming ``name``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise EncodingError(f"{name}: not UTF-8 text ({exc.reason})") from exc


@contextmanager
def open_utf8(path) -> Iterator[IO[str]]:
    """``path`` opened for reading as UTF-8 text, with ``decoding(path)``
    around the block.  A leading byte-order mark is not read as text."""
    with open(path, encoding="utf-8-sig") as f, decoding(str(path)):
        yield f


def read_with(load: Callable[[IO[str], str], _T], path) -> _T:
    """``load(stream, name)`` over the file at ``path``, opened under
    ``open_utf8``; the name is ``str(path)``, for its messages."""
    with open_utf8(path) as f:
        return load(f, str(path))


def data_lines(stream: Iterable[str]) -> Iterator[tuple[int, str]]:
    """``(lineno, line)`` for each line of a TSV input that is not blank
    and not a ``#`` comment, without its newline.  A line that is only
    whitespace is blank; a comment starts with ``#`` in its first column,
    so an indented ``#`` is data."""
    for lineno, line in enumerate(stream, 1):
        line = line.rstrip("\n")
        if line.strip() and not line.startswith("#"):
            yield lineno, line


def utf8_lines(path) -> Iterator[str]:
    """The lines of the file at ``path``, read under ``open_utf8``: the
    file is opened when the first line is asked for and closed once the
    lines run out."""
    with open_utf8(path) as f:
        yield from f


def atomic_write(path, data: str | bytes) -> None:
    """Write ``data``, UTF-8 text or bytes, to ``path`` through a temporary
    file in its directory renamed over it, so a reader sees the old file
    or the new one, never a part; the directory is made if missing.  The
    file keeps the permission bits of the one it replaces; a new file gets
    what ``open(path, "w")`` gives it, 0o666 less the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        mode = os.stat(path).st_mode & 0o777
    except FileNotFoundError:
        mode = None
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with (os.fdopen(fd, "wb") if isinstance(data, bytes)
              else os.fdopen(fd, "w", encoding="utf-8")) as f:
            f.write(data)
        if mode is not None:
            os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
