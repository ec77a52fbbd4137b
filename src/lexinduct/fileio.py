"""Crash-safe output files.

Every file the pipeline writes goes through `atomic_write`: the content is
written to a temporary file in the same directory and renamed over the
target only once it is complete, so a failed or killed writer never leaves
a truncated output behind. A writer killed outright (SIGKILL) cannot remove
its temporary file; `remove_stale_temps` deletes such leftovers. Readers
convert numeric fields with `parse_number`, which names the file and line
of a malformed value.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterator, TypeVar

T = TypeVar("T")


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open a temporary sibling of `path` for writing (UTF-8 text unless
    `binary`) and `os.replace` it over `path` when the block ends cleanly.
    If the block raises, the temporary file is removed and `path` is left
    as it was. A path that exists but is not a regular file (a pipe or a
    terminal) is written in place."""
    path = Path(os.path.realpath(path))
    if path.exists() and not path.is_file():
        with open(path, "wb" if binary else "w", encoding=None if binary else "utf-8") as fh:
            yield fh
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb" if binary else "w", encoding=None if binary else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def remove_stale_temps(root: Path) -> list[Path]:
    """Delete and return every `atomic_write` temporary under `root`. Call it
    only while no writer can be at work there: each is then a leftover."""
    temps = (p for p in root.rglob(".*.tmp") if re.fullmatch(r"\..+\.\d+\.tmp", p.name))
    stale = [p for p in temps if p.is_file()]
    for path in stale:
        path.unlink(missing_ok=True)
    return stale


def parse_number(convert: Callable[[str], T], text: str, path: str | Path, lineno: int) -> T:
    """`convert(text)`, with `convert` int or float; a malformed value
    raises ValueError naming the file and line."""
    try:
        return convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise ValueError(f"{path}: line {lineno}: expected {kind}, got {text!r}") from None
