"""Small file helpers used by the serializers and the CLI."""

from __future__ import annotations

import contextlib
import os
import tempfile
from typing import Callable, Iterator, TextIO


@contextlib.contextmanager
def _atomic_open(path: str) -> Iterator[TextIO]:
    """Open ``path`` for writing text so readers never see a partial file.

    The content goes to a temporary file in the destination directory and
    is moved into place with :func:`os.replace`, which is atomic on POSIX,
    when the block ends; if the block raises, the temporary file is
    removed and ``path`` is left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through :func:`_atomic_open`."""
    with _atomic_open(path) as handle:
        handle.write(text)


def format_float(value: float) -> str:
    """Render a float with enough digits to round-trip exactly."""
    return format(float(value), ".17g")


def read_key_values(path: str, fields: dict[str, Callable[[str], object]]) -> dict[str, object]:
    """Read a ``key = value`` file into a dict in file order.

    ``fields`` maps each accepted key to the converter of its value text.
    ``#`` starts a comment and blank lines are ignored; a line without
    ``=``, an unknown or repeated key and a value its converter rejects
    raise :class:`ValueError` naming ``path:lineno``. Keys absent from
    the file are absent from the result.
    """
    values: dict[str, object] = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in fields:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = fields[key](text.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}") from exc
    return values
