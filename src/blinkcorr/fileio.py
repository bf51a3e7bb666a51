"""Small file helpers used by the serializers and the CLI."""

from __future__ import annotations

import contextlib
import os
import tempfile
from typing import BinaryIO, Callable, Iterator

import numpy as np


@contextlib.contextmanager
def _atomic_open(path: str) -> Iterator[BinaryIO]:
    """Open ``path`` for writing bytes so readers never see a partial file.

    The content goes to a temporary file in the destination directory and
    is moved into place with :func:`os.replace`, which is atomic on POSIX,
    when the block ends; if the block raises, the temporary file is
    removed and ``path`` is left as it was. The file gets the mode of the
    file it replaces, or ``0o666`` less the umask when it is new, as
    :func:`open` would give it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            try:
                mode = os.stat(path).st_mode & 0o7777
            except FileNotFoundError:
                umask = os.umask(0o022)
                os.umask(umask)
                mode = 0o666 & ~umask
            os.fchmod(handle.fileno(), mode)
            yield handle
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 through :func:`_atomic_open`."""
    with _atomic_open(path) as handle:
        handle.write(text.encode())


def format_float(value: float) -> str:
    """Render a float with enough digits to round-trip exactly."""
    return format(float(value), ".17g")


_POW5 = np.array([5**i for i in range(28)], dtype=np.uint64)
# The four ASCII digits of 0 to 9999 as one word each, and their trailing
# '0's; 16-bit temporaries keep the import from growing the heap.
_SCALES, _TO_9999 = np.array([1000, 100, 10, 1], np.int16), np.arange(10_000, dtype=np.int16)[:, None]
_GROUPS = (_TO_9999 // _SCALES % 10 + ord("0")).astype(np.uint8).view(np.uint32)[:, 0]
_TRAILING_ZEROS = (_TO_9999 % (10 * _SCALES) == 0).sum(axis=1)
_COLS = np.arange(32)
# Row ``j`` of _BEFORE is 0xFF in the columns left of ``j``; row
# ``32 * a + b`` of _SPAN marks the columns ``a`` to ``b``.
_BEFORE = np.where(_COLS < _COLS[:, None], np.uint8(255), np.uint8(0))
_SPAN = ((_COLS >= _COLS[:, None, None]) & (_COLS <= _COLS[:, None])).reshape(1024, 32)


def _format_each(values: np.ndarray) -> list[bytes]:
    """``'%.17g'`` of each value, one at a time."""
    return [b"%.17g" % value for value in values.tolist()]


def _scaled(m: np.ndarray, e2: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """``m * 2**e2 * 10**(16 - k)`` truncated, whether it rounds up (half to
    even), and where ``m * 5**(16 - k) >> 1..63`` in 128 bits is exact."""
    s = 16 - k
    shift = -(e2 + s)
    ok = (s >= 1) & (s <= 27) & (shift >= 1) & (shift <= 63)
    p = np.take(_POW5, s, mode="clip")
    shift = np.clip(shift, 1, 63).astype(np.uint64)
    ml, mh, pl, ph = m & 0xFFFFFFFF, m >> 32, p & 0xFFFFFFFF, p >> 32
    ll = ml * pl
    mid = ml * ph + mh * pl + (ll >> 32)
    lo = (mid << 32) | (ll & 0xFFFFFFFF)
    hi = mh * ph + (mid >> 32)
    t = (hi << (64 - shift)) | (lo >> shift)
    rem, half = lo & ((1 << shift) - 1), 1 << (shift - 1)
    return t, (rem > half) | ((rem == half) & (t & 1 == 1)), ok


def _format_times(times: np.ndarray) -> bytes:
    """The bytes of ``'%.17g\\n'`` for each time, all times at once.

    A double ``m * 2**e2`` in ``[10**k, 10**(k + 1))`` gives the digits
    ``N = x * 10**(16 - k)`` rounded half to even, from an exact 128-bit
    product (fixed precision as in Adams, "Ryu", PLDI 2018), laid out by
    ``%g``'s rule one byte row per time. Values outside [1e-11, 2**51),
    not finite or subnormal go to :func:`_format_each`.
    """
    x = np.ascontiguousarray(times, dtype=np.float64)
    biased = (x.view(np.uint64) >> 52).astype(np.int64)
    ok = (biased >= 1) & (biased <= 2046)
    bits = np.where(ok, x, 1.0).view(np.uint64)
    m = (bits & (1 << 52) - 1) | 1 << 52
    e2 = (bits >> 52).astype(np.int64) - 1075
    k = np.clip(np.floor(np.log10(bits.view(np.float64))), -11, 15).astype(np.int64)
    t, up, inside = _scaled(m, e2, k)
    # log10 can put k one off next to a power of ten; the truncated N tells.
    k += (t >= 10**17).astype(np.int64) - (t < 10**16)
    wrong = np.flatnonzero((t >= 10**17) | (t < 10**16))
    if wrong.size:
        t[wrong], up[wrong], inside[wrong] = _scaled(m[wrong], e2[wrong], k[wrong])
    # Rounding up to 10**17 would carry into the exponent; no double in the
    # domain does (the largest doubles below 1e-14 and 1e-70 do).
    ok &= inside & (t >= 10**16) & (t + up < 10**17)
    n, k = np.where(ok, t + up, 10**16), np.where(ok, k, 0)
    high = (n // 10**8 % 10**8).astype(np.int64)
    low = (n % 10**8).astype(np.int64)
    groups = [high // 10_000, high % 10_000, low // 10_000, low % 10_000]
    # Digits in columns 7 to 23, after enough '0's for 0.000ddd.
    row = np.full((x.size, 32), ord("0"), dtype=np.uint8)
    row[:, 7] += (n // 10**16).astype(np.uint8)
    for col, group in enumerate(groups, start=2):
        row.view(np.uint32)[:, col] = np.take(_GROUPS, group)
    zeros = np.take(_TRAILING_ZEROS, groups[0])
    for group in groups[1:]:
        zeros = np.where(group == 0, zeros + 4, np.take(_TRAILING_ZEROS, group))
    # k <= 15 in the domain, so exponent notation means k < -4.
    sci = k < -4
    point = np.where(sci, 0, k)
    dot = 8 + point
    fraction = 16 - zeros - point
    end = np.where(fraction > 0, dot + 1 + fraction, dot)
    start = 7 + np.minimum(point, 0)
    # Columns from the dot on take the digit left of them.
    shifted = np.roll(row.ravel(), 1).reshape(row.shape)
    flat = (shifted ^ ((row ^ shifted) & np.take(_BEFORE, dot, axis=0))).ravel()
    base = np.arange(0, row.size, 32)
    flat[base + dot] = ord(".")
    if sci.any():
        at, power = base[sci] + end[sci], -k[sci]
        flat[at], flat[at + 1] = ord("e"), ord("-")
        flat[at + 2], flat[at + 3] = ord("0") + power // 10, ord("0") + power % 10
        end[sci] += 4
    flat[base + end] = ord("\n")
    text = flat[np.take(_SPAN, start * 32 + end, axis=0).ravel()].tobytes()
    if ok.all():
        return text
    lines, outside = text.split(b"\n"), np.flatnonzero(~ok)
    for i, line in zip(outside.tolist(), _format_each(x[outside])):
        lines[i] = line
    return b"\n".join(lines)


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
