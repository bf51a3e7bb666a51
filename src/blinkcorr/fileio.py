"""Small file helpers used by the serializers and the CLI."""

from __future__ import annotations

import contextlib
import os
import re
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


def plain_number(text: str) -> str:
    """``text``, unless it holds a ``_``: ``float()`` and ``int()`` read
    ``1_0`` as 10, and a number in an input file may not hold one, so that
    is a :class:`ValueError`."""
    if "_" in text:
        raise ValueError(f"digit separator in {text!r}")
    return text


_POW5 = np.array([5**i for i in range(28)], dtype=np.uint64)
# A time's line of '%.16e\n', packed: its lead digit, the dot, sixteen digits
# as two little-endian words of eight ASCII digits, 'e', the exponent's sign
# and its two digits, and the newline. Every time in [1e-99, 1e100) and +0.0
# takes exactly these 23 bytes.
_ROW = np.dtype(
    [("lead", "u1"), ("dot", "u1"), ("high", "<u8"), ("low", "<u8")]
    + [(name, "u1") for name in ("e", "sign", "tens", "ones", "newline")]
)
# The bytes of such a row, checked on the rows _parse_times leaves unproven.
_ROW_TEXT = re.compile(rb"[0-9]\.[0-9]{16}e[+-][0-9]{2}\n")
# The four ASCII digits of 0 to 9999 as the low half of a little-endian word.
_DIGITS = np.arange(10_000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
_GROUPS = (_DIGITS + ord("0")).astype(np.uint8).view("<u4")[:, 0].astype(np.uint64)
del _DIGITS
# The parser's powers of ten as doubles, correctly rounded, and its steps
# from eight ASCII digits in a little-endian word to their value.
_TENS = np.array([float(10**i) for i in range(28)])
_EIGHT_DIGITS = (
    (0x0F0F0F0F0F0F0F0F, 10 * 2**8 + 1, 8),
    (0x00FF00FF00FF00FF, 100 * 2**16 + 1, 16),
    (0x0000FFFF0000FFFF, 10_000 * 2**32 + 1, 32),
)


def _format_each(values: np.ndarray) -> list[bytes]:
    """``'%.16e'`` of each value, one at a time."""
    return [b"%.16e" % value for value in values.tolist()]


def _scaled(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """``x * 10**(16 - k)`` of positive normal doubles ``x = m * 2**e2``
    truncated, whether it rounds up (half to even), and where
    ``m * 5**(16 - k) >> 1..63`` in 128 bits is exact."""
    bits = x.view(np.uint64)
    m = (bits & (1 << 52) - 1) | 1 << 52
    s = 16 - k
    # -(e2 + s), with e2 the biased exponent less 1075.
    shift = 1075 - s - (bits >> 52).astype(np.int64)
    ok = (s >= 1) & (s <= 27) & (shift >= 1) & (shift <= 63)
    p = np.take(_POW5, s, mode="clip")
    del s
    shift = np.clip(shift, 1, 63).astype(np.uint64)
    ml, mh, pl, ph = m & 0xFFFFFFFF, m >> 32, p & 0xFFFFFFFF, p >> 32
    del m, p
    ll = ml * pl
    mid = ml * ph + mh * pl + (ll >> 32)
    hi = mh * ph + (mid >> 32)
    del ml, mh, pl, ph
    lo = (mid << 32) | (ll & 0xFFFFFFFF)
    del ll, mid
    t = (hi << (64 - shift)) | (lo >> shift)
    del hi
    rem, half = lo & ((1 << shift) - 1), 1 << (shift - 1)
    del lo, shift
    return t, (rem > half) | ((rem == half) & (t & 1 == 1)), ok


def _format_times(times: np.ndarray) -> bytes:
    """The bytes of ``'%.16e\\n'`` for each time, all times at once.

    A double ``m * 2**e2`` in ``[10**k, 10**(k + 1))`` gives the digits
    ``N = x * 10**(16 - k)`` rounded half to even, from an exact 128-bit
    product (fixed precision as in Adams, "Ryu", PLDI 2018), laid into the
    fixed columns of a :data:`_ROW`. Values outside [1e-11, 1e15), zero
    among them, go to :func:`_format_each`.
    """
    x = np.ascontiguousarray(times, dtype=np.float64)
    # Each temporary is dropped once dead: about 90 bytes per time.
    ok = (x >= 1e-11) & (x < 1e15)
    normal = np.where(ok, x, 1.0)
    k = np.clip(np.floor(np.log10(normal)), -11, 14).astype(np.int64)
    t, up, inside = _scaled(normal, k)
    # log10 can put k one off next to a power of ten; the truncated N tells.
    k += (t >= 10**17).astype(np.int64) - (t < 10**16)
    wrong = np.flatnonzero((t >= 10**17) | (t < 10**16))
    if wrong.size:
        t[wrong], up[wrong], inside[wrong] = _scaled(normal[wrong], k[wrong])
    del normal
    # Rounding up to 10**17 would carry into the exponent; no double in the
    # domain does (the largest doubles below 1e-14 and 1e-70 do).
    ok &= inside & (t >= 10**16) & (t + up < 10**17)
    # Rows left to _format_each lead with '1', '2' or ':', never a newline.
    t += up
    row = np.empty(x.size, _ROW)
    row["lead"] = t // 10**16 + ord("0")
    t %= 10**16
    for name, half in (("high", t // 10**8), ("low", t % 10**8)):
        row[name] = np.take(_GROUPS, half // 10_000) | np.take(_GROUPS, half % 10_000) << 32
    del t, half
    row["dot"], row["e"], row["newline"] = ord("."), ord("e"), ord("\n")
    row["sign"] = np.where(k < 0, ord("-"), ord("+"))
    np.abs(k, out=k)
    row["tens"], row["ones"] = k // 10 + ord("0"), k % 10 + ord("0")
    text = row.tobytes()
    if ok.all():
        return text
    lines, outside = text.split(b"\n"), np.flatnonzero(~ok)
    for i, line in zip(outside.tolist(), _format_each(x[outside])):
        lines[i] = line
    return b"\n".join(lines)


def _parse_times(text: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The double of each 23-byte row of ``text``, all rows at once, and
    where that double is proven to be the one ``float()`` gives.

    Only a row laid out as :data:`_ROW`, with a lead digit of 1 to 9 and an
    exponent ``k`` of -11 to 14, is read. Its digits ``N`` come eight per
    64-bit word (as in Lemire, "Number parsing at a gigabyte per second",
    Softw. Pract. Exp. 51, 1700 (2021)); the candidate ``N / 10**(16 - k)``
    then steps by up to three ulps until its own 17 digits, from the
    writer's exact product, are the row's. Digits within half a unit of the
    17th of a double lie within half an ulp of it, so a proven double is
    the nearest to the row. Other rows, zero among them, are left unproven
    with any value. The working set is about 100 bytes per row.
    """
    rows = np.frombuffer(text, _ROW)
    lead = rows["lead"] - np.uint8(ord("0"))
    ok = (lead >= 1) & (lead <= 9) & (rows["dot"] == ord(".")) & (rows["e"] == ord("e"))
    ok &= rows["newline"] == ord("\n")
    sign, tens, ones = rows["sign"], rows["tens"] - np.uint8(ord("0")), rows["ones"] - np.uint8(ord("0"))
    ok &= ((sign == ord("+")) | (sign == ord("-"))) & (tens <= 9) & (ones <= 9)
    k = (tens * np.int64(10) + ones) * np.where(sign == ord("-"), -1, 1)
    ok &= (k >= -11) & (k <= 14)
    n = lead * np.uint64(10**16)
    for name, scale in (("high", 10**8), ("low", 1)):
        # Every byte a digit (the SWAR test of fast_float), then eight
        # digits per word in three multiply-and-mask steps.
        words = rows[name].astype(np.uint64)
        high = words & 0xF0F0F0F0F0F0F0F0 | (words + 0x0606060606060606 & 0xF0F0F0F0F0F0F0F0) >> 4
        ok &= high == 0x3333333333333333
        for keep, factor, shift in _EIGHT_DIGITS:
            words &= keep
            words *= factor
            words >>= shift
        n += words * scale
        del words, high
    x = n / np.take(_TENS, 16 - k, mode="clip")
    # The candidate's 17 digits, scaled as if it lay in [10**k, 10**(k + 1)).
    got, up, inside = _scaled(x, k)
    got += up
    ok &= inside
    proven = ok & (got == n)
    miss = np.flatnonzero(ok & ~proven)
    for _ in range(3):
        if not miss.size:
            break
        x[miss] = step = np.nextafter(x[miss], np.where(got[miss] < n[miss], np.inf, 0.0))
        t, up, inside = _scaled(step, k[miss])
        got[miss] = t + up
        hit = inside & (got[miss] == n[miss])
        proven[miss[hit]] = True
        miss = miss[inside & ~hit]
    return x, proven


def read_key_values(path: str, fields: dict[str, Callable[[str], object]]) -> dict[str, object]:
    """Read a ``key = value`` file into a dict in file order.

    ``fields`` maps each accepted key to the converter of its value text.
    ``#`` starts a comment and blank lines are ignored; a line without
    ``=``, an unknown or repeated key and a value its converter rejects or
    that holds a ``_`` raise :class:`ValueError` naming ``path:lineno``.
    Keys absent from the file are absent from the result.
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
                values[key] = fields[key](plain_number(text.strip()))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}") from exc
    return values
