"""CSV text of float64 blocks, each cell the shortest round-trip decimal,
and the JSON text of float64 arrays built from it.

The bytes are those of ``",".join(map(repr, row))`` per row, with the row
number first where asked, but the digits come from whole-array uint64
arithmetic rather than one ``float.__repr__`` per cell.  ``JsonText``
writes what ``json.dumps`` writes for a text with arrays in it.

Digits: Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020), the algorithm behind Java's ``Double.toString``; it is exact and
needs only 64x64 -> 128-bit high products, built here from 32-bit halves.
``repr`` differs from Java's output, so three parts of the Java code differ:
tiny subnormals take no ``10 * t`` path, a one-digit-shorter candidate is
tried from two digits on (``s >= 10``, Java: 100), and NaN prints ``nan``
whatever its sign bit.

Text: the 17 digits of each cell, left aligned, its exponent digits and a
few constant bytes form a 32-byte record.  Each cell's text is one gather
from its record through a template chosen by (layout, significant digits,
sign, separator); NUL bytes pad the templates and are dropped.  The layouts
follow ``repr``: exponent form when the decimal exponent is below -4 or at
least 16 (1e-05 and 1e+16, but 0.0001 and 9999999999999998.0), two
exponent digits at least, and ``.0`` on integral values.  A row number is
no cell: its digits are written as integer text, right aligned behind NULs
and followed by a comma, in front of the row's cells.

Every constant mixed with a uint64 array is an ``np.uint64``: under the
value-based casting of numpy < 2, uint64 with int64 gives float64.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

_U = np.uint64
_K_MIN = -324  # smallest and largest k = floor(log10(2^q)) of a double
_K_MAX = 292
_C_MIN = _U(1 << 52)
_T_MASK = _U((1 << 52) - 1)
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_INF = _U(0x7FF << 52)
_ONE = _U(0x3FF << 52)

#: A cell's record is 16 uint16 planes, two bytes of every cell in each:
#: "0", the 17 digits, the exponent's sign and three digits, then constant
#: bytes.  Byte j of cell c sits at (j >> 1) * 2 * cells + 2 * c + (j & 1).
_SIGN, _HUNDREDS, _TENS, _UNITS = 18, 19, 20, 21
_CONST = b"-.e,\nnaif\0"
_MINUS, _POINT, _E, _COMMA, _NEWLINE, _N, _A, _I, _F, _NUL = range(22, 32)
_ZERO = 0
#: Widest cell: "-1.2345678901234567e-308,".
_WIDTH = 25

#: Layouts: fixed point with the decimal point at p = -3 .. 16 (0 .. 19),
#: exponent form with two or three exponent digits, 0.0, inf and nan.
#: A template is chosen by ((layout * 17 + n - 1) * 2 + sign)
#: * 2 + last, for n significant digits and the last cell of a row.
_FIXED_MIN, _FIXED_MAX = -3, 16
_PER_LAYOUT = 17 * 2 * 2
_EXP2, _EXP3, _ZERO_L, _INF_L, _NAN_L = range(20, 25)
_POINT_BIAS = 324  # the point of a double lies in -323 .. 309
#: Cells per step of the gather loop, which keeps its byte offsets small.
_CHUNK = 2048


def _padded(rows: list[list[int]]) -> np.ndarray:
    return np.array([row + [_NUL] * (_WIDTH - len(row)) for row in rows], dtype=np.uint8)


def _templates() -> np.ndarray:
    """Every template, one row per template number, as the record positions
    of its bytes: a minus, a head cut after its first `head_len` bytes, a
    tail cut after `tail_len`, the separator, and NULs."""
    digits = list(range(1, 18))
    heads = _padded([[_ZERO, _POINT] + [_ZERO] * -p + digits for p in range(_FIXED_MIN, 1)]
                    + [digits[:p] + [_POINT] + digits[p:] for p in range(1, _FIXED_MAX + 1)]
                    + [[1, _POINT] + digits[1:]] * 2
                    + [[_ZERO, _POINT, _ZERO], [_I, _N, _F], [_N, _A, _N]])
    tails = _padded([[_ZERO]] * _EXP2 + [[_E, _SIGN, _TENS, _UNITS],
                                         [_E, _SIGN, _HUNDREDS, _TENS, _UNITS]] + [[]] * 3)
    # axes: layout, n, sign, row end, byte
    layout = np.arange(_NAN_L + 1)[:, None, None, None, None]
    n = np.arange(1, 18)[:, None, None, None]
    p = layout + _FIXED_MIN
    exp = (layout == _EXP2) | (layout == _EXP3)
    head_len = np.where(layout < _EXP2, np.where(p <= 0, n + 2 - p, np.maximum(n, p) + 1),
                        np.where(exp, n + (n > 1), 3))
    # digits past n are "0", so an integral value shows p digits and ".0"
    tail_len = np.where(layout < _EXP2, n <= p, np.where(exp, 4 + (layout == _EXP3), 0))
    at = np.arange(_WIDTH)
    end = head_len + tail_len
    cell = np.where(at < head_len, heads[layout[..., 0]],
                    np.where(at < end, tails[layout, at - head_len], _NUL))
    cell = np.where(at == end, np.array([_COMMA, _NEWLINE])[:, None], cell)
    out = np.empty((_NAN_L + 1, 17, 2, 2, _WIDTH), dtype=np.uint8)
    out[:, :, :1] = cell
    out[:, :, 1, :, 0] = _MINUS
    out[:, :, 1, :, 1:] = cell[:, :, 0, :, :-1]
    out[_NAN_L, :, 1] = cell[_NAN_L, :, 0]
    return out.reshape(-1, _WIDTH)


def _chars(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Pairs of byte values as uint16, in memory order on any platform."""
    pair = np.empty((np.size(second), 2), dtype=np.uint8)
    pair[:, 0], pair[:, 1] = first, second
    return pair.view(np.uint16).ravel()


def _scales() -> tuple[np.ndarray, np.ndarray]:
    """g = floor(10^-k 2^-r) + 1 in [2^125, 2^126) for every k, split 63 +
    63 bits.  For k > 0 it is floor(2^(125 + len(10^k)) / 10^k) + 1, taken
    from one running quotient of a power of two: floor(floor(a / b) / c)
    is floor(a / (b c))."""
    g, p = [], 1
    for _ in range(1 - _K_MIN):  # k = 0, -1, .., _K_MIN
        r = p.bit_length() - 126
        g.append((p >> r if r >= 0 else p << -r) + 1)
        p *= 10
    g.reverse()
    top = 125 + p.bit_length()  # p = 10^(1 - _K_MIN) exceeds 10^_K_MAX
    q, p = 1 << top, 10
    for _ in range(_K_MAX):  # k = 1 .. _K_MAX
        q //= 10
        g.append((q >> top - 125 - p.bit_length()) + 1)
        p *= 10
    words = np.frombuffer(b"".join(v.to_bytes(16, "big") for v in g), dtype=">u8").astype(_U)
    return (words[::2] << _U(1)) | (words[1::2] >> _U(63)), words[1::2] & _M63


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """Built on first use, so that importing the CLI stays cheap."""
    # g, and each half again in 32-bit halves for the high products
    g1, g0 = _scales()
    t = {"g1": g1, "g1_hi": g1 >> _U(32), "g1_lo": g1 & _M32,
         "g0_hi": g0 >> _U(32), "g0_lo": g0 & _M32,
         "pow10": _U(10) ** np.arange(18, dtype=_U)}
    # digit pair i of 8 (digits 2i + 2 and 2i + 3) at 100 i + its value,
    # and what its last nonzero digit adds to the template number
    i, v = np.divmod(np.arange(800), 100)
    t["pairs"] = _chars(48 + v // 10, 48 + v % 10)
    t["last"] = (4 * (2 * i + 1 + (v % 10 != 0)) * (v != 0)).astype(np.uint8)
    # per decimal point position: the layout, and the exponent's bytes
    p = np.arange(-_POINT_BIAS, 310)
    e = abs(p - 1)
    t["layout"] = _PER_LAYOUT * np.where((_FIXED_MIN <= p) & (p <= _FIXED_MAX), p - _FIXED_MIN,
                                         np.where(e >= 100, _EXP3, _EXP2))
    t["exp_head"] = _chars(np.where(p > 0, ord("+"), ord("-")), 48 + e // 100 % 10)
    t["exp_tail"] = _chars(48 + e // 10 % 10, 48 + e % 10)
    t["const"] = np.frombuffer(_CONST, dtype=np.uint16)[:, None, None]
    templates = _templates()
    t["plane"] = np.right_shift(templates, 1, dtype=np.intp)
    t["byte"] = np.bitwise_and(templates, 1, dtype=np.intp)
    return t


def _mulhi(out: np.ndarray, tmp: np.ndarray, a_hi: np.ndarray, a_lo: np.ndarray,
           b_hi: np.ndarray, b_lo: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products a b into `out`, from 32-bit
    halves, for a < 2^63 and b < 2^60, whose cross terms sum below 2^64.
    In place: a fresh array per step costs more than the step."""
    np.multiply(a_lo, b_lo, out=out)
    out >>= _U(32)
    out += np.multiply(a_lo, b_hi, out=tmp)
    out += np.multiply(a_hi, b_lo, out=tmp)
    out >>= _U(32)
    out += np.multiply(a_hi, b_hi, out=tmp)
    return out


def _shortest(x: np.ndarray, t: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Schubfach on the bits of finite positive doubles: (f, k) with
    f 10^k the shortest decimal that rounds to each, the closest to it of
    those, and an even f on a tie.  f < 10^17."""
    bq = x >> _U(52)
    c = x & _T_MASK
    irregular = (c == 0) & (bq > 1)
    c |= (bq > 0) * _C_MIN
    q = np.maximum(bq, _U(1)).astype(np.int64) - 1075
    # the spacing below a power of two is half that above it, except at
    # the smallest normal exponent
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(_U)
    g = [np.take(t[name], k + -_K_MIN, mode="clip")
         for name in ("g1", "g1_hi", "g1_lo", "g0_hi", "g0_lo")]
    # the value and both ends of its rounding interval, scaled by 4 10^-k
    cp = np.empty((3,) + x.shape, dtype=_U)
    np.left_shift(c, h + _U(2), out=cp[0])
    delta = _U(2) << h
    np.subtract(cp[0], delta >> irregular, out=cp[1])
    np.add(cp[0], delta, out=cp[2])
    cp_hi, cp_lo = cp >> _U(32), cp & _M32
    # rop of Schubfach: the high product rounded to odd
    z = np.multiply(g[0], cp, out=cp)
    z >>= _U(1)
    vb, tmp = np.empty_like(z), np.empty_like(z)
    z += _mulhi(vb, tmp, g[3], g[4], cp_hi, cp_lo)
    _mulhi(vb, tmp, g[1], g[2], cp_hi, cp_lo)
    vb += np.right_shift(z, _U(63), out=cp_hi)
    z &= _M63
    z += _M63
    z >>= _U(63)
    vb |= z
    vb, vbl, vbr = vb
    out = c & _U(1)  # an odd c's interval is open
    vbl += out
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    shorter = (s >= _U(10)) & (upin != (((sp10 + _U(10)) << _U(2)) + out <= vbr))
    uin = vbl <= s << _U(2)
    win = ((s + _U(1)) << _U(2)) + out <= vbr
    mid = (s << _U(2)) + _U(2)
    down = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & _U(1)) == 0)))
    return np.where(shorter, sp10 + _U(10) * ~upin, s + ~down), k


@functools.lru_cache(maxsize=2)
def _offsets(cells: int) -> np.ndarray:
    """The templates as byte offsets into the records of `cells` cells."""
    t = _tables()
    return t["plane"] * (2 * cells) + t["byte"]


def _records(block: np.ndarray, row_ends: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Every cell's record, and the number of its template."""
    t = _tables()
    bits = np.ascontiguousarray(block, dtype=np.float64).view(_U)
    x = bits & _M63
    special = (x == 0) | (x >= _INF)
    # zeros, infinities and NaNs run through as 1.0; their template drops it
    x[special] = _ONE
    f, k = _shortest(x, t)
    # a normal double has 16 or 17 digits
    length = (f >= _U(10 ** 16)) + 16
    subnormal = x < _C_MIN
    if subnormal.any():
        length[subnormal] = np.searchsorted(t["pow10"], f[subnormal], side="right")
    point = length + k + _POINT_BIAS
    layout = np.take(t["layout"], point)
    if special.any():
        kind = bits[special] & _M63
        layout[special] = _PER_LAYOUT * np.where(kind == 0, _ZERO_L,
                                                 np.where(kind == _INF, _INF_L, _NAN_L))
    # each cell's 17 digits, left aligned, and its template number but n
    digits = f * np.take(t["pow10"], 17 - length)
    choice = layout + 2 * (bits >> _U(63)).astype(np.intp)
    # "0" and the first digit, then eight pairs of digits
    record = np.empty((16,) + digits.shape, dtype=np.uint16)
    high = digits // _U(10 ** 8)
    low = (digits - high * _U(10 ** 8)).astype(np.uint32)
    high = high.astype(np.uint32)
    head = high // np.uint32(10 ** 8)
    high -= head * np.uint32(10 ** 8)
    np.take(t["pairs"], head, out=record[0], mode="clip")
    pairs = np.empty((8,) + digits.shape, dtype=np.uint32)
    quads = pairs[::2]
    np.floor_divide(high, np.uint32(10 ** 4), out=quads[0])
    np.floor_divide(low, np.uint32(10 ** 4), out=quads[2])
    quads[1] = high - quads[0] * np.uint32(10 ** 4)
    quads[3] = low - quads[2] * np.uint32(10 ** 4)
    tens = quads // np.uint32(100)
    pairs[1::2] = quads - tens * np.uint32(100)
    pairs[::2] = tens
    pairs += np.arange(0, 800, 100, dtype=np.uint32)[:, None, None]
    np.take(t["pairs"], pairs, out=record[1:9], mode="clip")
    # n: up to the last nonzero digit
    choice += np.take(t["last"], pairs).max(axis=0)
    if row_ends is None:
        choice[:, -1] += 1
    else:
        choice += row_ends
    record[9] = np.take(t["exp_head"], point)
    record[10] = np.take(t["exp_tail"], point)
    record[11:] = t["const"]
    return record, choice.ravel()


def _row_numbers(first: int, rows: int) -> np.ndarray:
    """The text of rows first .. first + rows - 1, one row each: the digits
    right aligned behind NULs, then a comma."""
    width = len(str(first + rows - 1))
    text = np.empty((rows, width + 1), dtype=np.uint8)
    number = _U(first) + np.arange(rows, dtype=_U)
    for at in range(width - 1, -1, -1):
        above = number // _U(10)  # np.divmod takes about twice as long
        text[:, at] = number - above * _U(10)
        number = above
    text += ord("0")
    text[:, width] = ord(",")
    # the numbers are ascending, so those short of a digit lead the block
    for at in range(width - 1):
        text[:max(0, 10 ** (width - 1 - at) - first), at] = 0
    return text


def csv_rows(block: np.ndarray, first_row: int | None = None,
             row_ends: np.ndarray | None = None) -> bytes:
    """The CSV lines of a 2-D float64 block, each cell as its repr; with
    `first_row`, each line starts with its row number, counted from it,
    written as integer text with no record or template.  With `row_ends`,
    the cells of a one-row block end a line where it is true, and the
    others, the last one too, end with a comma."""
    record, choice = _records(block, row_ends)
    cells = choice.size
    offsets = _offsets(cells)
    source = record.view(np.uint8).ravel()
    text = np.empty((cells, _WIDTH), dtype=np.uint8)
    # the byte offsets of a few cells at a time keep the memory small
    index = np.empty((min(cells, _CHUNK), _WIDTH), dtype=np.intp)
    for lo in range(0, cells, _CHUNK):
        part = index[:min(_CHUNK, cells - lo)]
        np.take(offsets, choice[lo:lo + len(part)], axis=0, out=part, mode="clip")
        part += np.arange(2 * lo, 2 * (lo + len(part)), 2)[:, None]
        np.take(source, part, out=text[lo:lo + len(part)], mode="clip")
    if first_row is not None:
        text = np.concatenate((_row_numbers(first_row, len(block)),
                               text.reshape(-1, block.shape[1] * _WIDTH)), axis=1)
    return text[text != 0].tobytes()


def _cells(rows: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Cells lo .. hi - 1 of the 2-D `rows` in row order, clipped to it."""
    lo, hi, width = max(lo, 0), min(hi, rows.size), rows.shape[1]
    first = lo // width
    return rows[first:-(-hi // width)].ravel()[lo - first * width:hi - first * width]


def _json_rows(text: bytes) -> str:
    """CSV text as JSON: ", " between cells, "], [" between rows."""
    return text.replace(b",", b", ").replace(b"\n", b"], [").decode()


class JsonText:
    """A JSON text and its newline: `parts` joined by the JSON of `arrays`,
    float64 arrays of one or two dimensions, in pieces.

    Each pass formats the arrays' cells `block` at a time, across arrays,
    each cell ending with "," or, at the end of a row, a newline (a 1-D
    array is one row).  JSON has ", " for the comma and "], [" for the
    newline, except at the end of an array, which closes it.  (A plain
    class: a dataclass takes about half a millisecond to define.)
    """

    def __init__(self, parts: list[str], arrays: list[np.ndarray], block: int):
        self.parts, self.arrays, self.block = parts, arrays, block

    def __iter__(self) -> Iterator[str]:
        rows = [np.atleast_2d(a) for a in self.arrays]
        # the "opening" after the last array ends the text
        brackets = [("[", "]") if a.ndim == 1 else ("[[", "]]") for a in self.arrays]
        brackets.append(("\n", ""))
        stops = np.cumsum([a.size for a in rows])
        starts = stops - [a.size for a in rows]
        widths = np.array([a.shape[1] for a in rows])
        j = 0  # the array being written
        yield self.parts[0] + brackets[0][0]
        for lo in range(0, stops[-1], self.block):
            hi = min(lo + self.block, stops[-1])
            cell = np.arange(lo, hi)
            owner = np.searchsorted(stops, cell, side="right")
            row_end = (cell - starts[owner] + 1) % widths[owner] == 0
            values = np.concatenate([_cells(rows[k], lo - starts[k], hi - starts[k])
                                     for k in range(owner[0], owner[-1] + 1)])
            text = csv_rows(values[None], row_ends=row_end)
            # the newlines that end an array in this block
            newline = np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == ord("\n"))
            ends = stops[(lo < stops) & (stops <= hi)] - 1 - lo
            at = 0
            for end in newline[np.cumsum(row_end)[ends] - 1]:
                yield _json_rows(text[at:end])
                yield brackets[j][1] + self.parts[j + 1] + brackets[j + 1][0]
                j += 1
                at = end + 1
            if at < len(text):
                yield _json_rows(text[at:])
