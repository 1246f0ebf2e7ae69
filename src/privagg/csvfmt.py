"""The trace and summary CSVs, byte-identical to Python's ``repr``.

``write_trace`` and ``write_summary`` write the files a run leaves,
formatting a chunk of rows at a time in numpy. A float64 is written as
``repr`` writes it: the shortest digit string that reads back to the same
double, the nearest such string when several are shortest, in fixed
notation when the decimal point falls within 16 digits of the first digit
and as ``d.ddde±XX`` otherwise. The digits come from Ryu (Ulf Adams, "Ryū:
fast float-to-string conversion", PLDI 2018), which yields the same digits
as the dtoa behind ``repr`` from fixed-width integer arithmetic alone;
numpy runs it over all of a call's values at once, with its 64×128-bit
products done in 32-bit limbs of uint64 arrays. An integer column is a
table of ``b"%d"`` texts built once per file and copied into each chunk.
``repr`` is the reference the tests compare against.

Text sits in fixed-width, NUL-padded fields of little-endian 64-bit
words: a chunk of CSV rows is one word matrix (a ``Sheet``), and its CSV
text is the matrix's bytes with the NULs dropped. ``floats`` writes a
float's field as one byte gather: Ryu's digits and the exponent fill a
source row, and a table of repr's layout patterns (``_patterns``), one row
per sign, digit count and point position, names the source byte of each
text byte. Each step of ``floats`` returns fresh numpy arrays and keeps
nothing between calls. A writer's buffers are plain numpy arrays that
live for one call: the Sheet and the chunk's values and text are sized
by ``CHUNK_ROWS`` or the widest round, the integer tables by the file's
rounds and node ids.

Each chunk but the last is written behind: the Sheet's one background
thread drops its NULs and writes its text while the calling thread
formats the next chunk, and the calling thread waits for that write
before it refills the Sheet, so chunks reach the file in order. The
mask, the NUL drop and the file write release the GIL, while ``floats``
is hundreds of small numpy calls that hold it between steps, so the two
overlap on a second core; formatting itself stays on one thread, as two
threads that each format half a chunk take longer than one. A failed
write is raised by the writer call, and no thread outlives the call.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Sequence

import numpy as np

# Trace and summary rows formatted per chunk, unless one round is wider,
# and rows whose NULs are dropped at a time. The chunk, not the number of
# rounds, sets most of a writer's memory: the sheet and write_trace's
# buffers take about 2 MiB; the NUL drop's mask about 1 MiB and its text
# about half that, on the writer thread, beside the next chunk's
# formatting; and one floats call over at most 3 * CHUNK_ROWS of a
# chunk's values (about 375 bytes of temporaries each, most of them the
# gather index) about 9 MiB more, so a write_trace call peaks at about
# 12 MiB. A round wider than a chunk widens the buffers, about 300 bytes
# a node, but not the floats call or the NUL drop.
CHUNK_ROWS = 8192
FLOAT_WORDS = 4  # a separator byte and at most 24 of text, as in "-1.2345678901234567e-100"

_U = np.uint64
TEXT_WORD = np.dtype("<u8")
_QUAD = np.dtype("<u4")
_LOW32 = _U(0xFFFFFFFF)
_MANTISSA = _U((1 << 52) - 1)
_SIGN = _U(1 << 63)
_INF = np.float64(np.inf).view(np.uint64)
_ONE = np.float64(1.0).view(np.uint64)
_P10 = 10 ** np.arange(20, dtype=np.uint64)


def _exponent_tables():
    """Ryu's multiplier and shift for each biased binary exponent 0..2046.

    A double m2 * 2^e2 (e2 with two extra bits, as Ryu counts it) gets
    digits vr = floor(4*m2 * mul / 2^shift) at decimal exponent e10. For
    e2 >= 0, mul = floor(2^(b(q)-1+125) / 5^q) + 1; for e2 < 0 it is 5^i
    scaled to 125 bits; b(x) is the bit length of 5^x. Powers of 5 are
    built up one multiplication at a time.
    """
    pow5, p = [], 1
    for _ in range(342):
        pow5.append(p)
        p *= 5
    biased = np.arange(2047)
    e2 = np.maximum(biased, 1) - 1077
    up = e2 >= 0
    ep, en = np.maximum(e2, 0), np.maximum(-e2, 0)
    q = np.where(up, ((ep * 78913) >> 18) - (ep > 3), ((en * 732923) >> 20) - (en > 1))
    i = en - q
    pow5bits = lambda x: ((x * 1217359) >> 19) + 1
    shift = np.where(up, q - e2 + 124 + pow5bits(q), q - pow5bits(i) + 125)
    inv = [(1 << (p.bit_length() + 124)) // p + 1 for p in pow5[: q.max() + 1]]
    fwd = [p >> (p.bit_length() - 125) if p.bit_length() > 125 else p << (125 - p.bit_length())
           for p in pow5[: i.max() + 1]]
    rows = np.frombuffer(b"".join(m.to_bytes(16, "little") for m in inv + fwd), dtype=_QUAD)
    rows = rows.astype(np.uint64).reshape(-1, 4)
    limbs = rows[np.where(up, q, len(inv) + i)].T.copy()
    # Where the digits below vr, vm can all be zero (Ryu's trailing-zero cases).
    small = up & (q <= 21)  # mv, mm or mp a multiple of 5^q
    low = ~up & (q <= 1)
    mid = ~up & (q > 1) & (q < 63)  # mv a multiple of 2^q
    mid_mask = np.where(mid, (np.uint64(1) << np.minimum(q, 62).astype(np.uint64)) - 1, ~_U(0))
    p5 = 5 ** np.minimum(q, 21).astype(np.uint64)
    hidden = np.where(biased == 0, 0, 1 << 52).astype(np.uint64)
    return (limbs, (shift - 96).astype(np.uint64), np.where(up, q, q + e2), hidden,
            small, low, mid_mask.astype(np.uint64), p5)


(_MUL, _SHIFT, _E10, _HIDDEN, _SMALL, _LOW, _MID_MASK, _P5) = _exponent_tables()


def _digit_table():
    """Row g is the four ASCII digits of g < 10^4, zero-padded."""
    digits = np.arange(48, 58, dtype=np.uint8)
    quad = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for place in range(4):
        quad[..., place] = digits.reshape([10 if j == place else 1 for j in range(4)])
    return quad.reshape(-1, 4).view(_QUAD).ravel().astype(np.uint32)


# A value's source row: its digits, zero-padded on the left to 20, and then
# these bytes, with the exponent's four bytes written over the NULs after "e".
_TAIL = b".0-e\0\0\0\0naif\0\0\0\0"
_WIDTH = 20 + len(_TAIL)
_FIXED = range(-3, 17)  # the decimal-point positions repr writes in fixed notation
_NAN = 2 * 17 * (len(_FIXED) + 1)  # the pattern rows of nan, inf and -inf


def _patterns() -> np.ndarray:
    """The layout of repr's text: entry j of a row is the source-row byte
    that text byte j copies, and entry 0, the separator, is a NUL.

    Row (neg * 17 + n - 1) * 21 + p lays out a value of sign neg and n
    digits d1..dn, value = 0.d1...dn * 10^decpt. p = decpt + 3 for decpt in
    -3..16, fixed notation: "0.00ddd" for decpt <= 0, "dd.ddd" up to
    decpt = n - 1 and "ddd00.0" from n on. p = 20 is scientific notation,
    "d.ddde" and the exponent ("de" after one digit). Rows _NAN, _NAN + 1
    and _NAN + 2 are "nan", "inf" and "-inf"; NULs pad every row.
    """
    at = {c: 20 + i for i, c in enumerate(_TAIL.decode())}
    point, zero = at["."], at["0"]
    rows = []
    for sign in ("", "-"):
        for n in range(1, 18):
            d = list(range(20 - n, 20))
            for decpt in [*_FIXED, None]:
                if decpt is None:
                    text = d[:1] + [point] * (n > 1) + d[1:] + [at["e"] + i for i in range(5)]
                elif decpt <= 0:
                    text = [zero, point] + [zero] * -decpt + d
                elif decpt < n:
                    text = d[:decpt] + [point] + d[decpt:]
                else:
                    text = d + [zero] * (decpt - n) + [point, zero]
                rows.append([at[c] for c in sign] + text)
    rows += [[at[c] for c in word] for word in ("nan", "inf", "-inf")]
    nul = _WIDTH - 1  # a NUL never written over
    return np.array([[nul, *row] + [nul] * (31 - len(row)) for row in rows], dtype=np.intp)


_QUADS = _digit_table()
_PATTERNS = _patterns()
# Row decpt + 323: the four bytes of repr's exponent decpt - 1 after the
# "e", NUL-padded.
_EXPONENT = np.frombuffer(
    b"".join((b"%+03d" % e).ljust(4, b"\0") for e in range(-324, 309)), dtype=_QUAD
).astype(np.uint32)
_CRLF = np.frombuffer(b"\r\n".ljust(8, b"\0"), dtype=TEXT_WORD)[0]


def _count_digits(values: np.ndarray) -> np.ndarray:
    """The number of decimal digits of each value < 10^19 (1 for 0), from
    its bit length, which a float64 conversion gives to within one."""
    _, binary = np.frexp(values.astype(np.float64))
    n = binary.astype(np.int64) * 1233 >> 12  # 1233 / 4096 ~ log10(2)
    n += values >= _P10.take(n, mode="clip")
    return np.maximum(n, 1, out=n)


def _digit_words(values: np.ndarray) -> np.ndarray:
    """The ASCII digits of each value < 10^20, zero-padded to 20, as five
    columns of four bytes each."""
    quads = np.empty((len(values), 5), dtype=_QUAD)
    rest = values.copy()
    for col, place in enumerate((10**16, 10**12, 10**8, 10**4, 1)):
        top = rest // _U(place)  # divmod is four times slower
        quads[:, col] = _QUADS.take(top.view(np.int64), mode="clip")
        rest -= top * _U(place)
    return quads


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ryu's shortest digits of positive finite doubles given as their
    bits: value = output * 10^exponent, returned as (output, exponent)."""
    e = (bits >> _U(52)).view(np.int64)  # the biased exponent
    mv = bits & _MANTISSA
    mm_shift = (mv != 0) | (e <= 1)  # the lower gap is half the upper, except at a power of 2
    mv |= _HIDDEN.take(e, mode="clip")  # m2
    accept = (mv & _U(1)) == 0  # an even mantissa's interval keeps its ends
    mv <<= _U(2)
    t = _MUL.take(e, axis=1, mode="clip")
    r = _SHIFT.take(e, mode="clip")
    r32 = _U(32) - r
    vr = _mul_shift(mv, t, r, r32)
    vp = _mul_shift(mv + _U(2), t, r, r32)
    vm = _mul_shift(mv - _U(1) - mm_shift, t, r, r32)

    # Whether the digits Ryu's scaling dropped below vr and vm are zeros.
    vr_tz = (mv & _MID_MASK.take(e, mode="clip")) == 0
    vm_tz = np.zeros(len(bits), dtype=bool)
    low = _LOW.take(e, mode="clip")
    if low.any():
        vr_tz |= low
        vm_tz |= low & accept & mm_shift
        vp -= low & ~accept
    small = _SMALL.take(e, mode="clip")
    if small.any():  # doubles from 2^54 to 2^127 only
        p5 = _P5.take(e)
        mv5 = mv % _U(5) == 0
        vr_tz |= small & mv5 & (mv % p5 == 0)
        vm_tz |= small & ~mv5 & accept & ((mv - _U(1) - mm_shift) % p5 == 0)
        vp -= small & ~mv5 & ~accept & ((mv + _U(2)) % p5 == 0)

    # Drop the digits below the highest place where vp and vm still
    # differ; then, where vm is exact, its trailing zeros too.
    removed = np.zeros(len(bits), dtype=np.int64)
    up, down = vp // _U(10), vm // _U(10)
    go = up > down
    while go.any():
        removed += go
        up //= _U(10)
        down //= _U(10)
        go = up > down
    if vm_tz.any():
        scale = _P10.take(removed, mode="clip")
        down = vm // scale
        vm_tz &= down * scale == vm
        go = vm_tz.copy()
        while go.any():
            up = down // _U(10)
            go &= up * _U(10) == down
            removed += go
            np.copyto(down, up, where=go)

    # vr rounds on the last digit dropped, half to even where the
    # digits below that one are all zeros.
    scale = _P10.take(removed - 1, mode="clip")  # 10^(removed - 1), or 1
    above = vr // scale
    if vr_tz.any():
        vr_tz &= (above * scale == vr) | (removed <= 0)
    output = above // _U(10)
    dropped = removed > 0
    last = (above - output * _U(10)) * dropped
    np.copyto(output, vr, where=~dropped)
    tie = (last == 5) & vr_tz & ((output & _U(1)) == 0)
    go = output == vm // _P10.take(removed, mode="clip")  # output is vm's digits
    go &= ~(accept & vm_tz)
    go |= (last >= 5) & ~tie
    output += go
    return output, _E10.take(e, mode="clip") + removed


def _mul_shift(m: np.ndarray, t: np.ndarray, r: np.ndarray, r32: np.ndarray) -> np.ndarray:
    """floor(m * mul / 2^(96 + r)) for m < 2^55, mul = t[0] + t[1]*2^32 +
    t[2]*2^64 + t[3]*2^96 < 2^125 and 22 <= r = 32 - r32 <= 29, in 32-bit
    limbs: only product limbs 3..5 are read, with the carries from below."""
    a = (m & _LOW32, m >> _U(32))
    s = h = _U(0)
    # Limb k sums the low halves of the a_i * t_j with i + j = k, the
    # high halves of those with i + j = k - 1 and the carry from limb k - 1.
    for k in range(5):
        s = (s >> _U(32)) + h
        h = _U(0)
        for i in (0, 1):
            if 0 <= k - i <= 3:
                p = a[i] * t[k - i]
                s += p & _LOW32
                h += p >> _U(32)
        if k == 3:
            limb3 = s & _LOW32
    limbs = (s & _LOW32) | ((s >> _U(32)) + h) << _U(32)  # limbs 5:4
    return limbs << r32 | limb3 >> r


def floats(values: np.ndarray, out: np.ndarray) -> None:
    """Write repr(v) of each float64 v in values into the rows of out, a
    (len(values), FLOAT_WORDS) array of text words, NUL-padded; byte 0 of
    each row is left NUL for a separator.

    Ryu's digits and the exponent's bytes fill a source row per value, and
    one gather through the value's _PATTERNS row lays out its text. All
    values go in one pass, so the temporaries grow with len(values), about
    375 bytes a value; the writers pass it at most 3 * CHUNK_ROWS at a time.
    """
    bits = values.view(np.uint64)
    neg = bits >= _SIGN
    magnitude = bits & ~_SIGN
    nonfinite = magnitude >= _INF
    special = (magnitude == 0) | nonfinite
    output, exponent = _shortest(np.where(special, _ONE, magnitude))
    output[special] = 0  # 0 * 10^0 is "0.0"
    exponent[special] = 0

    n = _count_digits(output)
    decpt = exponent + n  # value = 0.d1d2...dn * 10^decpt
    source = np.empty((len(bits), _WIDTH // 4), dtype=_QUAD)
    source[:, :5] = _digit_words(output)
    source[:, 5:] = np.frombuffer(_TAIL, dtype=_QUAD)
    source[:, 6] = _EXPONENT.take(decpt + 323, mode="clip")  # bytes 24..27, after the "e"
    # Row (neg * 17 + n - 1) * 21 + p: p = decpt + 3 in fixed notation;
    # as unsigned, any other decpt + 3 is at least 20, scientific.
    key = np.minimum((decpt + 3).view(np.uint64), len(_FIXED)).view(np.int64)
    key += (neg * 17 + n - 1) * (len(_FIXED) + 1)
    if nonfinite.any():  # rows _NAN, _NAN + 1 and _NAN + 2: nan, inf, -inf
        np.copyto(key, neg + (_NAN + 1), where=magnitude == _INF)
        np.copyto(key, _NAN, where=magnitude > _INF)

    index = _PATTERNS.take(key, axis=0, mode="clip")
    index += np.arange(0, _WIDTH * len(bits), _WIDTH)[:, None]  # each value's source row
    text = source.view(np.uint8).reshape(-1).take(index, mode="clip")
    out[:] = text.view(TEXT_WORD)


class Sheet:
    """A chunk of CSV rows as one matrix of fixed-width text fields.

    Field j spans widths[j] words per row and is NUL-padded; write() puts
    a comma in byte 0 of every field but the first and ends each row with
    \\r\\n. The text of the first m rows is the matrix's bytes with the
    NULs dropped. The matrix holds at most `rows` rows and starts all NUL.

    write_behind() does write()'s work on the sheet's own thread, started
    at its first call, while the caller formats the next chunk; wait()
    blocks until that write is done, so the matrix may be refilled, and
    re-raises its error. Leaving a ``with sheet:`` block waits too and
    stops the thread.
    """

    def __init__(self, widths: list[int], rows: int):
        starts = np.cumsum([0] + widths)
        self.fields = [slice(a, b) for a, b in zip(starts[:-1], starts[1:])]
        self._commas = 8 * starts[1:-1]
        self.matrix = np.zeros((rows, starts[-1] + 1), dtype=TEXT_WORD)
        self._bytes = self.matrix.view(np.uint8)
        self._mask = np.empty(min(rows, CHUNK_ROWS) * self._bytes.shape[1], dtype=bool)
        self._thread: threading.Thread | None = None
        self._job: tuple | None = None  # the file and rows handed to the thread
        self._ready, self._done = threading.Semaphore(0), threading.Semaphore(0)
        self._error: Exception | None = None

    def field(self, j: int) -> np.ndarray:
        """The words of field j, one row per CSV row."""
        return self.matrix[:, self.fields[j]]

    def write(self, f, m: int) -> None:
        """Write the CSV text of the first m rows to the binary file f.

        The NULs are dropped CHUNK_ROWS rows at a time, through a mask
        allocated with the sheet, so a round wider than a chunk does not
        widen the drop. The mask, the drop and f.write release the GIL,
        which lets write_behind() run this beside the caller's formatting.
        """
        self.matrix[:m, -1] = _CRLF
        self._bytes[:m, self._commas] = 44
        for r0 in range(0, m, CHUNK_ROWS):
            piece = self._bytes[r0 : min(r0 + CHUNK_ROWS, m)].reshape(-1)
            f.write(piece[np.not_equal(piece, 0, out=self._mask[: piece.size])])

    def write_behind(self, f, m: int) -> None:
        """write(f, m) on the sheet's thread. Returns once the previous
        write is done, re-raising its error, and this one is handed over;
        the first m rows must not change until wait()."""
        self.wait()
        if self._thread is None:  # a daemon, so that an interrupted join cannot hang the exit
            self._thread = threading.Thread(target=self._serve, daemon=True)
            self._thread.start()
        self._job = (f, m)
        self._ready.release()

    def _serve(self) -> None:
        while self._ready.acquire() and self._job is not None:  # no job: stop
            try:
                self.write(*self._job)
            except Exception as error:  # re-raised in the caller's thread by wait()
                self._error = error
            finally:
                self._done.release()

    def wait(self) -> None:
        """Block until the last write_behind() is done; re-raise its error."""
        if self._job is not None:
            self._done.acquire()
            self._job = None
        error, self._error = self._error, None
        if error is not None:
            raise error

    def __enter__(self) -> Sheet:
        return self

    def __exit__(self, kind, *_) -> None:
        """Wait for the last write and stop the thread; re-raise a failed
        write unless the block itself raised."""
        try:
            self.wait()
        except Exception:
            if kind is None:
                raise
        finally:
            if self._thread is not None:
                self._job = None  # also after an interrupted wait: the thread returns
                self._ready.release()
                self._thread.join()
                self._thread = None


def int_text(values: Sequence[int]) -> np.ndarray:
    """b"%d" of each integer 0 <= v in values, one row of text words each:
    NUL-padded, with byte 0 of every row left NUL for a separator and as
    many words as the largest value needs."""
    ints = np.asarray(values, dtype=np.int64)
    words = len(b"%d" % ints.max(initial=0)) // 8 + 1
    width = 8 * words - 1
    table = np.zeros((len(ints), words), dtype=TEXT_WORD)
    text = ints.astype(f"S{width}")  # numpy's integer cast writes b"%d"
    table.view(np.uint8)[:, 1:] = text.view(np.uint8).reshape(len(ints), width)
    return table


def _items(fields: np.ndarray) -> np.ndarray:
    """A (rows, words) array of text fields as one item per row: numpy
    copies and gathers such items whole, where it steps through a row's
    words one at a time."""
    return fields.view(np.dtype((np.void, fields.shape[1] * TEXT_WORD.itemsize)))[:, 0]


def write_trace(
    path: str | Path,
    segments: Sequence[tuple[int, tuple[int, ...]]],
    xs: Sequence[np.ndarray],
    thetas: Sequence[np.ndarray],
) -> None:
    """Write one row k,node_id,x,x_plus,theta per (round k, node), in
    csv.writer's format: \\r\\n line ends, floats as repr writes them and no
    quoting, which no field needs. The topology segments are given, not
    found from the rounds: one (first_k, ids) each, the first at round 0,
    and a round's rows are its segment's ids. xs and thetas are blocks of
    rounds, (rounds x nodes) arrays in round order, x_plus = x + theta;
    the rounds past the last theta had no broadcast, so their x_plus and
    theta are empty.

    Rows are formatted a chunk of whole rounds at a time: CHUNK_ROWS rows
    at most, or one round wider than that. A chunk's columns are array
    operations over its rows, with no step per round. Its pieces of
    topology segments take k and the node ids from b"%d" text tables by
    broadcasting, one table for each segment's ids, and x and theta are
    one concatenation each of the slices of the blocks that hold them.
    Once the noise falls below an ulp of the state, rounds repeat their
    values, so a round of x is formatted only when it is fresh: when its
    size or its bytes differ from the previous round's, found by one
    comparison of every row with the same node's row a round earlier,
    across chunk boundaries too. Every row's x text is then gathered from
    the latest fresh round's, or, before a chunk's first fresh round,
    from the previous chunk's last round, whose text is kept. x_plus(k)
    is formatted only in the rows where its bytes differ from x(k)'s.
    Bytes, never values: -0.0 == 0.0, but their reprs differ.
    """
    x_first = np.cumsum([0, *map(len, xs)])  # each block's first round
    theta_first = np.cumsum([0, *map(len, thetas)])
    rounds, broadcasts = int(x_first[-1]), int(theta_first[-1])
    opens = np.zeros(rounds, dtype=bool)  # a segment's first round
    opens[[k for k, _ in segments]] = True
    segment = np.cumsum(opens) - 1  # each round's segment
    sizes = np.array([len(ids) for _, ids in segments], dtype=np.intp)[segment]
    starts = np.concatenate([[0], np.cumsum(sizes)])  # each round's first row
    widest = int(sizes.max(initial=0))
    rows = min(int(starts[-1]), max(CHUNK_ROWS, widest))
    k_table = int_text(range(rounds))
    id_table = int_text([i for _, ids in segments for i in ids])
    # each round's segment's first row in id_table
    id_first = np.cumsum([0] + [len(ids) for _, ids in segments[:-1]])[segment]
    before = np.concatenate([[0], sizes[:-1]])  # the previous round's size
    widths = [k_table.shape[1], id_table.shape[1], FLOAT_WORDS, FLOAT_WORDS, FLOAT_WORDS]
    sheet = Sheet(widths, rows)
    k_text, id_text, x_text, plus_text, theta_text = (_items(sheet.field(j)) for j in range(5))
    k_table, id_table = _items(k_table), _items(id_table)
    # x holds the previous chunk's last round in its first `widest` rows,
    # then the chunk; text holds that round's text, then the formatted
    # values: theta, the fresh x and the x_plus that differ from x.
    x = np.zeros(widest + rows)
    plus, values = np.empty(rows), np.empty(3 * rows)
    words = np.empty((widest + 3 * rows, FLOAT_WORDS), dtype=TEXT_WORD)
    changed = np.empty(rows, dtype=bool)
    text = _items(words)
    bits = x.view(np.uint64)
    with open(path, "wb") as f, sheet:
        f.write(b"k,node_id,x,x_plus,theta\r\n")
        k0 = 0
        while k0 < rounds:
            k1 = int(np.searchsorted(starts, starts[k0] + rows, side="right")) - 1
            k1 = min(max(k1, k0 + 1), rounds)
            kt = min(max(k0, broadcasts), k1)
            size, first = sizes[k0:k1], starts[k0:k1] - starts[k0]  # each round's rows
            m, mt = int(starts[k1] - starts[k0]), int(starts[kt] - starts[k0])
            chunk = x[widest : widest + m]
            np.concatenate(_slices(xs, x_first, k0, k1), out=chunk)
            if mt:  # the rows with a broadcast
                np.concatenate(_slices(thetas, theta_first, k0, kt), out=values[:mt])
            cuts = [k0, *(np.flatnonzero(opens[k0 + 1 : k1]) + k0 + 1).tolist(), k1]
            pieces = []  # the chunk's pieces of topology segments
            for a, b in zip(cuts, cuts[1:]):
                n, r0, r1 = int(sizes[a]), int(first[a - k0]), int(starts[b] - starts[k0])
                pieces.append((a, b, n, r0, r1))
                # each row against the same node's a round earlier; before
                # the chunk sit the previous chunk's last round's rows
                r = widest + r0
                np.not_equal(bits[r : r + r1 - r0], bits[r - n : r + r1 - r0 - n], out=changed[r0:r1])
            fresh = np.logical_or.reduceat(changed[:m], first) | (size != before[k0:k1])
            fresh_rows = np.repeat(fresh, size)
            end = mt + np.count_nonzero(fresh_rows)
            np.compress(fresh_rows, chunk, out=values[mt:end])
            np.add(chunk[:mt], values[:mt], out=plus[:mt])
            differ = np.flatnonzero(plus[:mt].view(np.uint64) != chunk[:mt].view(np.uint64))
            np.take(plus, differ, out=values[end : end + len(differ)], mode="clip")
            count = end + len(differ)
            for p in range(0, count, 3 * CHUNK_ROWS):  # one piece unless a round is wider than a chunk
                q = min(p + 3 * CHUNK_ROWS, count)
                floats(values[p:q], words[widest + p : widest + q])

            sheet.wait()  # the previous chunk is written: the sheet is free
            for a, b, n, r0, r1 in pieces:
                k_text[r0:r1].reshape(b - a, n)[:] = k_table[a:b, None]
                id_text[r0:r1].reshape(b - a, n)[:] = id_table[id_first[a] : id_first[a] + n]
            # A round's x text starts at its latest fresh round's, in text
            # after theta's, or at the kept round's, at 0.
            at = np.cumsum(size * fresh) - size * fresh + widest + mt
            latest = np.maximum.accumulate(np.where(fresh, np.arange(k1 - k0), -1))
            source = np.where(latest >= 0, at[latest], 0) - first
            np.take(text, np.repeat(source, size) + np.arange(m), out=x_text[:m])
            theta_text[:mt] = text[widest : widest + mt]
            plus_text[:mt] = x_text[:mt]
            plus_text[differ] = text[widest + end : widest + end + len(differ)]
            sheet.field(3)[mt:m] = 0
            sheet.field(4)[mt:m] = 0
            last = int(size[-1])  # kept for the next chunk's x text
            text[:last] = x_text[m - last : m]
            x[widest - last : widest] = chunk[m - last :]
            # the last chunk has nothing to be formatted beside its write
            (sheet.write if k1 == rounds else sheet.write_behind)(f, m)
            k0 = k1


def _slices(blocks: Sequence[np.ndarray], first: np.ndarray, k0: int, k1: int) -> list:
    """Rounds k0 .. k1 - 1 of blocks whose first rounds are first, as the
    flat rows of the blocks' slices that hold them."""
    b0, b1 = np.searchsorted(first, k0, side="right") - 1, np.searchsorted(first, k1)
    return [blocks[b][max(k0 - first[b], 0) : k1 - first[b]].reshape(-1) for b in range(b0, b1)]


def write_summary(path: str | Path, spreads: Sequence[float], errs: Sequence[float]) -> None:
    """Write one row k,V,err per round, in the same format as write_trace,
    a chunk of CHUNK_ROWS rows at a time, V and err in one floats call."""
    rows = min(len(spreads), CHUNK_ROWS)
    k_table = int_text(range(len(spreads)))
    sheet = Sheet([k_table.shape[1], FLOAT_WORDS, FLOAT_WORDS], rows)
    k_text, v_text, e_text = map(sheet.field, range(3))
    values = np.empty(2 * rows)
    text = np.empty((2 * rows, FLOAT_WORDS), dtype=TEXT_WORD)
    with open(path, "wb") as f, sheet:
        f.write(b"k,V,err\r\n")
        for r0 in range(0, len(spreads), CHUNK_ROWS):
            m = min(rows, len(spreads) - r0)
            values[:m] = spreads[r0 : r0 + m]
            values[m : 2 * m] = errs[r0 : r0 + m]
            floats(values[: 2 * m], text[: 2 * m])
            sheet.wait()  # the previous chunk is written: the sheet is free
            k_text[:m] = k_table[r0 : r0 + m]
            v_text[:m] = text[:m]
            e_text[:m] = text[m : 2 * m]
            (sheet.write if r0 + m == len(spreads) else sheet.write_behind)(f, m)
