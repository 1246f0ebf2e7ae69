"""privagg.csvfmt writes repr's bytes for every float64 and b"%d"'s for ints.

repr is the reference throughout: the formatter's text is read back through
a Sheet, the way the CSV writers emit it, and compared byte for byte.
"""

from __future__ import annotations

import io
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privagg.csvfmt import (
    _PATTERNS, CHUNK_ROWS, FLOAT_WORDS, Sheet, floats, int_text, write_summary, write_trace,
)


def _float_lines(values) -> list[bytes]:
    values = np.asarray(values, dtype=np.float64)
    sheet = Sheet([FLOAT_WORDS], len(values))
    floats(values, sheet.field(0))
    out = io.BytesIO()
    sheet.write(out, len(values))
    return out.getvalue().split(b"\r\n")[:-1]


def _assert_repr(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    got = _float_lines(values)
    want = [repr(v).encode() for v in values.tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, bad[:5]


def _neighbours(values: np.ndarray) -> np.ndarray:
    """Each value with the next double below and above it."""
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


@settings(max_examples=100)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_floats_from_raw_bit_patterns_match_repr(patterns):
    _assert_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


@settings(max_examples=100)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=50))
def test_floats_match_repr(values):
    _assert_repr(values)


def test_non_finite_values_are_written_as_repr_writes_them():
    nan_bits = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001],
                        dtype=np.uint64)
    values = np.concatenate([[np.inf, -np.inf, 1.0], nan_bits.view(np.float64)])
    assert _float_lines(values) == [b"inf", b"-inf", b"1.0", b"nan", b"nan", b"nan"]


def _pattern_row(text: str) -> int:
    """The layout repr's text follows, numbered as csvfmt._PATTERNS numbers
    its rows: (neg * 17 + n - 1) * 21 + p for n digits at decimal-point
    position decpt (value = 0.d1...dn * 10^decpt), p = decpt + 3 in fixed
    notation (decpt in -3..16) and 20 in scientific; then nan, inf, -inf."""
    neg, body = text.startswith("-"), text.lstrip("-")
    if body in ("nan", "inf"):
        return 714 + (body == "inf") + neg
    mantissa, sci, _ = body.partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = (whole + fraction).lstrip("0").rstrip("0") or "0"
    if sci:
        p = 20
    elif whole != "0":
        p = len(whole) + 3
    else:
        p = 3 - (len(fraction) - len(fraction.lstrip("0"))) if digits != "0" else 4
    return (neg * 17 + len(digits) - 1) * 21 + p


def _with_digits(n: int, decpt: int) -> float:
    """A double whose shortest digits are n long, at point position decpt:
    up to 15 digits any decimal string round-trips; at 16 and 17 the next
    doubles up are tried until one has them."""
    value = float(f"0.{'12345678912345678'[:n]}e{decpt}")
    while len(repr(value).partition("e")[0].replace(".", "").strip("0")) != n:
        value = float(np.nextafter(value, np.inf))
    return value


def test_every_layout_pattern_matches_repr():
    """One value for every row of the pattern table: both signs, 1 to 17
    digits at each fixed point position -3..16 and in scientific notation,
    nan, inf and -inf."""
    values = [_with_digits(n, decpt) for n in range(1, 18) for decpt in [*range(-3, 17), -30]]
    values = np.array(values + [np.nan, np.inf])
    values = np.concatenate([values, -values])
    rows = [_pattern_row(repr(v)) for v in values.tolist()]
    assert set(rows) == set(range(len(_PATTERNS)))
    _assert_repr(values)


def test_exponent_boundaries_match_repr():
    """Exponents of two and three digits, and the extremes e-324 and e+308."""
    edges = np.array([1e99, 1e-99, 1e100, 1e-100, 9.5e99, 5e-324, 1e-323, sys.float_info.max])
    with np.errstate(over="ignore"):  # the double above the largest is inf
        values = _neighbours(edges)
    texts = [repr(v) for v in values.tolist()]
    for suffix in ("e+99", "e-99", "e+100", "e-100", "e-324", "e+308"):
        assert any(t.endswith(suffix) for t in texts), suffix
    _assert_repr(np.concatenate([values, -values]))


def test_every_nan_is_written_nan():
    """nan of either sign, quiet or signalling, with any payload."""
    bits = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFF0000000000001, 0x7FF4000000000000, 0xFFFFFFFFFFFFFFFF,
                     0x7FFFFFFFFFFFFFFF, 0xFFF0000000000F00], dtype=np.uint64)
    values = bits.view(np.float64)
    assert np.isnan(values).all()
    assert _float_lines(values) == [b"nan"] * len(values)


def test_seeded_sweep_of_random_bit_patterns_matches_repr():
    rng = np.random.default_rng(20180618)
    _assert_repr(rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False).view(np.float64))


def test_edge_values_match_repr():
    largest_subnormal = np.nextafter(2.2250738585072014e-308, 0.0)
    edges = np.array([
        0.0, 5e-324, largest_subnormal, 2.2250738585072014e-308, sys.float_info.max,
        0.0001, 1e-05, 1e15, 9999999999999998.0, 1e16, 0.1, 0.3, 1 / 3, 2 / 3, 100.0, 1e23,
    ])
    _assert_repr(np.concatenate([edges, -edges]))
    _assert_repr(edges[:0])  # no values, as in a chunk with nothing fresh to format
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    with np.errstate(over="ignore"):
        powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
    for powers in (powers_of_two, powers_of_ten):
        assert np.isfinite(powers).all() and (powers > 0).all()
        _assert_repr(_neighbours(powers))
        _assert_repr(-_neighbours(powers))


def test_floats_fill_strided_rows():
    """10 000 values in one call, written into rows of a wider matrix."""
    rng = np.random.default_rng(5)
    values = rng.normal(size=10_000) * 10.0 ** rng.integers(-30, 30, 10_000)
    ks = int_text(range(len(values)))
    sheet = Sheet([ks.shape[1], FLOAT_WORDS, FLOAT_WORDS], len(values))
    sheet.field(0)[:] = ks
    floats(values, sheet.field(1))
    floats(values[::-1].copy(), sheet.field(2))
    out = io.BytesIO()
    sheet.write(out, len(values))
    want = b"".join(
        b"%d,%s,%s\r\n" % (k, repr(a).encode(), repr(b).encode())
        for k, (a, b) in enumerate(zip(values.tolist(), values[::-1].tolist()))
    )
    assert out.getvalue() == want


_INTS = sorted({0, 9, 10} | {10**k - 1 for k in range(1, 16)} | {10**k for k in range(16)})


@pytest.mark.parametrize("largest, words", [(10**7 - 1, 1), (10**15 - 1, 2), (10**15, 3)])
def test_int_text_matches_percent_d(largest, words):
    """Fields of 1, 2 and 3 words, read back in the first column of a Sheet
    and after a separator."""
    values = [v for v in _INTS if v <= largest]
    table = int_text(values)
    assert table.shape == (len(values), words)
    sheet = Sheet([words, words], len(values))
    sheet.field(0)[:] = table
    sheet.field(1)[:] = table[::-1]
    out = io.BytesIO()
    sheet.write(out, len(values))
    assert out.getvalue() == b"".join(b"%d,%d\r\n" % pair for pair in zip(values, values[::-1]))


def _peak_mib(write) -> float:
    """tracemalloc's peak over one call of write, in MiB."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_writers_memory_is_bounded_in_the_number_of_rounds(tmp_path):
    """A writer's peak is set by CHUNK_ROWS, not by the file's length: at 2
    and 4 chunks of rows, every value fresh, it is the same to within 1 MiB
    and under 16 MiB."""
    rng = np.random.default_rng(9)
    ids = tuple(range(8))
    peaks = []
    for rows in (2 * CHUNK_ROWS, 4 * CHUNK_ROWS):
        rounds = rows // len(ids)
        xs = list(rng.normal(size=(rounds, len(ids))))
        thetas = list(rng.normal(size=(rounds - 1, len(ids))))
        spreads, errs = rng.exponential(size=(2, rows)).tolist()
        peaks.append((
            _peak_mib(lambda: write_trace(tmp_path / "t.csv", xs, thetas, [ids] * rounds)),
            _peak_mib(lambda: write_summary(tmp_path / "s.csv", spreads, errs)),
        ))
    for short, long in zip(*peaks):
        assert abs(long - short) < 1.0 and max(short, long) < 16.0, peaks


def test_write_trace_memory_in_the_number_of_nodes(tmp_path):
    """A round wider than a chunk takes buffers in proportion to its nodes,
    but its values are formatted at most 3 * CHUNK_ROWS at a time: at 3
    rounds of 50 000 nodes, every value fresh, the peak is under 32 MiB."""
    rng = np.random.default_rng(10)
    ids = tuple(range(50_000))
    xs = list(rng.normal(size=(3, len(ids))))
    thetas = list(rng.normal(size=(2, len(ids))))
    peak = _peak_mib(lambda: write_trace(tmp_path / "t.csv", xs, thetas, [ids] * 3))
    assert peak < 32.0, peak
