"""CSV text of float64 blocks, every cell exactly `repr(float)`, in bulk.

`csv_rows(block)` formats a (rows, cols) block as comma-separated rows, each
ending in CRLF, with numpy array operations in place of one `repr` per cell.
Each cell's digits are those of Python's `repr`: the shortest decimal that
reads back as the same double and, among those, the nearest (Gay 1990;
Adams, "Ryu", PLDI 2018).  They follow from the 17-digit scaling of |x|:

* y = |x| 10^(16 - E), E = floor(log10 |x|), is formed once in long double
  from a table of correctly rounded powers of ten, so y is within 2^-63
  relative, 0.011 absolute, of its exact value; I = floor(y), f = y - I.
* A decimal reads back as x iff it lies within half an ulp h of x (h and all
  distances in units of y's last digit).  At most one 15-digit decimal lies
  that close, so the shortest digits are the 15-digit rounding of y with its
  trailing zeros stripped when that is within h; else the 16-digit rounding
  when that is, the nearest of the 16-digit candidates; else the 17-digit
  rounding, which always is (h >= 0.55).
* A cell is formatted by `repr` itself when any of these roundings or
  distance tests falls within `_MARGIN` of its threshold, where the error
  of y could flip it, and when x is not finite, subnormal, an exact power of
  two (its rounding interval is lopsided), at least 1e308, or when y lies
  at the edge of [10^16, 10^17) (E is then uncertain or a rounding carries).
  Zeros keep their sign.  Where long double is no wider than double, or
  words are big-endian, every cell goes to `repr`.

The layout is repr's: scientific notation iff E < -4 or E >= 16, with at
least two exponent digits, and ".0" after an integral value.  Digits are
looked up four at a time in a 10 000-entry table.  The tables are built at
the first call.
"""

from __future__ import annotations

import sys
from functools import cache

import numpy as np

_MARGIN = 0.03  # last-digit units; y's own error is at most 0.011
# long double is 80-bit extended or wider, and words are little-endian
_FAST = np.finfo(np.longdouble).nmant >= 63 and sys.byteorder == "little"
_K0 = -300  # the power-of-ten table holds 10^k for k in [_K0, 330]
_EMAX = 330  # the layout table holds the exponents E in [-_EMAX, _EMAX]
_MANTISSA = np.uint64((1 << 52) - 1)
# A cell is five uint64 words, bytes 0 where empty: sign and "0.000"; 24
# bytes for the digits and the point; "e+ddd" and the separator.
_WORDS = 5


def _word(text: str) -> np.uint64:
    """Up to 8 ASCII characters as one zero-padded uint64 word."""
    return np.frombuffer(text.encode().ljust(8, b"\0"), np.uint64)[0]


@cache
def _tables():
    """(10^k for k in [_K0, 330] in long double, correctly rounded by the
    string parser; the four-digit groups "0000".."9999" as uint32 and their
    trailing zeros, 4 for "0000"; per E + _EMAX, a cell's first word, with
    "0.000", and last word, with "e+ddd"; per layout code, the masks of the
    digit field's digits before the point and after it, and its "." byte,
    three rows of words each)."""
    powers = np.array([f"1e{k}" for k in range(_K0, 331)]).astype(np.longdouble)
    q = np.arange(10_000)
    quads = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1)
    quads = (quads + 48).astype(np.uint8).view(np.uint32).ravel()
    zeros = sum((q % 10 ** k == 0).astype(np.int64) for k in (1, 2, 3, 4))

    first, last = np.zeros((2, 2 * _EMAX + 1), np.uint64)
    for e in range(-_EMAX, _EMAX + 1):
        if e < -4 or e >= 16:
            last[e + _EMAX] = _word(f"e{e:+03d}")
        elif e < 0:
            first[e + _EMAX] = _word("\0" + "0." + "0" * (-e - 1))

    # layout code (min(max(E, -5), 16) + 5) * 18 + number of digits
    e = np.arange(-5, 17)[:, None, None]
    nd = np.arange(18)[None, :, None]
    j = np.arange(24)
    sci = (e < -4) | (e >= 16)
    point = ~sci & (e >= 0)  # fixed notation with a digit before the point
    dot = np.where(point, e + 1, np.where(sci, 1, 99))
    keep = j < np.where(point, np.maximum(nd, e + 2) + 1,
                        np.where(sci & (nd > 1), nd + 1, nd))
    masks = np.concatenate([(m & keep).astype(np.uint8) * byte for m, byte in (
        (j < dot, 255), (j > dot, 255), (j == dot, 46))], axis=-1)
    return (powers, quads, zeros, first, last,
            masks.reshape(-1, 72).view(np.uint64).T.copy())


def _digits(x, powers):
    """(D, E, unsure) per cell of `x`, positive, normal, below 1e308 and not
    a power of two: D is the shortest digits padded with zeros to 17, as an
    integer in [10^16, 10^17), E the decimal exponent, `unsure` where the
    certificate fails."""
    e = np.floor(np.log10(x)).astype(np.int64)
    xl = x.astype(np.longdouble)
    y = xl * powers[16 - e - _K0]
    i = y.astype(np.int64)  # floor: y > 0
    off = np.flatnonzero((i < 10 ** 16) | (i >= 10 ** 17))  # log10 rounded across 10^E
    if off.size:
        e[off] += np.where(i[off] < 10 ** 16, -1, 1)
        y[off] = xl[off] * powers[16 - e[off] - _K0]
        i[off] = y[off].astype(np.int64)
    f = (y - i).astype(float)
    # half an ulp of x in units of y's last digit: ulp(x) / x = 2^-52 / the
    # significand of x (x is not a power of two)
    significand = (x.view(np.uint64) & _MANTISSA | np.uint64(1023 << 52)).view(float)
    h = y.astype(float) * (2.0 ** -53) / significand
    r100 = i % 100
    r10 = r100 % 10
    t15, t16 = r100 + f, r10 + f  # y above the 15- and 16-digit truncations
    d15, d16 = np.minimum(t15, 100 - t15), np.minimum(t16, 10 - t16)
    use15, use16 = d15 < h, d16 < h

    def near(v):
        return np.abs(v) < _MARGIN

    unsure = near(d15 - h) | use15 & near(t15 - 50) | ~use15 & (
        near(d16 - h) | use16 & near(t16 - 5) | ~use16 & near(f - 0.5))
    unsure |= (i - 10 ** 16 + f < _MARGIN) | (i >= 10 ** 17 - 51)
    d = np.where(use15, i - r100 + 100 * (t15 > 50),
                 np.where(use16, i - r10 + 10 * (t16 > 5), i + (f > 0.5)))
    return d, e, unsure


def _field(d, e, quads, zeros, masks):
    """The three words of each cell's digit field: the digits of D up to its
    last non-zero one, at least as many as the layout of E needs, with the
    point placed as repr places it."""
    lead = d // 10 ** 16
    rest = d - lead * 10 ** 16
    hi = rest // 10 ** 8
    lo = rest - hi * 10 ** 8
    groups = np.stack([hi // 10 ** 4, hi % 10 ** 4, lo // 10 ** 4, lo % 10 ** 4],
                      axis=1)
    tz = zeros.take(groups)
    trailing = tz[:, 0]
    for k in (1, 2, 3):
        trailing = tz[:, k] + (tz[:, k] == 4) * trailing
    code = (np.clip(e, -5, 16) + 5) * 18 + 17 - trailing
    qa, qb, qc, qd = quads.take(groups).astype(np.uint64).T
    # the 17 digit bytes from byte 0 of three words, and from byte 1
    at0 = [(lead + 48).astype(np.uint64) | qa << 8 | qb << 40,
           qb >> 24 | qc << 8 | qd << 40, qd >> 24]
    at1 = [at0[0] << 8, at0[1] << 8 | at0[0] >> 56, at0[2] << 8 | at0[1] >> 56]
    return [at0[w] & masks[w].take(code) | at1[w] & masks[3 + w].take(code)
            | masks[6 + w].take(code) for w in range(3)]


def csv_rows(block) -> bytes:
    """The rows of the float64 (rows, cols) `block` as CSV text: cells
    `repr(float)`, joined by ",", each row ending in CRLF; ASCII bytes."""
    block = np.asarray(block, dtype=np.float64)
    rows, cols = block.shape
    x = np.ascontiguousarray(block).ravel()
    powers, quads, zeros, first, last, masks = _tables()
    ax = np.abs(x)
    zero = (ax == 0) & _FAST
    ok = ((ax >= np.finfo(float).smallest_normal) & (ax < 1e308) & _FAST
          & (x.view(np.uint64) & _MANTISSA != 0))
    d, e, unsure = _digits(np.where(ok, ax, 1.5), powers)
    d[zero], e[zero] = 0, 0
    fallback = np.flatnonzero(~(ok & ~unsure | zero))

    out = np.empty((x.size, _WORDS), np.uint64)
    out[:, 0] = first.take(e + _EMAX) | np.signbit(x).astype(np.uint64) * 45
    out[:, 4] = last.take(e + _EMAX)
    for w, word in enumerate(_field(d, e, quads, zeros, masks)):
        out[:, 1 + w] = word
    if fallback.size:
        out[fallback] = 0
        out[fallback, :3] = np.array([repr(v) for v in x[fallback].tolist()],
                                     dtype="S24").view(np.uint64).reshape(-1, 3)

    cells = out.reshape(rows, cols, _WORDS)
    cells[:, :-1, 4] |= _word("\0" * 5 + ",")
    cells[:, -1, 4] |= _word("\0" * 5 + "\r\n")
    return out.tobytes().translate(None, b"\0")
