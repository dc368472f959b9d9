"""CSV text in blocks of rows, every float exactly its ``"%.17g" % x`` text.

CPython's ``%.17g`` takes dtoa's big-integer path for each float.  Here
numpy computes every float's correctly rounded 17 significant digits D
and its decimal exponent k at once, from x·10^(16−k) taken as a
double-double product (no ``longdouble``, whose precision depends on the
platform).  D, with its trailing zeros stripped, becomes one or two
ints, and one ``%`` call writes a block from a format string joined
from per-value integer patterns (``%d.%016d``, ``-0.000%d``,
``%d.%04de-05``, ``%d00``, …), so CPython formats only ints.  A value
off this path (nan, ±inf, |x| below 1e-203, which holds the
subnormals, or from 1e216 up, or a product within 1e-6 of a rounding
tie) gets ``"%.17g" % x`` itself as a literal.  Nothing is built at
import.
"""

from __future__ import annotations

import functools

import numpy as np

_P_MIN, _P_MAX = -200, 220              # exponents p of the 10^p table
_K_MIN, _K_MAX = 16 - _P_MAX, 16 - _P_MIN
_TIE_MARGIN = 1e-6                      # the product's error is below 1e-14
_SPLITTER = 134217729.0                 # 2^27 + 1, Dekker's split
# pattern keys (k, digit count, sign); a rounding carry takes k to _K_MAX + 1
_KEYS = (_K_MAX - _K_MIN + 2) * 18 * 2


def _split(a):
    """a = hi + lo with hi and lo of at most 26 significant bits each."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _powers():
    """10^p ≈ hi + lo for p in [_P_MIN, _P_MAX], with hi also split, and
    the int64 powers 10^0 … 10^16.

    Python's int true division is correctly rounded, so hi is 10^p
    rounded and lo is the exact rest 10^p − hi rounded.
    """
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    return hi, *_split(hi), np.array(lo), 10 ** np.arange(17, dtype=np.int64)


def _scaled(ax, k):
    """ax·10^(16−k) as ph + r: ph the rounded product, r the rest to ~1e-14."""
    hi, hi_hi, hi_lo, lo, _ = _powers()
    i = 16 - _P_MIN - k
    ph = ax * hi[i]
    a_hi, a_lo = _split(ax)
    b_hi, b_lo = hi_hi[i], hi_lo[i]
    pl = ((a_hi * b_hi - ph) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return ph, pl + ax * lo[i]


def _digits(x):
    """(d, k, fast): where ``fast``, |x| rounded to 17 significant digits is
    d·10^(k−16), with 10^16 ≤ d < 10^17 and k an int."""
    ax = np.abs(x)
    with np.errstate(divide="ignore"):
        k = np.floor(np.log10(ax))
    fast = (k > _K_MIN) & (k < _K_MAX)
    k = np.where(fast, k, 0).astype(np.int64)
    ax = np.where(fast, ax, 1.0)        # a placeholder gives d = 10^16, k = 0
    ph, r = _scaled(ax, k)
    # floor(log10|x|) is one off beside a power of ten: just below one
    # (the float of 1e51 is 9.9999999999999999e+50) or just above it
    low = (ph < 1e16) | ((ph == 1e16) & (r < 0))
    high = (ph > 1e17) | ((ph == 1e17) & (r >= 0))
    redo = low | high
    if redo.any():
        k += high
        k -= low
        ph[redo], r[redo] = _scaled(ax[redo], k[redo])
    up = np.floor(r + 0.5)
    frac = r + 0.5 - up
    fast &= (frac > _TIE_MARGIN) & (frac < 1.0 - _TIE_MARGIN) & (ph >= 1e16) & (ph <= 1e17)
    d = ph.astype(np.int64) + up.astype(np.int64)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    k[carry] += 1
    return d, k, fast


def _pattern(key: int) -> tuple[str, int]:
    """The ``%`` pattern of key (k, digit count nd, sign), and how many of
    the nd digits its second int carries after the point.

    The first int is the digits before the point, or all nd digits after
    ``0.`` and −k − 1 zeros.
    """
    neg, nd, k = key % 2, key // 2 % 18, key // 36 + _K_MIN
    sign = "-" if neg else ""
    if not -4 <= k < 17:
        if nd <= 1:
            return f"{sign}%de{k:+03d}", 0
        return f"{sign}%d.%0{nd - 1}de{k:+03d}", nd - 1
    if k < 0:
        return f"{sign}0.{'0' * (-k - 1)}%d", 0
    if nd <= k + 1:
        return f"{sign}%d{'0' * (k + 1 - nd)}", 0
    return f"{sign}%d.%0{nd - k - 1}d", nd - k - 1


class BlockText:
    """Text of blocks of CSV rows; holds the patterns of the keys used so far.

    Patterns are made on first use, for only the keys a block uses; a
    point count of −1 marks a key not seen yet.
    """

    def __init__(self):
        self._patterns = np.empty(_KEYS, dtype=object)
        self._points = np.full(_KEYS, -1, dtype=np.int8)

    def __call__(self, rows) -> str:
        """CSV lines of ``rows``: one or more tuples with the same kinds of
        field row after row, at least one of them numeric.  A field is a
        str, written as it is; a number; or a 1-D float array, one field
        per entry."""
        numbers, at, text = [], [], {}
        width = 0
        for column in zip(*rows):
            if isinstance(column[0], str):
                text[width] = [s.replace("%", "%%") for s in column]
                width += 1
            else:
                part = np.array(column, dtype=float).reshape(len(rows), -1)
                at += range(width, width + part.shape[1])
                width += part.shape[1]
                numbers.append(part)
        cells = np.empty((len(rows), width), dtype=object)
        cells[:, at], args = self._floats(np.hstack(numbers))
        for j, column in text.items():
            cells[:, j] = column
        return ("\n".join(map(",".join, cells.tolist())) + "\n") % tuple(args)

    def _floats(self, x):
        """Per-value patterns of ``x`` and their int args, in row-major order."""
        d, k, fast = _digits(x)
        pow10 = _powers()[4]
        nd = np.full(d.shape, 17)
        strip = d % 10 == 0
        if strip.any():
            # d divides by 10^1 … 10^tz, and by no higher power of ten
            tz = (d[strip, None] % pow10[1:] == 0).sum(axis=1)
            d[strip] //= pow10[tz]
            nd[strip] -= tz
        zero = x == 0.0
        fast |= zero
        d[zero] = 0                          # k = 0 and nd = 1 from the placeholder 1.0
        keys = ((k - _K_MIN) * 18 + nd) * 2 + np.signbit(x)
        keys[~fast] = 0
        point = self._points[keys]
        missing = point < 0
        if missing.any():
            for key in set(keys[missing].tolist()):
                self._patterns[key], self._points[key] = _pattern(key)
            point = self._points[keys]
        patterns = self._patterns[keys]
        slow = ~fast
        patterns[slow] = ["%.17g" % v for v in x[slow].tolist()]
        split = point > 0
        if not split.any():
            return patterns, d[fast].tolist()
        d[split], tail = np.divmod(d[split], pow10[point[split]])
        # each tail goes right after its head among the fast values' args
        after = np.cumsum(fast).reshape(fast.shape)[split]
        return patterns, np.insert(d[fast], after, tail).tolist()
