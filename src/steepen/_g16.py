"""Exact ``'%.16g' % v`` text of float64 blocks, for the CSV writers.

CPython formats one number at a time with Gay's correctly rounded dtoa.
:class:`Formatter` rounds a whole block at once:

- decade: ``X = floor(log10|v|)``, from ``log2`` estimated low by at most
  one and raised where ``|v|`` reaches the next power of ten;
- rounding: ``|v| * 10**(15 - X)`` is formed as Dekker's error-free product
  of ``|v|`` with a double-double power of ten (hi + lo, built from Python
  ints) and rounded to a 16-digit integer.  The error before rounding is
  below 1e-15, so the rounding is the correct one unless the fraction lies
  within 1e-9 of 1/2;
- fallback: an element is *undecided*, and formatted by ``%`` itself, when
  that fraction is that close to 1/2 (exact half-even ties included), when
  the product lies outside [1e15, 1e16), or when ``v`` is nan, inf or
  outside the fast range (1e-250, 1e250).  Zeros are handled directly;
- digits: four at a time from a 10**4-entry table, the integer kept as two
  8-digit halves in float64, which is exact below 2**53;
- layout: sign, the ``0.000`` lead of decades -1 to -4, the point, the
  trailing-zero strip and the ``e+XX``/``e-XXX`` suffix come from small
  tables indexed by the decade and the number of digits kept.

Each value becomes one slot of four little-endian uint64 words: the sign
and lead, two words of body, and a word holding the body's 17th byte, the
exponent and, in its top byte, the separator that follows the value.
Unused bytes are NUL, so a block of slots (and of other NUL-padded text
around them) becomes its row text by one deletion of the NUL bytes.

Integer arrays come from floats through their bits (:func:`_index`), and
the arithmetic stays within the float and shift kernels that a run
already uses, so the formatter adds no code pages to a run's memory.
"""

from __future__ import annotations

import math

import numpy as np

WORD = np.dtype("<u8")
_FAST = (1e-250, 1e250)  # |v| range of the fast path, bounds excluded
_XOFF = 260  # decade X sits at index X + _XOFF of the decade tables
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter for Dekker's product
_TIE = 1e-9  # fractions this close to 1/2 are left to '%'
_LOG10_2 = 0.30102999566398120


def tail(sep: str) -> np.uint64:
    """The slot word-3 bits that put ``sep`` after a value."""
    return np.uint64(ord(sep) << 56)


def words_of(text: str) -> np.ndarray:
    """``text`` as NUL-padded words, to sit in a row beside slots."""
    raw = text.encode("ascii")
    return np.frombuffer(raw + bytes(-len(raw) % 8), WORD)


def text(block: np.ndarray) -> str:
    """The text of a block of slots and words: its bytes without the NULs."""
    return block.tobytes().translate(None, b"\0").decode("ascii")


def _index(x: np.ndarray) -> np.ndarray:
    """Integer-valued floats in [0, 2**52) as int64, read in place from
    their bits: a view of ``x``, which is overwritten."""
    x += 2.0**52
    i = x.view(np.int64)
    i -= 0x4330000000000000
    return i


def _split(x):
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _power(k: int):
    """10**k as ``(hi, lo)``: the nearest double and the nearest double to
    the rest (int -> float and int / int are correctly rounded)."""
    if k >= 0:
        hi = float(10**k)
        return hi, float(10**k - int(hi))
    q = 10**-k
    hi = 1 / q
    num, den = hi.as_integer_ratio()
    return hi, (den - num * q) / (den * q)


class Formatter:
    """Formats float64 blocks as ``%.16g``; its tables are built from Python
    ints when it is made (about 3 ms, 80 kB)."""

    def __init__(self):
        xs = range(-_XOFF, _XOFF + 1)
        powers = {k: _power(k) for k in range(-_XOFF + 1, _XOFF + 16)}
        # the smallest double >= 10**(X + 1), for the decade; 10**(15 - X)
        # as hi + lo, for the product
        nexts = []
        for x in xs:
            hi, lo = powers[x + 1]
            nexts.append(math.nextafter(hi, math.inf) if lo > 0 else hi)
        self.nexts = np.array(nexts)
        self.powers = np.array([powers[15 - x] for x in xs]).T.copy()

        # digit values of the 4-digit groups, first digit in the low byte;
        # entry 10**4 is the carry to 10**16, whose groups read 1000 0000 ...
        d = np.arange(10.0)
        digits = d[:, None] + 256.0 * d
        digits = (digits[:, :, None] + 65536.0 * d).reshape(-1)
        digits = (digits[:, None] + 16777216.0 * d).reshape(-1)
        self.digits = np.append(digits, 1.0).astype(np.dtype("<u4"))

        # decade class of X: 0 the exponent form; 1-4 X = -1..-4, written
        # behind a "0.000" lead; 5 + X the fixed form of X = 0..15
        self.dclass = np.array([x + 5.0 if 0 <= x < 16 else -x if -4 <= x < 0 else 0.0 for x in xs])
        self.expw = np.frombuffer(b"".join(bytes(8) if -4 <= x < 16 else (b"\0e%+03d" % x).ljust(8, b"\0")
                                           for x in xs), WORD)
        # prefix row 2 dc + sign
        self.prefix = np.frombuffer(b"".join((b"-"[:neg] + (b"0." + b"0" * (dc - 1) if 0 < dc < 5 else b"")).ljust(8, b"\0")
                                             for dc in range(21) for neg in (0, 1)), WORD)
        # row 17 dc + nd, for nd digits up to the last nonzero one: shifts that
        # keep the kept digits and those before the point at P (by
        # (w << s) >> s, 8 bytes a word), and the point
        layout = []
        for dc in range(21):
            P = 1 if dc == 0 else 16 if dc < 5 else dc - 4
            for nd in range(17):
                kept = max(nd, 1) if dc < 5 else max(nd, P)
                dot = 0x2E << 8 * P if P < kept else 0
                layout.append((64 - 8 * min(kept, 8), 128 - 8 * max(kept, 8), 64 - 8 * min(P, 8),
                               128 - 8 * max(P, 8), dot & 2**64 - 1, dot >> 64))
        self.layout = np.array(layout, WORD).T.copy()

    def decide(self, v: np.ndarray):
        """Round 1-D ``v`` to 16 digits: ``(halves, X + _XOFF, undecided)``.

        For each decided element, the two columns of ``halves`` are the
        first and the last 8 of the 16 digits of ``'%.15e' % abs(v)`` (0 for
        a zero), and ``X`` its exponent, except that a carry reads
        ``10**8, 0`` with ``X`` already raised.  ``undecided`` marks the
        elements left to ``%``.
        """
        a = np.abs(v)
        undecided = a > _FAST[0]
        undecided &= a < _FAST[1]
        np.copyto(a, 1.0, where=~undecided)  # nan, inf and the rest go through as 1
        zero = v == 0
        undecided |= zero
        np.logical_not(undecided, out=undecided)

        # the decade: log10 estimated low by at most one, then raised from
        # the next power of ten on
        t = np.log2(a)
        t *= _LOG10_2
        t += _XOFF - 1e-12
        xi = _index(np.floor(t))
        self.nexts.take(xi, out=t, mode="clip")
        np.divide(a, t, out=t)
        xi += _index(np.floor(t, out=t))

        # Dekker: p + err == a * hi exactly, a and hi split into 26-bit
        # halves ah + al and hh + hl; a * lo is below one unit
        hi = self.powers[0].take(xi, mode="clip")
        p = a * hi
        ah, al = _split(a)
        hh, hl = _split(hi)
        err = ah * hh
        err -= p
        err += np.multiply(al, hh, out=hi)
        err += np.multiply(ah, hl, out=hi)
        err += np.multiply(al, hl, out=hi)
        self.powers[1].take(xi, out=hi, mode="clip")
        err += np.multiply(a, hi, out=hi)
        del a, al, hi, hh, hl

        whole = np.floor(p, out=ah)
        p -= whole
        p += err
        step = np.floor(p, out=err)
        p -= step  # the fraction, in [0, 1)
        # whole + step, the product's floor, is in [1e15, 1e16) but for
        # rounding at the ends (the differences to whole are exact where
        # they matter)
        undecided |= step < np.subtract(1e15, whole, out=t)
        undecided |= step >= np.subtract(1e16, whole, out=t)
        np.subtract(p, 0.5, out=t)
        undecided |= np.abs(t, out=t) < _TIE

        # the digits as two 8-digit halves
        halves = np.empty((v.size, 2))
        high, low = halves[:, 0], halves[:, 1]
        np.floor(np.divide(whole, 1e8, out=high), out=high)
        np.multiply(high, -1e8, out=low)
        low += whole
        low += step
        low += np.rint(p, out=p)
        np.floor(np.divide(low, 1e8, out=t), out=t)  # -1, 0 or 1 carried to high
        high += t
        low -= np.multiply(t, 1e8, out=t)
        np.copyto(halves, 0.0, where=zero[:, None])
        # a carry to 10**16 reads as 1 and zeros one decade up
        xi += _index(np.floor(np.divide(high, 1e8, out=t), out=t))
        return halves, xi, undecided

    def slots(self, values: np.ndarray, tails) -> np.ndarray:
        """The ``%.16g`` text of ``values`` as slots, shape ``values.shape + (4,)``.

        ``tails`` (from :func:`tail`, broadcast against ``values``) puts each
        value's separator at the end of its slot.
        """
        v = np.asarray(values, dtype=np.float64).reshape(-1)
        n = v.size
        halves, xi, undecided = self.decide(v)

        # 4-digit groups; an undecided element's may lie outside [0, 1e4]:
        # its indices are clipped and its slot replaced below
        groups = np.empty((n, 4))
        high, low = groups[:, 0::2], groups[:, 1::2]
        np.floor(np.divide(halves, 1e4, out=high), out=high)
        np.multiply(high, -1e4, out=low)
        low += halves
        del halves, high, low
        w = self.digits.take(_index(groups), mode="clip").view(WORD)
        del groups

        # nd, the digits up to the last nonzero one: the top nonzero byte of
        # each word, from the binary exponent of its value (-1 for a zero word)
        top = w.astype(np.float64)
        np.maximum(top, 0.5, out=top)
        np.log2(top, out=top)
        top *= 0.125
        np.floor(top, out=top)
        cls = np.where(top[:, 1] >= 0, top[:, 1] + 9, top[:, 0] + 1)
        del top
        dc = self.dclass.take(xi, mode="clip")
        cls += 17 * dc
        cls = _index(cls)
        w += 0x3030303030303030  # ASCII

        # the kept digits, moved up a byte from the point at P on, then the
        # point: shifts and words of the class's layout row
        layout = self.layout
        out = np.empty((n, 4), WORD)
        head, tail_, exp = out[:, 1], out[:, 2], out[:, 3]
        k = layout[0].take(cls, mode="clip")
        np.right_shift(np.left_shift(w[:, 0], k, out=head), k, out=head)
        layout[1].take(cls, out=k, mode="clip")
        np.right_shift(np.left_shift(w[:, 1], k, out=tail_), k, out=tail_)
        del w
        layout[2].take(cls, out=k, mode="clip")
        before0 = head << k
        before0 >>= k
        head -= before0
        layout[3].take(cls, out=k, mode="clip")
        before1 = tail_ << k
        before1 >>= k
        tail_ -= before1
        np.right_shift(tail_, 56, out=exp)
        exp += self.expw.take(xi, mode="clip")
        tail_ <<= 8
        tail_ += before1
        tail_ += np.right_shift(head, 56, out=before1)
        tail_ += layout[5].take(cls, out=k, mode="clip")
        head <<= 8
        head += before0
        head += layout[4].take(cls, out=k, mode="clip")
        # the prefix row: 2 dc, plus one when the sign bit is set
        pre = _index(dc + dc) - (v.view(np.int64) >> 63)
        self.prefix.take(pre, out=out[:, 0], mode="clip")

        for i in np.flatnonzero(undecided).tolist():
            raw = ("%.16g" % float(v[i])).encode("ascii")
            out[i] = np.frombuffer(bytes(8) + raw + bytes(24 - len(raw)), WORD)
        out = out.reshape(np.shape(values) + (4,))
        out[..., 3] += tails
        return out
