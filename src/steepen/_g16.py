"""Exact ``'%.16g' % v`` text of float64 blocks, for the CSV writers.

CPython formats one number at a time with Gay's correctly rounded dtoa.
:class:`Formatter` rounds a whole block at once:

- decade: ``X = floor(log10|v|)`` exactly, from the binary exponent of
  ``|v|`` (which leaves two candidate decades) and one comparison with the
  largest double below the next power of ten;
- rounding: ``|v| * 10**(15 - X)`` is formed as Dekker's error-free product
  of ``|v|`` with a double-double power of ten (hi + lo, built from Python
  ints) and rounded to a 16-digit integer.  The error before rounding is
  below 1e-15, so the rounding is the correct one unless the fraction lies
  within 1e-9 of 1/2;
- fallback: an element is *undecided*, and formatted by ``%`` itself, when
  that fraction is that close to 1/2 (exact half-even ties included), or
  when ``v`` is nan, inf or outside the fast range (1e-250, 1e250).  Zeros
  are handled directly;
- digits: the 16-digit integer is cut into 8- and then 4-digit groups
  (float division, exact on these integers once the 8-digit quotient is
  corrected), and each group looked up in a 10**4-entry table;
- layout: sign, the ``0.000`` lead of decades -1 to -4, the point, the
  trailing-zero strip and the ``e+XX``/``e-XXX`` suffix come from small
  tables indexed by the decade and the number of digits kept.

Each value becomes one slot of four little-endian uint64 words: the sign
and lead, two words of body, and a word holding the body's 17th byte, the
exponent and, in its top byte, the separator that follows the value.
Unused bytes are NUL, so a block of slots (and of other NUL-padded text
around them) becomes its row bytes by one deletion of the NUL bytes.

A formatter works in scratch rows it owns, :data:`VALUES_PER_BLOCK`
values long, with ``out=`` throughout: a call allocates nothing in
proportion to its input but numpy's buffer for one gather into ``out`` (a
word a value) and the slots it returns when given no ``out``.  The rows
are contiguous, and the slots are written into ``out`` once, at the end.  The arithmetic
stays within kernels a run already uses (no int64 division, no bool to
integer casts), so the formatter adds no code pages to a run's memory.
"""

from __future__ import annotations

import math

import numpy as np

WORD = np.dtype("<u8")
_FAST = (1e-250, 1e250)  # |v| range of the fast path, bounds excluded
_XOFF = 260  # decade X sits at index X + _XOFF of the decade tables
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter for Dekker's product
_TIE = 1e-9  # fractions this close to 1/2 are left to '%'
_ROWS = 9  # scratch rows of one float64 word per value
_M64 = 2**64 - 1
# values a formatter takes per step, whole rows at a time: 360 rows of
# fields.csv (8 values each, its changing columns) and 720 of curves.csv.
# Its scratch is 75 B a value (216 kB): at n = 4096 the snapshot pass peaks
# 295 kB over a snapshot's diagnostics, and from about 4900 values a block
# it allocates more than they do
VALUES_PER_BLOCK = 2880
# rows turned into bytes per write: bytes.translate allocates its output at
# its input's size, so a write's bytes stay near 2 x 45 kB
ROWS_PER_WRITE = 128


def tail(sep: str) -> np.uint64:
    """The slot word-3 bits that put ``sep`` after a value."""
    return np.uint64(ord(sep) << 56)


def words_of(text: str) -> np.ndarray:
    """``text`` as NUL-padded words, to sit in a row beside slots."""
    raw = text.encode("ascii")
    return np.frombuffer(raw + bytes(-len(raw) % 8), WORD)


def text(block: np.ndarray) -> bytes:
    """The bytes of a block of slots and words, without the NULs."""
    return block.tobytes().translate(None, b"\0")


def write(fh, rows: np.ndarray) -> None:
    """Write the text of a block of rows of slots and words to the binary
    file ``fh``, :data:`ROWS_PER_WRITE` rows at a time."""
    for lo in range(0, len(rows), ROWS_PER_WRITE):
        fh.write(text(rows[lo:lo + ROWS_PER_WRITE]))


def _index(x: np.ndarray) -> np.ndarray:
    """Integer-valued floats in [0, 2**52) as int64, read in place from
    their bits: a view of ``x``, which is overwritten."""
    x += 2.0**52
    i = x.view(np.int64)
    i -= 0x4330000000000000
    return i


def _sign(x: np.ndarray) -> np.ndarray:
    """-1 where float ``x`` is negative (sign bit set), else 0, as int64:
    a view of ``x``, which is overwritten."""
    i = x.view(np.int64)
    return np.right_shift(i, 63, out=i)


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
    """Formats float64 blocks as ``%.16g``, :data:`VALUES_PER_BLOCK` values
    per step.

    Its tables (about 100 kB, built from Python ints in about 5 ms) and its
    scratch (75 bytes per value of a block) are plain arrays, ``nbytes`` in
    all.
    """

    def __init__(self):
        xs = range(-_XOFF, _XOFF + 1)
        powers = {k: _power(k) for k in range(-_XOFF, _XOFF + 16)}
        # the smallest double >= 10**k, k = -_XOFF ... _XOFF + 1: a double
        # reaches 10**k exactly when it reaches that one
        ceils = np.array([math.nextafter(hi, math.inf) if lo > 0 else hi
                          for hi, lo in (powers[k] for k in range(-_XOFF, _XOFF + 2))])
        # the lower decade of each binary exponent, and the largest double
        # below 10**(X + 1), which decides between it and the next
        binade = np.searchsorted(ceils[:-1], np.ldexp(1.0, np.arange(-1023, 1025).clip(-1022, 1023)),
                                 side="right").clip(1) - 1
        belows = np.nextafter(ceils[1:], 0.0)
        # 10**(15 - X) as hi + lo, and hi split into 26-bit halves hh + hl
        hi, lo = np.array([powers[15 - x] for x in xs]).T
        c = _SPLIT * hi
        hh = c - (c - hi)
        tens = np.array([hi, lo, hh, hi - hh])

        # digit values of the 4-digit groups, first digit in the low byte;
        # entry 10**4 is the carry to 10**16, whose groups read 1000 0000 ...
        d = np.arange(10.0)
        digits = d[:, None] + 256.0 * d
        digits = (digits[:, :, None] + 65536.0 * d).reshape(-1)
        digits = (digits[:, None] + 16777216.0 * d).reshape(-1)
        digits = np.append(digits, 1.0).astype(np.dtype("<u4"))

        # decade class of X: 0 the exponent form; 1-4 X = -1..-4, written
        # behind a "0.000" lead; 5 + X the fixed form of X = 0..15.  The
        # layout row of a value is 17 dc + nd, and dc17 holds 17 dc - 127
        dc17 = np.array([17 * (x + 5 if 0 <= x < 16 else -x if -4 <= x < 0 else 0) - 127 for x in xs])
        expw = np.frombuffer(b"".join(bytes(8) if -4 <= x < 16 else (b"\0e%+03d" % x).ljust(8, b"\0")
                                      for x in xs), WORD)
        # layout row 17 dc + nd, for nd digits up to the last nonzero one,
        # kept digits to the last kept one: the shifts (w << s) >> s that
        # keep a body word's digits before the point at P, the ASCII '0's
        # and the point where the kept digits end up in the 17-byte body (by
        # word, the 17th byte apart) and the lead, a byte up to leave room
        # for the sign
        layout = []
        for dc in range(21):
            P = 1 if dc == 0 else 16 if dc < 5 else dc - 4
            lead = int.from_bytes(b"\0" + (b"0." + b"0" * (dc - 1) if 0 < dc < 5 else b""), "little")
            for nd in range(17):
                kept = max(nd, 1) if dc < 5 else max(nd, P)
                point = P < kept
                body = int.from_bytes(b"0" * min(P, kept) + (b"." + b"0" * (kept - P) if point else b""),
                                      "little")
                layout.append((64 - 8 * min(P, 8), 64 - 8 * max(P - 8, 0), body & _M64,
                               (body >> 64) & _M64, body >> 128, lead))
        # the layout in C order, as take along its rows reads it
        tables = (binade, belows, tens, digits, dc17, expw, np.ascontiguousarray(np.array(layout, WORD).T),
                  np.array([0, ord("-")], WORD))
        self.binade, self.belows, self.tens, self.digits, self.dc17, self.expw, self.layout, self.minus = tables
        size = VALUES_PER_BLOCK
        scratch = np.empty((8 * _ROWS + 3) * size, np.uint8)
        self._pool = scratch[:8 * _ROWS * size].view(np.float64)
        self._flags = scratch[8 * _ROWS * size:].view(bool).reshape(3, size)
        self.nbytes = scratch.nbytes + sum(a.nbytes for a in tables)

    def decide(self, v: np.ndarray):
        """Round ``v`` (at most :data:`VALUES_PER_BLOCK` values) to 16 digits:
        ``(halves, X + _XOFF, undecided)``, views of the scratch that the
        next call overwrites.

        For each decided element, ``halves[0]`` and ``halves[1]`` are the
        first and the last 8 of the 16 digits of ``'%.15e' % abs(v)`` (0 for
        a zero), and ``X`` its exponent, except that a carry reads
        ``10**8, 0`` with ``X`` already raised.  ``undecided`` marks the
        elements left to ``%``.
        """
        m = v.size
        rows = self._pool[:_ROWS * m].reshape(_ROWS, m)
        a, p, d, e, f, g = rows[:6]
        xi = rows[8].view(np.int64)
        undecided, zero, tmp = self._flags[:, :m]

        np.abs(v, out=a.reshape(v.shape))
        np.greater(a, _FAST[0], out=undecided)
        np.less(a, _FAST[1], out=tmp)
        undecided &= tmp
        np.logical_not(undecided, out=tmp)
        np.copyto(a, 1.0, where=tmp)  # nan, inf and the rest go through as 1
        np.equal(v, 0.0, out=zero.reshape(v.shape))
        np.logical_xor(tmp, zero, out=undecided)

        # the decade: the binade's lower one, raised where a is above the
        # largest double below the next power of ten (a binade spans less
        # than a factor of 10): by the sign bit of their difference, 0 or -1
        np.right_shift(a.view(np.int64), 52, out=p.view(np.int64))
        self.binade.take(p.view(np.int64), out=xi, mode="clip")
        self.belows.take(xi, out=d, mode="clip")
        xi -= _sign(np.subtract(d, a, out=d))

        # Dekker: p + err == a * hi exactly, a split into 26-bit halves
        # ah + al (hi's halves are tabled); a * lo is below one unit
        hi, lo, hh, hl = self.tens
        hi.take(xi, out=p, mode="clip")
        p *= a
        ah, al, err = e, d, g
        np.multiply(a, _SPLIT, out=al)
        np.subtract(al, a, out=ah)
        np.subtract(al, ah, out=ah)
        np.subtract(a, ah, out=al)
        hh.take(xi, out=f, mode="clip")
        np.multiply(ah, f, out=err)
        err -= p
        err += np.multiply(f, al, out=f)
        hl.take(xi, out=f, mode="clip")
        err += np.multiply(ah, f, out=ah)
        err += np.multiply(f, al, out=f)
        lo.take(xi, out=f, mode="clip")
        err += np.multiply(f, a, out=f)

        whole = np.floor(p, out=e)
        p -= whole
        p += err
        step = np.floor(p, out=g)
        p -= step  # the fraction, in [0, 1)
        np.subtract(p, 0.5, out=d)
        undecided |= np.less(np.abs(d, out=d), _TIE, out=tmp)

        # the digits as two 8-digit halves of whole + step + rint(fraction):
        # whole is cut at 10**8 (exact but for the floor of the quotient,
        # which may be one high), then the low half carries -1, 0 or 1 into
        # the high one.  The decade is exact, so the digits lie in [10**15,
        # 10**16] but for a last digit within 1e-15 of rounding
        halves = rows[6:8]
        high, low = halves
        np.floor(np.divide(whole, 1e8, out=high), out=high)
        np.multiply(high, -1e8, out=low)
        low += whole
        low += step
        low += np.rint(p, out=p)
        np.floor(np.divide(low, 1e8, out=d), out=d)
        high += d
        low -= np.multiply(d, 1e8, out=d)
        np.copyto(halves, 0.0, where=zero)
        # a carry to 10**16 reads as 1 and zeros one decade up
        xi -= _sign(np.subtract(1e8 - 0.5, high, out=d))
        return halves, xi, undecided

    def slots(self, values, tails, out: np.ndarray | None = None) -> np.ndarray:
        """The ``%.16g`` text of 1-D or 2-D ``values`` as slots, written into
        ``out`` (shape ``values.shape + (4,)``, any strides) and returned.

        ``tails`` (from :func:`tail`, a scalar or one per column) puts each
        value's separator at the end of its slot.  Rows of ``values`` are
        formatted :data:`VALUES_PER_BLOCK` values (whole rows) at a time.
        """
        v = np.asarray(values, dtype=np.float64)
        if out is None:
            out = np.empty(v.shape + (4,), WORD)
        if v.ndim == 1:
            v, cells = v[:, None], out[:, None]
        else:
            cells = out
        step = max(1, VALUES_PER_BLOCK // v.shape[1])
        for lo in range(0, len(v), step):
            self._fill(v[lo:lo + step], tails, cells[lo:lo + step])
        return out

    def _fill(self, v: np.ndarray, tails, out: np.ndarray) -> None:
        """Write the slots of the 2-D block ``v`` into ``out``."""
        r, c = v.shape
        m = r * c
        halves, xi, undecided = self.decide(v)
        rows = self._pool[:_ROWS * m].reshape(_ROWS, m)

        # 4-digit groups, as (half, value, group) for one table lookup whose
        # uint32 pairs read as the two body words of each value
        groups = rows[:4].reshape(2, m, 2)
        high = np.floor(np.divide(halves, 1e4, out=rows[4:6]), out=rows[4:6])
        np.copyto(groups[..., 0], high)
        halves -= np.multiply(high, 1e4, out=high)
        np.copyto(groups[..., 1], halves)
        body = rows[6:8].view(WORD)  # the halves' rows, free again
        self.digits.take(_index(groups), out=body.view(np.dtype("<u4")).reshape(2, m, 2), mode="clip")

        # nd, the digits up to the last nonzero one: the top nonzero byte k
        # of each word, read as (exponent of 2 * word as a double) >> 3 =
        # 128 + k (0 for a zero word), and nd = max(k0 + 1, k1 + 9, 0), i.e.
        # max(K0, K1 + 8, 127) - 127 (the 127 is in dc17)
        top = rows[:2].view(np.int64)
        np.multiply(body, 2.0, out=top.view(np.float64))
        np.right_shift(top, 55, out=top)
        top[1] += 8
        nd = np.maximum(top[0], top[1], out=top[0])
        np.maximum(nd, 127, out=nd)
        dc17 = self.dc17.take(xi, out=rows[2].view(np.int64), mode="clip")
        self.expw.take(xi.reshape(r, c), out=out[..., 3], mode="clip")
        cls = np.add(dc17, nd, out=xi)

        before0, before1, text0, text1, text2, lead = layout = rows[:6].view(WORD)
        self.layout.take(cls, axis=1, out=layout, mode="clip")
        head, tail_ = body
        spare = rows[8].view(WORD)
        # the kept digits, moved up a byte from the point at P on, their
        # ASCII and the point; the 17th byte goes to the exponent word
        np.right_shift(np.left_shift(head, before0, out=spare), before0, out=before0)
        head -= before0
        np.right_shift(np.left_shift(tail_, before1, out=spare), before1, out=before1)
        tail_ -= before1
        text2 += np.right_shift(tail_, 56, out=spare)
        exponent = text2.reshape(r, c)
        exponent += tails
        out[..., 3] += exponent
        np.right_shift(head, 56, out=spare)
        tail_ <<= 8
        tail_ += before1
        tail_ += spare
        np.add(tail_.reshape(r, c), text1.reshape(r, c), out=out[..., 2])
        head <<= 8
        head += before0
        np.add(head.reshape(r, c), text0.reshape(r, c), out=out[..., 1])
        # the lead, behind a '-' where the sign bit is set
        sign = np.right_shift(v.view(WORD), 63, out=spare.reshape(r, c))
        minus = self.minus.take(sign.view(np.int64), out=before0.reshape(r, c), mode="clip")
        np.add(lead.reshape(r, c), minus, out=out[..., 0])

        for i in np.flatnonzero(undecided).tolist():
            raw = ("%.16g" % float(v[i // c, i % c])).encode("ascii")
            out[i // c, i % c] = np.frombuffer(bytes(8) + raw + bytes(24 - len(raw)), WORD)
            out[i // c, i % c, 3] += np.broadcast_to(tails, (c,))[i % c]
