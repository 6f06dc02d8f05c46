"""The JSON text of number arrays, in both directions.

Strategy files and reports hold float arrays as nested JSON lists of
numbers. Writing, :func:`float_array_texts` gives the ``%.17g`` text of many
arrays at once from exact integer digits. Reading, :func:`loads` parses a
document whose number arrays at given keys become ndarrays, each parsed by
``json`` as flat lists, so no nested list is built for them. Both directions
stream: a slice of :func:`linalg.chunks` at a time, so besides the document
and the arrays each holds about one slice's text, never a copy of a whole
array's.
"""

import io
import json
import math
import operator
import re
from functools import cache

import numpy as np

from .linalg import chunks

# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


# exact powers for the float writer: 5**k below 2**63, in 32-bit halves, and 10**k
_POW5_HI = np.array([5**k // 2**32 for k in range(28)], dtype=np.uint64)
_POW5_LO = np.array([5**k % 2**32 for k in range(28)], dtype=np.uint64)
_POW10 = np.array([10**k for k in range(18)], dtype=np.uint64)
# the float writer's layouts: sign x decimal exponent -11..16 x fraction
# digits 0..16, then zero (also the slot of a number left to "%.17g")
_EXPONENTS = 28
_ZERO = 2 * _EXPONENTS * 17
_LAYOUTS = _ZERO + 1
# the float writer streams runs of 64 numbers and counts 32 words of
# temporaries a number: linalg.chunks gives it slices of 128 runs (8192
# numbers), and at the smallest budget still whole runs, so a slice's fixed
# cost (some 60 NumPy calls) stays small against its numbers
_RUN = 64


def float_array_texts(arrays: list):
    """The ``%.17g`` text of the non-empty finite float ``arrays``, each
    nested like its ``tolist()``, with ``-0.0`` written ``0``: yields ``(i,
    text)``, the texts of array ``i`` in order and the arrays in turn. The
    numbers of all the arrays are written together, a slice of
    :func:`linalg.chunks` at a time.

    Each number's 17 significant digits are computed as an exact integer,
    and Python's ``%`` writes them with ``%d`` fields into cached pieces of
    the ``%g`` layout (:func:`_piece`). A finite nonzero normal ``x`` is
    ``+-m 2**e`` with an integer ``2**52 <= m < 2**53``. With ``E`` the
    guess ``floor(log10 |x|)`` and ``K = 16 - E``, ``|x| 10**K = m 5**K /
    2**s`` for ``s = -(e + K)``. For ``0 <= K <= 27``, ``5**K < 2**63``, so
    the product ``m 5**K < 2**116`` is exact in two ``uint64`` limbs
    (:func:`_quotient`), and for ``1 <= s <= 63`` the quotient ``q =
    floor(m 5**K / 2**s)`` and its remainder ``r`` are exact shifts of them.
    Then ``10**16 <= q < 10**17`` holds exactly when the guess ``E`` is
    right, since ``q`` is the floor of ``|x| 10**K``. It is checked on
    ``q`` before rounding: the double nearest ``1e-7`` lies just below it,
    yet has ``log10`` exactly ``-7``, and its ``q = 10**16 - 1`` rounds up
    to ``10**16``, which would read ``1e-07``. (``log10`` is off by at most
    one unit in the last place, so a wrong guess is off by one and its ``q``
    is below ``10**18 < 2**64``, still exact.) The digits are ``q`` rounded half to even by ``r`` against
    ``2**(s - 1)``, as CPython's correctly rounded ``%.17g`` rounds; if that
    carries to ``10**17``, they are ``10**16`` and the exponent is ``E + 1``.
    Without their trailing zeros they are written in the fixed layout for
    exponents -4..16 and as ``d.ddde+-XX`` otherwise, as ``%g`` writes them.

    Zero is the piece ``0``. Every other number outside that range (a
    subnormal, a magnitude outside about [1e-11, 4e15], or a wrong guess)
    stays on ``format(x, ".17g")``, written into its piece.
    """
    flats = [np.asarray(a, dtype=float).reshape(-1) for a in arrays]
    starts = np.cumsum([0] + [f.size for f in flats]).tolist()
    first = 0  # the array the next slice starts in
    for part in chunks(-(-starts[-1] // _RUN), 32 * _RUN):
        lo, hi = part.start * _RUN, min(part.stop * _RUN, starts[-1])
        values, seps, ends = [], [], []
        k = first
        while k < len(flats) and starts[k] < hi:
            a, b = max(lo - starts[k], 0), min(hi - starts[k], flats[k].size)
            values.append(flats[k][a:b])
            seps.append(_separators(arrays[k].shape, a, b))
            if b == flats[k].size:
                ends.append((starts[k] + b - 1 - lo, arrays[k].ndim))
            k += 1
        text = _float_slice(np.concatenate(values), np.concatenate(seps), ends)
        for i, segment in enumerate(text.split("\0")):  # a NUL ends each array
            if segment:
                yield first + i, segment
        first += len(ends)


def _separators(shape: tuple, start: int, stop: int) -> np.ndarray:
    """Separator codes of the numbers ``start:stop`` of a C-ordered array of
    ``shape``: ``2 * ndim`` (that many brackets) for the first, else ``2c +
    1`` for the ``c`` axes the number opens (``]`` c times, a comma, ``[`` c
    times)."""
    opened = np.zeros(stop - start, dtype=np.int64)
    step = 1
    for size in shape[:0:-1]:
        step *= size
        opened[-start % step::step] += 1
    codes = 2 * opened + 1
    if start == 0:
        codes[0] = 2 * len(shape)
    return codes


def _float_slice(x: np.ndarray, seps: np.ndarray, ends: list) -> str:
    """The text of the float64 numbers ``x`` led by the separators ``seps``,
    with the closing brackets and a NUL after each ``(position, ndim)`` of
    ``ends`` (see :func:`float_array_texts`)."""
    codes = seps * _LAYOUTS + _ZERO
    nonzero = np.flatnonzero(x)
    fast, e10, t, tz = _digits(x[nonzero])
    # digits after the point: after the leading e10 + 1 in the fixed layout,
    # after the first in the e+XX one; from 0.00 on (-4 <= e10 < 0), t is
    # written whole
    frac = 16 - tz - np.maximum(e10, 0)
    split = fast & (frac > 0) & ((e10 >= 0) | (e10 < -4))
    f = np.where(split, frac, 0)
    # a decimal point inside the digits, or an integer's trailing zeros
    odd = np.flatnonzero(split | (fast & (frac < 0)))
    whole = t[odd] // _POW10[f[odd]]
    fraction = t[odd] - whole * _POW10[f[odd]]
    t[odd] = whole * _POW10[np.maximum(-frac[odd], 0)]
    args = np.insert(t[fast], np.cumsum(fast)[odd[split[odd]]], fraction[split[odd]])
    layout = ((x[nonzero] < 0) * _EXPONENTS + e10 + 11) * 17 + f
    codes[nonzero] += np.where(fast, layout - _ZERO, 0)
    used = np.flatnonzero(np.bincount(codes))
    table = np.empty(used[-1] + 1, dtype=object)
    table[used] = [_piece(c) for c in used.tolist()]
    pieces = table[codes]
    other = nonzero[~fast]
    pieces[other] = np.array([_separator(s) + format(y, ".17g") for s, y in
                              zip(seps[other].tolist(), x[other].tolist())], dtype=object)
    for at, ndim in ends:
        pieces[at] += "]" * ndim + "\0"
    return "".join(pieces.tolist()) % tuple(args.tolist())


def _digits(v: np.ndarray) -> tuple:
    """``(fast, e10, t, tz)`` for the nonzero float64 numbers ``v``: where
    ``fast``, their 17 significant digits are ``t`` followed by ``tz``
    zeros, with the first digit at the decimal exponent ``e10`` (see
    :func:`float_array_texts`)."""
    bits = v.view(np.uint64)
    e10 = np.floor(np.log10(np.abs(v))).astype(np.int64)  # the guess E
    k = 16 - e10
    # a subnormal's biased exponent is 0: its shift is above 1000
    shift = 1075 - ((bits >> 52) & 0x7FF).astype(np.int64) - k
    fast = (k >= 0) & (k <= 27) & (shift >= 1) & (shift <= 63)
    k[~fast] = 0
    shift[~fast] = 1
    q, up = _quotient((bits & 0xFFFFFFFFFFFFF) | 0x10000000000000, k, shift.astype(np.uint64))
    fast &= (q >= _POW10[16]) & (q < _POW10[17])
    q += up
    carry = q == _POW10[17]
    q[carry] = _POW10[16]
    e10 += carry
    # strip the trailing zeros (at most 16) of the numbers that end in one
    tz = np.zeros(len(q), dtype=np.int64)
    tens = np.flatnonzero(q // 10 * 10 == q)
    t = q[tens]
    for p in (16, 8, 4, 2, 1):
        d = t // _POW10[p]
        z = d * _POW10[p] == t
        t = np.where(z, d, t)
        tz[tens] += p * z
    q[tens] = t
    return fast, e10, q, tz


def _quotient(m: np.ndarray, k: np.ndarray, shift: np.ndarray) -> tuple:
    """``q = floor(m 5**k / 2**shift)`` and whether ``q`` rounds up, half to
    even, for ``m < 2**53``, ``k <= 27`` and ``1 <= shift <= 63``. The
    product ``m 5**k < 2**116`` is ``hi * 2**64 + lo``, formed from 32-bit
    halves: every partial product and the middle sum stay below ``2**64``."""
    mh, ml = m >> 32, m & 0xFFFFFFFF
    ph, pl = _POW5_HI[k], _POW5_LO[k]
    lo = ml * pl
    mid = mh * pl + ml * ph
    hi = mh * ph + (mid >> 32)
    mid <<= 32
    lo += mid  # wraps: the carry goes to hi
    hi += lo < mid
    q = (hi << (64 - shift)) | (lo >> shift)
    rest = lo & ((1 << shift) - 1)
    half = 1 << (shift - 1)
    return q, (rest > half) | ((rest == half) & (q & 1).astype(bool))


@cache
def _separator(code: int) -> str:
    opened, inner = divmod(code, 2)
    return "]" * opened + "," + "[" * opened if inner else "[" * opened


@cache
def _piece(code: int) -> str:
    """The ``%``-template of one number of :func:`_float_slice`: its
    separator, then its layout (sign, exponent, fraction digits)."""
    sep, layout = divmod(code, _LAYOUTS)
    out = _separator(sep)
    if layout == _ZERO:
        return out + "0"
    rest, frac = divmod(layout, 17)
    neg, exponent = divmod(rest, _EXPONENTS)
    exponent -= 11
    out += "-" * neg
    if -4 <= exponent < 0:
        return out + "0." + "0" * (-exponent - 1) + "%d"
    out += "%d" + (f".%0{frac}d" if frac else "")
    return out if 0 <= exponent < 17 else out + f"e{exponent:+03d}"


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------

# a JSON string, and the "[" that opens an array when it is a key of one
_KEY = re.compile(rb'("[^"\\]*(?:\\.[^"\\]*)*")(?:[ \t\n\r]*:[ \t\n\r]*(\[))?', re.DOTALL)
# number characters and JSON whitespace: deleted, they leave an array's bracket layout
_NUMBER_BYTES = b"+-.0123456789Ee \t\n\r"
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")
# the text that stands in for flattened array k; a file can write its string
# only with the escape \u0000 itself, which sends the file down the text route
_PLACEHOLDER = b'"\\u0000%d"'


def loads(raw: bytes, shapes: dict):
    """The value of the JSON document ``raw``, as ``json.loads`` gives it for
    the text ``open(path, encoding="utf-8")`` reads from those bytes, except
    that each rectangular array of JSON numbers that is the value of a key of
    ``shapes`` and fits its shape pattern (``None`` fits any length) is one
    integer or float ndarray. A bad file raises what that parse raises, at
    the file's own positions: ``UnicodeDecodeError``, ``JSONDecodeError`` or
    ``RecursionError``.

    An array is read when its bytes, with number characters and whitespace
    deleted, are exactly the bracket layout of the shape they imply; then
    ``json`` parses its numbers as flat lists, one byte slice of about
    ``linalg.BLOCK_ENTRIES`` at a time (:func:`_number_array`), so the
    numbers are ``json``'s own. Every other value stays in the document: a
    string, ``NaN``, ``true``, a ragged row, a non-ASCII byte, a number whose
    list NumPy cannot type as one integer or float array, or a key spelled
    with escapes. One ``json.loads`` parses the document with a placeholder
    string in place of each array read. A document that does not parse, or
    that spells the placeholders' escape, is parsed whole as text instead,
    which reports any error as the plain parse does. Besides ``raw``, the
    arrays read and one array's bracket layout, at most one slice's text
    (its budget plus the rest of the number it ends in) and its list of
    numbers are alive at once.
    """
    patterns = {b'"%s"' % key.encode(): shape for key, shape in shapes.items()}
    pieces, arrays = [], []
    start = pos = 0
    while (match := _KEY.search(raw, pos)) is not None:
        pos = match.end()
        pattern = patterns.get(match.group(1))
        if pattern is None or match.start(2) < 0:
            continue
        # a number array ends before the next string or closing brace
        first, stop = match.start(2), len(raw)
        for end_byte in (b'"', b"}"):
            found = raw.find(end_byte, first, stop)
            stop = stop if found < 0 else found
        last = raw.rfind(b"]", first, stop)
        array = None if last < 0 else _number_array(raw, first, last, pattern)
        if array is None:
            continue
        pieces += [raw[start:first], _PLACEHOLDER % len(arrays)]
        arrays.append(array)
        start = pos = last + 1
    if arrays:
        pieces.append(raw[start:])
        doc = b"".join(pieces)

        def fill(obj: dict) -> dict:
            for key, value in obj.items():
                if type(value) is str and value[:1] == "\0":
                    obj[key] = arrays[int(value[1:])]
            return obj

        if doc.count(b"\\u0000") == len(arrays):
            try:
                return json.loads(doc.decode("utf-8"), object_hook=fill)
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):
                pass
        arrays.clear()  # not held through the text route's parse
    return json.loads(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read())


def _number_array(raw: bytes, first: int, last: int, pattern: tuple):
    """The ndarray of the JSON number array ``raw[first:last + 1]``, or
    ``None`` when it is not rectangular, does not fit ``pattern``, does not
    parse or holds an integer NumPy types as an object.

    The bytes are walked in slices of :func:`linalg.chunks`, one byte an
    entry. The bracket layout, gathered slice by slice, is checked whole
    before any number is parsed. Then each slice, run on to the next comma so
    that no number is cut, has its brackets made spaces and is parsed as one
    flat list into the ndarray, which is allocated once. The layout fixed the
    commas, so the slices fill it exactly unless one is empty, which the
    whole list would not parse at either. A slice is typed as ``np.asarray``
    types it, and its type promotes the array's as ``np.asarray`` promotes
    the whole list's: an array holding a ``.``, ``e`` or ``E`` is float64
    from the start, and only integers past int64 can widen an integer array
    into a copy.
    """
    view = memoryview(raw)[first:last + 1]
    layout = b"".join([bytes(view[part]).translate(None, _NUMBER_BYTES)
                       for part in chunks(len(view), 1)])
    shape = _layout_shape(layout, pattern)
    if shape is None:
        return None
    del layout
    floats = any(raw.find(c, first, last) >= 0 for c in (b".", b"e", b"E"))
    out, filled, start = None, 0, first + 1
    for part in chunks(len(view), 1):
        if first + part.stop < start:  # inside the slice before, which ran on to its comma
            continue
        stop = raw.find(b",", first + part.stop, last)
        stop = last if stop < 0 else stop
        try:
            values = json.loads((b"[%s]" % raw[start:stop].translate(_BRACKETS_TO_SPACES))
                                .decode("ascii"))
        except json.JSONDecodeError:
            return None
        if not values:
            return None
        block = np.asarray(values)
        del values
        if block.dtype.kind not in "iuf":
            return None
        if out is None:
            out = np.empty(math.prod(shape), float if floats else block.dtype)
        elif (wider := np.promote_types(out.dtype, block.dtype)) != out.dtype:
            out = out.astype(wider)
        out[filled:filled + block.size] = block
        filled += block.size
        if stop == last:
            break
        start = stop + 1
    return out.reshape(shape)


def _layout_shape(layout: bytes, pattern: tuple):
    """The shape of the rectangular array whose brackets and commas are
    ``layout``, if it fits ``pattern``, else ``None``. Its last ``c`` axes
    hold as many numbers as precede the first separator that closes ``c``
    brackets; the layout must then be that shape's own."""
    count = layout.count(b",") + 1
    blocks = [count]  # numbers in one block of the last c axes, c = ndim, ..., 1
    for c in range(len(pattern) - 1, 0, -1):
        at = layout.find(b"]" * c + b",")
        blocks.append(count if at < 0 else layout.count(b",", 0, at) + 1)
    blocks.append(1)
    shape = tuple(map(operator.floordiv, blocks, blocks[1:]))
    expected = b""
    for want, size in zip(pattern[::-1], shape[::-1]):
        if want not in (None, size):
            return None
        expected = b"[" + b",".join([expected] * size) + b"]"
    return shape if expected == layout else None
