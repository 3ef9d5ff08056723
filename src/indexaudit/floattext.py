"""Float text: each float64 of an array spelled as ``repr(float(x))`` spells it.

Python's ``repr`` gives the shortest decimal that reads back as the same
double and, among those, the one nearest the double's exact value. This
module computes those digits for a whole array at once with Ryu (Adams,
"Ryu: fast float-to-string conversion", PLDI 2018):

* the double ``m2 * 2**e2`` and the two bounds of the interval of reals
  that read back as it are scaled by ``10**-e10``, a power chosen per binary
  exponent, as floors of 55 x 126-bit products (``_scaled``), in numpy
  ``uint64`` arithmetic on 32-bit halves;
* the digits are the scaled value with as many of its last digits removed
  as leave a multiple of that power of ten inside the scaled interval,
  rounded to nearest, a tie to even (``_shortest``).

The text is laid out in three little-endian ``uint64`` words a row, 17 digit
characters at a time (``_layout``): positional notation for decimal
exponents -4 to 15, otherwise ``e+XX``/``e-XX`` with at least two exponent
digits, and ``.0`` after a whole number. Zero, subnormals, infinities and
NaN take ``repr`` itself. The tables are built on import (~3 ms), and the
package imports this module where it first spells a float.
"""

from __future__ import annotations

import numpy as np

# A text row: the sign (or PAD), then up to 23 characters padded with PAD,
# a byte that UTF-8 text never holds.
WIDTH = 25
PAD = 0xFF
# Values the micro writer encodes at a time, ~190 bytes of
# working arrays each. Each call costs ~0.2 ms besides its values: the micro
# writer formats 200,000 amounts in ~69 ms in blocks of 8,192, ~75 in blocks
# of 4,096 and ~88 in blocks of 2,048 (on a 2-core x86-64 VM), and larger
# blocks run no faster.
BLOCK = 8192

_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
_FRACTION = _U((1 << 52) - 1)
_ZEROS = _U(0x3030303030303030)  # eight "0" characters
# 10**0 .. 10**19, every power of ten below 2**64
_POW10 = np.cumprod(np.array([1] + [10] * 19, dtype=np.uint64))
# half of 10**r, the least remainder that rounds up once r digits are
# removed; none where no digit is
_HALF = np.concatenate([[_U(1 << 63)], _POW10[:-1] * _U(5)])
_FIXED = range(-4, 16)  # the decimal exponents written positionally
_EXPONENTS = 400  # the tables below cover decimal exponents -400 to 399
# 5**0 .. 5**21: where q <= 21, a scaled value is an integer if 5**q divides it
_POW5 = np.cumprod(np.array([1] + [5] * 21, dtype=np.uint64))


def _ryu_tables() -> dict[str, np.ndarray]:
    """Per biased binary exponent: Ryu's multiplier as four 32-bit limbs,
    it and its double as two words each, the shift of its products (less 64,
    and 128 less it), e10, q (stored as ``-1 - q`` where e2 < 0) and the bits
    below 2**q."""
    pow5 = [1]  # products, not powers: the package takes no ``**``
    for _ in range(342):
        pow5.append(pow5[-1] * 5)
    multipliers, shifts, e10s, qs = bytearray(), [], [], []
    for biased in range(2048):
        e2 = max(biased, 1) - 1077  # the exponent of 4 * m2, the bounds' scale
        if e2 >= 0:
            q = ((e2 * 78913) >> 18) - (e2 > 3)  # floor(log10(2**e2)), less one past 3
            bits = pow5[q].bit_length()
            multiplier = (1 << (bits + 124)) // pow5[q] + 1  # 2**k / 5**q, rounded up
            shift, e10 = bits + 124 + q - e2, q
        else:
            q = ((-e2 * 732923) >> 20) - (-e2 > 1)  # floor(log10(5**-e2)), less one past 1
            power = pow5[-e2 - q]
            bits = power.bit_length()
            multiplier = power >> (bits - 125) if bits >= 125 else power << (125 - bits)
            shift, e10, q = q - bits + 125, q + e2, -1 - q
        multipliers += multiplier.to_bytes(16, "little")
        shifts.append(shift)
        e10s.append(e10)
        qs.append(q)
    lo, hi = np.frombuffer(multipliers, dtype="<u8").reshape(-1, 2).T.astype(np.uint64)
    shift = np.array(shifts, dtype=np.uint64)
    q = np.array(qs, dtype=np.int64)
    # below zero, for 1 < q < 63, the scaled value is an integer where 4 * m2
    # has no bit under 2**q set; elsewhere q decides (see _shortest)
    middle = (q < -2) & (q > -64)
    return {"limbs": np.frombuffer(multipliers, dtype="<u4").reshape(-1, 4).T.astype(np.uint64),
            # the double is below 2**127
            "multiplier": np.stack([lo, hi, lo << _U(1), (hi << _U(1)) | (lo >> _U(63))]),
            "shift": np.stack([shift - _U(64), _U(128) - shift]),
            "below_q": np.where(middle, (_U(1) << np.where(middle, -1 - q, 0).astype(np.uint64))
                                - _U(1), _U((1 << 64) - 1)),
            "e10": np.array(e10s, dtype=np.int64), "q": q}


def _text_tables() -> dict[str, np.ndarray]:
    """Per decimal exponent its text class and suffix; per text class the
    characters its digits move by and, per word, its byte masks."""
    exponents = np.arange(-_EXPONENTS, _EXPONENTS)
    fixed = (exponents >= _FIXED[0]) & (exponents <= _FIXED[-1])
    # per text class: the characters its digits move by, where its suffix
    # starts, its length, and the role of each character
    moves, starts, lengths, roles = zip(*[_class(kind, count)
                                          for kind in range(len(_FIXED) + 2)
                                          for count in range(1, 18)])
    roles = b"".join(roles)
    masks = [np.frombuffer(roles.translate(table), dtype="<u8").reshape(-1, 3)
             for table in (_KEPT, _CONSTANT, _MOVED)]
    masks.append(np.frombuffer(b"".join(b"\0" * length + b"\xff" * (24 - length)
                                        for length in lengths), dtype="<u8").reshape(-1, 3))
    offsets = np.array(starts)[:, None] - 8 * np.arange(3)
    left = np.where(offsets >= 0, 8 * offsets, 64).astype(np.uint64)
    right = np.where(offsets >= 0, 64, -8 * offsets).astype(np.uint64)
    move = np.array(moves, dtype=np.uint64) * _U(8)
    return {"kind": np.where(fixed, exponents - _FIXED[0],
                             len(_FIXED) + (np.abs(exponents) >= 100)),
            "suffix": np.array([int.from_bytes(b"e%+03d" % e, "little")
                                for e in exponents.tolist()], dtype=np.uint64),
            # per mask, word and class: kept digits, constant characters and
            # padding, moved digits, and the suffix's two shifts
            "masks": np.stack([masks[0], masks[1] | masks[3], masks[2], left, right],
                              dtype=np.uint64).transpose(0, 2, 1).copy(),
            "moves": np.stack([move, _U(64) - move])}


# what a character role of a text class puts in each mask: a digit kept in
# place ("g"), a constant character, a moved digit ("m")
_KEPT, _CONSTANT, _MOVED = (bytes.maketrans(source, target) for source, target in (
    (b"gm.0 ", b"\xff\0\0\0\0"), (b"gm.0 ", b"\0\0.0\0"), (b"gm.0 ", b"\0\xff\0\0\0")))


def _class(kind: int, count: int) -> tuple[int, int, int, bytes]:
    """A text class of ``count`` digits: the characters its digits move by
    past the first, where its suffix starts, its length and each character's
    role ("g" a digit in place, "m" a moved digit, a constant, or " "
    otherwise). ``kind`` is the decimal exponent's place in ``_FIXED``, or
    ``len(_FIXED)`` for an exponent of two digits and one more for one of
    three."""
    if kind < len(_FIXED):
        exponent, move, start = _FIXED[kind], 1, 24
        if exponent >= 0:  # the point after the exponent + 1st digit, "0"s up to it
            roles = b"g" * (exponent + 1) + b"." + b"m" * max(count - exponent - 1, 1)
        else:  # "0.000" before the digits
            move = 1 - exponent
            roles = b"0." + b"0" * (move - 2) + b"m" * count
        length = len(roles)
    else:  # "d.ddde+XX"
        move, roles = 1, b"g" + (b"." + b"m" * (count - 1) if count > 1 else b"")
        start = len(roles)
        length = start + 4 + (kind > len(_FIXED))
    return move, start, length, roles.ljust(24)


_RYU = _ryu_tables()
_TEXT = _text_tables()


def _product(mv: np.ndarray, biased: np.ndarray) -> list[np.ndarray]:
    """``mv * multiplier`` as three words, low to high, summed in columns of
    32 bits from the products of the halves of ``mv`` and of the
    multiplier's four limbs."""
    b0, b1 = mv & _LOW32, mv >> _U(32)
    limb = _RYU["limbs"][0].take(biased)
    low = b0 * limb
    column = low & _LOW32
    columns = [column]
    for k in range(1, 5):
        # the high half of the last low product, the last high product, and
        # the carry out of the last column; then this low product's low half
        column = (low >> _U(32)) + b1 * limb + (column >> _U(32))
        if k < 4:
            limb = _RYU["limbs"][k].take(biased)
            low = b0 * limb
            column += low & _LOW32
        columns.append(column)
    return [columns[0] | (columns[1] << _U(32)),
            (columns[2] & _LOW32) | (columns[3] << _U(32)), columns[4]]


def _scaled(mv: np.ndarray, biased: np.ndarray, whole: np.ndarray) -> list[np.ndarray]:
    """``floor((mv + k) * multiplier / 2**shift)`` for k = 0, 2 and -2 where
    ``whole`` (else -1): the value and its upper and lower bound. The multiplier
    or its double is added to or taken from the 181-bit product's words."""
    words = _product(mv, biased)
    right, left = _RYU["shift"].take(biased, axis=1)
    # the multiplier's words, then its double's: row 2 * k + i of the table
    multiplier = _RYU["multiplier"].ravel()
    out = [(words[1] >> right) | (words[2] << left)]
    # + 2 * multiplier
    first = words[0] + multiplier.take(biased + 2 * 2048)
    second = words[1] + multiplier.take(biased + 3 * 2048)
    carry = (second < words[1]).astype(np.uint64)
    second += (first < words[0]).astype(np.uint64)
    carry |= (second == 0) & (first < words[0])
    out.append((second >> right) | ((words[2] + carry) << left))
    # - multiplier or its double
    biased = biased + (whole << 12)
    borrow = (words[0] < multiplier.take(biased)).astype(np.uint64)
    high = multiplier.take(biased + 2048)
    second = words[1] - high
    carry = (words[1] < high) | (second < borrow)
    second -= borrow
    out.append((second >> right) | ((words[2] - carry.astype(np.uint64)) << left))
    return out


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest digits (as an integer) and their decimal exponent for
    each finite, normal, nonzero float64 bit pattern."""
    biased = (bits >> _U(52)).astype(np.intp) & 0x7FF
    fraction = bits & _FRACTION
    mv = (fraction | _U(1 << 52)) << _U(2)
    # whether the lower bound is a whole step below, as the upper one is
    # above: it is half a step at a power of two, but at the smallest exponent
    whole = (fraction != 0) | (biased == 1)
    vr, vp, vm = _scaled(mv, biased, whole)
    even = (fraction & _U(1)) == 0  # the bounds read back as the double: round-half-even
    # whether the scaled value (vr_exact) and lower bound (vm_exact, where it
    # is in the interval) are integers; an upper bound that is an integer
    # outside the interval is stepped back
    vr_exact = (mv & _RYU["below_q"][biased]) == 0
    vm_exact = np.zeros(len(bits), dtype=bool)
    q = _RYU["q"][biased]
    small = np.flatnonzero((q <= 21) & (q >= -2))  # 0 <= q <= 21, or q <= 1 below zero
    if small.size:
        qs, mvs, evens = q[small], mv[small], even[small]
        positive = qs >= 0
        five = _POW5[np.maximum(qs, 0)]
        by_five = (mvs % _U(5)) == 0
        # below zero every scaled bound is exact, and the lower one an
        # integer where it is a whole step below
        lower = mvs - _U(1) - whole[small].astype(np.uint64)
        exact_low = np.where(positive, ~by_five & (lower % five == 0), whole[small])
        exact_high = ~positive | (~by_five & ((mvs + _U(2)) % five == 0))
        vr_exact[small] = ~positive | (mvs % five == 0)
        vm_exact[small] = evens & exact_low
        vp[small] -= (~evens & exact_high).astype(np.uint64)
    # the digits removed: the most that leave a multiple of 10**removed in
    # (vm, vp], or in [vm, vp] where vm is exact
    removed = _digit_count(vp - vm) - 1
    scale = _POW10[removed + 1]
    grows = (vp // scale) * scale > vm
    removed += grows
    active = np.flatnonzero(grows)
    while active.size:
        scale = _POW10[removed[active] + 1]
        active = active[(vp[active] // scale) * scale > vm[active]]
        removed[active] += 1
    active = np.flatnonzero(vm_exact)
    while active.size:
        active = active[vm[active] % _POW10[removed[active] + 1] == 0]
        removed[active] += 1
    scale = _POW10[removed]
    digits = vr // scale
    rounded = digits * scale
    rest, half = vr - rounded, _HALF[removed]
    # round half up, but an exact tie to the even digit; and up from a
    # value the lower bound excludes
    up = (rest >= half) & ~(vr_exact & (rest == half) & ((digits & _U(1)) == 0))
    up |= (rounded < vm) | ((rounded == vm) & ~vm_exact)
    digits += up
    return digits, _RYU["e10"][biased] + removed


def _digit_count(value: np.ndarray) -> np.ndarray:
    """The number of decimal digits of each ``value`` from 1 to below 2**57.
    Its double's binary exponent e gives t = floor(e * log10(2)), and
    10**t <= value < 10**(t + 2): a double rounds value only where it is
    above 2**53, and no power of ten lies within that rounding of a power of
    two."""
    exponent = (value.astype(np.float64).view(np.uint64) >> _U(52)) - _U(1023)
    t = ((exponent * _U(1233)) >> _U(12)).astype(np.intp)
    return t + 1 + (value >= _POW10[t + 1])


def _characters(value: np.ndarray) -> np.ndarray:
    """The eight decimal characters of each ``value`` below 10**8, as the
    bytes of a little-endian word."""
    lanes = (value // _U(10000)) | ((value % _U(10000)) << _U(32))
    hundreds = ((lanes * _U(5243)) >> _U(19)) & _U(0x0000007F0000007F)
    lanes = hundreds | ((lanes - hundreds * _U(100)) << _U(16))
    tens = ((lanes * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)
    return (tens | ((lanes - tens * _U(10)) << _U(8))) | _ZEROS


def _digit_words(digits: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ``count`` digits of ``digits`` as characters left-aligned in 17
    places, as three words (rows) a value: a leading digit, then two words
    of eight."""
    aligned = digits * _POW10[17 - count]
    lead = aligned // _POW10[16]
    aligned -= lead * _POW10[16]
    halves = np.empty((2, len(digits)), dtype=np.uint64)
    np.divmod(aligned, _POW10[8], out=(halves[0], halves[1]))
    high, low = _characters(halves)
    words = np.empty((3, len(digits)), dtype=np.uint64)
    words[0] = (lead | _U(0x30)) | (high << _U(8))
    words[1] = (high >> _U(56)) | (low << _U(8))
    words[2] = (low >> _U(56)) | (_ZEROS << _U(8))
    return words


def _layout(digits: np.ndarray, e10: np.ndarray) -> np.ndarray:
    """The text of ``digits * 10**e10`` unsigned, as three words (rows) a
    value padded with PAD."""
    count = _digit_count(digits)
    exponent = e10 + count + (_EXPONENTS - 1)  # its index in the tables
    key = _TEXT["kind"][exponent] * 17 + count - 1
    suffix = _TEXT["suffix"][exponent]
    words = _digit_words(digits, count)
    kept, constant, moved, left, right = _TEXT["masks"]
    move, back = _TEXT["moves"].take(key, axis=1)
    # each word's digits moved by ``move`` characters, the first ones from
    # the word before
    shifted = words << move
    shifted[1:] |= words[:-1] >> back
    shifted &= moved.take(key, axis=1)
    words &= kept.take(key, axis=1)
    words |= shifted
    words |= constant.take(key, axis=1)
    words |= suffix << left.take(key, axis=1)
    words |= suffix >> right.take(key, axis=1)
    return words


def encode(values: np.ndarray) -> np.ndarray:
    """Each value's text as a row of ``WIDTH`` bytes: a ``-`` or PAD, then
    the characters, padded with PAD. The rows are a view of words."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    bits = x.view(np.uint64)
    biased = (bits >> _U(52)) & _U(0x7FF)
    normal = (biased != 0) & (biased != _U(0x7FF))
    words = np.empty((len(x), 4), dtype="<u8")
    # seven PAD characters, then the sign's
    words[:, 0] = np.where(bits >> _U(63), _U(0x2DFFFFFFFFFFFFFF), _U((1 << 64) - 1))
    if normal.all():
        words[:, 1:] = _layout(*_shortest(bits)).T
    elif normal.any():
        words[normal, 1:] = _layout(*_shortest(bits[normal])).T
    rows = words.view(np.uint8)[:, 32 - WIDTH:]
    others = np.flatnonzero(~normal)
    if others.size:
        spelled = [b"\xff" + repr(value).encode() for value in x[others].tolist()]
        rows[others] = np.frombuffer(b"".join(text.ljust(WIDTH, b"\xff") for text in spelled),
                                     dtype=np.uint8).reshape(-1, WIDTH)
    return rows

