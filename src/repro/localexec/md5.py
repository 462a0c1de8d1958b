"""MD5 (RFC 1321) of a whole column of messages in one vectorised pass.

``hashlib`` pays a constructor per digest; here the 64 steps of a block
run once per *column*, each as ~10 in-place ``uint32`` ufunc calls over
all rows, so the fixed cost is per call, not per record.  A message
word every row shares (a text's head, the zero padding, the bit length)
is a scalar folded into its step's constant, so only the words that vary
by row are padded and transposed: 4 of 16 for a 14- or 16-byte value,
none in the second block of a 64-byte one.  Numpy only;
:func:`repro.localexec.records._digests` picks between this and the
``hashlib`` loop — the oracle this module is tested against, byte for
byte — by batch size.
"""

from __future__ import annotations

import math

import numpy as np

_INIT = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)
_K = [int(abs(math.sin(i + 1)) * 2 ** 32) for i in range(64)]
_SHIFT = ([7, 12, 17, 22] * 4 + [5, 9, 14, 20] * 4
          + [4, 11, 16, 23] * 4 + [6, 10, 15, 21] * 4)
_WORD = ([i for i in range(16)] + [(5 * i + 1) % 16 for i in range(16)]
         + [(3 * i + 5) % 16 for i in range(16)]
         + [(7 * i) % 16 for i in range(16)])

#: rows digested per pass: long enough to amortise a pass's ~600 ufunc
#: calls, short enough to keep the working arrays (four registers, two
#: scratch, the varying words) in cache — ``tools/md5_crossover.py
#: --passes`` sweeps it
_CHUNK = 16384
#: longest ``head`` of :func:`md5_text`: head + 20 digits + the 0x80
#: marker must leave the block's last 8 bytes to the bit length
TEXT_HEAD_MAX = 35


def n_blocks(length: int) -> int:
    """64-byte blocks a ``length``-byte message pads to."""
    return (length + 8) // 64 + 1


def _compress(n: int, words: list) -> np.ndarray:
    """Digests of ``n`` padded messages given as their little-endian
    message words, 16 per 64-byte block: ``uint32[n]`` columns, or ints
    where a word is the same in every row.  Consumes ``words``: a
    block's columns are let go once the block is done, so a pass holds
    one block's columns and the registers, never more."""
    state = list(_INIT)  # ints until the first block is added to them
    f, t = np.empty(n, np.uint32), np.empty(n, np.uint32)
    for block in range(0, len(words), 16):
        a, b, c, d = (np.full(n, word, np.uint32) if isinstance(word, int)
                      else word.copy() for word in state)
        for i in range(64):
            if i < 16:    # d ^ (b & (c ^ d))
                np.bitwise_xor(c, d, out=f)
                np.bitwise_and(f, b, out=f)
                np.bitwise_xor(f, d, out=f)
            elif i < 32:  # c ^ (d & (b ^ c))
                np.bitwise_xor(b, c, out=f)
                np.bitwise_and(f, d, out=f)
                np.bitwise_xor(f, c, out=f)
            elif i < 48:  # b ^ c ^ d
                np.bitwise_xor(b, c, out=f)
                np.bitwise_xor(f, d, out=f)
            else:         # c ^ (b | ~d)
                np.invert(d, out=f)
                np.bitwise_or(f, b, out=f)
                np.bitwise_xor(f, c, out=f)
            np.add(f, a, out=f)
            word, constant = words[block + _WORD[i]], _K[i]
            if isinstance(word, np.ndarray):
                np.add(f, word, out=f)
            else:
                constant += word
            np.add(f, np.uint32(constant & 0xFFFFFFFF), out=f)
            np.right_shift(f, 32 - _SHIFT[i], out=t)
            np.left_shift(f, _SHIFT[i], out=f)
            np.bitwise_or(f, t, out=f)
            np.add(f, b, out=f)
            a, b, c, d, f = d, f, b, c, a  # old ``a`` is the next scratch
        for word, register in zip(state, (a, b, c, d)):
            register += word
        state = [a, b, c, d]
        words[block:block + 16] = [None] * 16
    return np.stack(state, axis=1).astype("<u4", copy=False).view(np.uint8)


def _digest_chunks(column: np.ndarray, words, tick) -> np.ndarray:
    """``_compress(n, words(chunk))`` over ``column`` in equal passes of
    about ``_CHUNK`` rows (a short last pass would pay the kernel's whole
    per-call cost for a few rows), ``tick()`` before each."""
    out = np.empty((len(column), 16), np.uint8)
    step = -(-len(column) // max(1, round(len(column) / _CHUNK)))
    for lo in range(0, len(column), max(1, step)):
        if tick is not None:
            tick()
        chunk = column[lo:lo + step]
        out[lo:lo + step] = _compress(len(chunk), words(chunk))
    return out


def _columns(padded: np.ndarray) -> list:
    """The little-endian words of an ``n x 4k`` byte matrix — each row
    contiguous, the rows at any stride — one contiguous ``uint32[n]``
    column each."""
    return list(np.ascontiguousarray(padded.view("<u4").T, dtype=np.uint32))


def md5_rows(values: np.ndarray, tick=None) -> np.ndarray:
    """MD5 of every row of a ``uint8[n, L]`` matrix as ``uint8[n, 16]``;
    ``tick``, if given, is called before every pass and may raise."""
    length = values.shape[1]
    width = -(-length // 4) * 4  # the words that hold message bytes
    # behind them every row pads alike: zeros and the bit length
    tail = [0] * (16 * n_blocks(length) - width // 4)
    tail[-2:] = 8 * length & 0xFFFFFFFF, 8 * length >> 32
    if width == length:  # the 0x80 marker is a word of its own
        tail[0] = 0x80

    def words(chunk: np.ndarray) -> list:
        if width == length and chunk.strides[1] == 1:  # 16 B, 64 B rows:
            return _columns(chunk) + tail  # no padded copy to fill
        padded = np.zeros((len(chunk), width), np.uint8)
        padded[:, :length] = chunk
        padded[:, length:length + 1] = 0x80  # ... or shares the last word
        return _columns(padded) + tail

    return _digest_chunks(values, words, tick)


def _digit_words() -> np.ndarray:
    """``b"%04d" % i`` for every ``i < 10 000`` as one little-endian
    ``uint32``: a table lookup writes four digits of a text."""
    return np.frombuffer(b"".join(b"%04d" % i for i in range(10000)), "<u4")


_DIGITS = _digit_words()


def _digit_counts(numbers: np.ndarray) -> np.ndarray:
    """The decimal digit count of every number of a ``uint64`` column as
    ``uint8``: one comparison per count between the column's least and
    its greatest."""
    low = len(b"%d" % numbers.min())
    counts = np.full(len(numbers), low, np.uint8)
    for digits in range(low, len(b"%d" % numbers.max())):
        counts += numbers >= np.uint64(10 ** digits)
    return counts


def _place(numbers: np.ndarray, shift: np.ndarray, mark: int, groups: int,
           out: np.ndarray) -> None:
    """Write the texts of ``numbers`` into ``out``: row ``w`` is message
    word ``w`` counted from the one the head ends in, one column per text
    (the head's bytes left zero).  Every text's 0x80 marker falls into
    word ``mark``, its row's ``shift`` bits in, and has at most
    ``groups`` times four digits.  The table gives the digits as whole
    words, four at a time, most significant first and padded with ``0``s
    in front; a text is those words funnel-shifted by its ``shift``, the
    marker the byte behind its last digit."""
    digits = np.empty(len(numbers), np.intp)
    word = np.empty(len(numbers), np.uint32)
    back = 32 - shift
    out[mark:] = 0
    top = mark + 1 - groups  # the word the first group ends in
    for row in range(mark, top - 1, -1):  # four digits a word, units first
        if row > top:
            quotient = numbers // 10000
            np.subtract(numbers, quotient * 10000, out=digits.view(np.uint64))
            numbers = quotient
        else:
            digits[:] = numbers
        # ``clip``: a row whose marker is in another word is written over
        # by the caller
        np.take(_DIGITS, digits, out=word, mode="clip")
        out[row] |= word >> back
        if row:
            np.left_shift(word, shift, out=out[row - 1])
    out[mark] |= np.left_shift(np.uint32(0x80), shift)


def md5_text(head: bytes, numbers: np.ndarray, tick=None) -> np.ndarray:
    """MD5 of ``head + b"%d" % number`` for every number of a ``uint64``
    column (``len(head) <= TEXT_HEAD_MAX``: always one block); ``tick``
    as in :func:`md5_rows`."""
    lo, at = divmod(len(head), 4)  # head words ahead of ``lo``: constants
    constant = np.frombuffer(head[:4 * lo], "<u4").tolist()
    partial = int.from_bytes(head[4 * lo:], "little")
    keep = ~((1 << 8 * at) - 1) & 0xFFFFFFFF  # word ``lo`` less the head

    def words(chunk: np.ndarray) -> list:
        counts = _digit_counts(chunk)
        ends = counts + np.uint8(at)  # the marker's byte from word ``lo``
        marks, shift = ends >> 2, (ends & 3).astype(np.uint32) << 3
        present = range(int(marks.min()), int(marks.max()) + 1)
        # the groups of four digits of the longest text of each marker word
        longest = int(counts.max())
        groups = {mark: -(-min(4 * mark + 3 - at, longest) // 4)
                  for mark in present}
        varying = np.empty((present[-1] + 1, len(chunk)), np.uint32)
        sizes = [np.count_nonzero(marks == mark) for mark in present]
        most = present[int(np.argmax(sizes))]
        # the commonest marker word over whole columns first, then the
        # rows of every other one over it
        _place(chunk, shift, most, groups[most], varying)
        for mark, size in zip(present, sizes):
            if size and mark != most:
                rows = np.flatnonzero(marks == mark)
                out = np.empty((len(varying), size), np.uint32)
                _place(chunk[rows], shift[rows], mark, groups[mark], out)
                varying[:, rows] = out
        varying[0] &= np.uint32(keep)
        varying[0] |= np.uint32(partial)
        bits = (counts + np.uint32(len(head))) << 3
        return (constant + list(varying) + [0] * (14 - lo - len(varying))
                + [bits, 0])

    return _digest_chunks(numbers, words, tick)
