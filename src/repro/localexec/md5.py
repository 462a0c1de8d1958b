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


_E8, _E16 = np.uint64(10 ** 8), np.uint64(10 ** 16)
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)


def _decimal(numbers: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the decimal text of a ``uint64`` column left-justified into
    the zeroed ``uint8[n, 20]`` block ``out``; returns the digit counts.
    ``astype("S20")`` formats row by row; this peels one digit off the
    whole column at a time."""
    n = len(numbers)
    high = numbers // _E16  # 4 digits, then two 8-digit chunks: all uint32
    rest = numbers - high * _E16
    mid = rest // _E8
    chunks = ((rest - mid * _E8, 8), (mid, 8), (high, 4))
    right = np.empty((20, n), np.uint8)  # one row per digit, units last
    quotient, tens = np.empty(n, np.uint32), np.empty(n, np.uint32)
    row = 20
    for chunk, width in chunks:
        chunk = chunk.astype(np.uint32)
        for _ in range(width):
            row -= 1
            np.floor_divide(chunk, 10, out=quotient)
            np.multiply(quotient, 10, out=tens)
            np.subtract(chunk, tens, out=right[row], casting="unsafe")
            chunk, quotient = quotient, chunk
    right += ord("0")
    counts = np.searchsorted(_POW10, numbers, side="right") + 1
    for length in np.flatnonzero(np.bincount(counts, minlength=21)):
        rows = np.flatnonzero(counts == length)
        out[rows, :length] = right[20 - length:, rows].T
    return counts


def md5_text(head: bytes, numbers: np.ndarray, tick=None) -> np.ndarray:
    """MD5 of ``head + b"%d" % number`` for every number of a ``uint64``
    column (``len(head) <= TEXT_HEAD_MAX``: always one block); ``tick``
    as in :func:`md5_rows`."""
    at = len(head)
    lo = at // 4  # words before it are all head: the same in every row
    constant = np.frombuffer(head[:4 * lo], "<u4").tolist()
    rest = np.frombuffer(head[4 * lo:], np.uint8)

    def words(chunk: np.ndarray) -> list:
        padded = np.zeros((len(chunk), 24), np.uint8)
        padded[:, :len(rest)] = rest
        end = len(rest) + _decimal(chunk, padded[:, len(rest):len(rest) + 20])
        padded[np.arange(len(chunk)), end] = 0x80
        # words past the longest text of the chunk are zero in every row
        varying = _columns(padded[:, :4 * (int(end.max(initial=0)) // 4 + 1)])
        bits = ((end + 4 * lo) * 8).astype(np.uint32)
        return (constant + varying + [0] * (14 - lo - len(varying))
                + [bits, 0])

    return _digest_chunks(numbers, words, tick)
