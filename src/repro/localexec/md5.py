"""MD5 (RFC 1321) of a whole column of messages in one vectorised pass.

``hashlib`` pays a constructor per digest; here the 64 steps of a block
run once per *column*, each as ~10 in-place ``uint32`` ufunc calls over
all rows, so the fixed cost is per call, not per record.  Numpy only;
:func:`repro.localexec.records._digests` picks between this and the
``hashlib`` loop — the oracle this module is tested against, byte for
byte — by batch size.
"""

from __future__ import annotations

import math

import numpy as np

_INIT = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)
_K = np.array([int(abs(math.sin(i + 1)) * 2 ** 32) for i in range(64)],
              np.uint32)
_SHIFT = ([7, 12, 17, 22] * 4 + [5, 9, 14, 20] * 4
          + [4, 11, 16, 23] * 4 + [6, 10, 15, 21] * 4)
_WORD = ([i for i in range(16)] + [(5 * i + 1) % 16 for i in range(16)]
         + [(3 * i + 5) % 16 for i in range(16)]
         + [(7 * i) % 16 for i in range(16)])

#: rows digested per pass: bounds the scratch (two padded copies of the
#: chunk's messages) and keeps the working arrays cache-sized
_CHUNK = 8192
#: longest ``head`` of :func:`md5_text`: head + 20 digits + the 0x80
#: marker must leave the block's last 8 bytes to the bit length
TEXT_HEAD_MAX = 35


def n_blocks(length: int) -> int:
    """64-byte blocks a ``length``-byte message pads to."""
    return (length + 8) // 64 + 1


def _compress(padded: np.ndarray) -> np.ndarray:
    """Digests of ``n`` padded messages (``uint8[n, 64 * blocks]``)."""
    n = len(padded)
    words = np.ascontiguousarray(  # (blocks, 16, n): one row per word
        padded.view("<u4").reshape(n, -1, 16).transpose(1, 2, 0),
        dtype=np.uint32)
    state = [np.full(n, word, np.uint32) for word in _INIT]
    f, t = np.empty(n, np.uint32), np.empty(n, np.uint32)
    for block in words:
        a, b, c, d = (word.copy() for word in state)
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
            np.add(f, block[_WORD[i]], out=f)
            np.add(f, _K[i], out=f)
            np.right_shift(f, 32 - _SHIFT[i], out=t)
            np.left_shift(f, _SHIFT[i], out=f)
            np.bitwise_or(f, t, out=f)
            np.add(f, b, out=f)
            a, b, c, d, f = d, f, b, c, a  # old ``a`` is the next scratch
        for word, register in zip(state, (a, b, c, d)):
            word += register
    return np.stack(state, axis=1).astype("<u4", copy=False).view(np.uint8)


def _digest_chunks(column: np.ndarray, pad) -> np.ndarray:
    """``_compress(pad(chunk))`` over ``column``, ``_CHUNK`` rows a pass."""
    out = np.empty((len(column), 16), np.uint8)
    for lo in range(0, len(column), _CHUNK):
        out[lo:lo + _CHUNK] = _compress(pad(column[lo:lo + _CHUNK]))
    return out


def md5_rows(values: np.ndarray) -> np.ndarray:
    """MD5 of every row of a ``uint8[n, L]`` matrix as ``uint8[n, 16]``."""
    length = values.shape[1]
    bits = np.frombuffer((8 * length).to_bytes(8, "little"), np.uint8)

    def pad(chunk: np.ndarray) -> np.ndarray:
        padded = np.zeros((len(chunk), 64 * n_blocks(length)), np.uint8)
        padded[:, :length] = chunk
        padded[:, length] = 0x80
        padded[:, -8:] = bits
        return padded

    return _digest_chunks(values, pad)


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


def md5_text(head: bytes, numbers: np.ndarray) -> np.ndarray:
    """MD5 of ``head + b"%d" % number`` for every number of a ``uint64``
    column (``len(head) <= TEXT_HEAD_MAX``: always one block)."""
    at = len(head)

    def pad(chunk: np.ndarray) -> np.ndarray:
        padded = np.zeros((len(chunk), 64), np.uint8)
        padded[:, :at] = np.frombuffer(head, np.uint8)
        end = at + _decimal(chunk, padded[:, at:at + 20])
        padded[np.arange(len(chunk)), end] = 0x80
        padded[:, 56] = end * 8 & 0xFF  # bit length: <= 440, two bytes
        padded[:, 57] = end * 8 >> 8
        return padded

    return _digest_chunks(numbers, pad)
