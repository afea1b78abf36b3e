"""Modular exponentiation in the libcrypto CPython already loads.

Every exponentiation of :mod:`repro.crypto` runs in the libcrypto ``hashlib``
links (``ctypes.CDLL(_hashlib.__file__)``, resolved on first use), or is
``pow`` where a symbol is missing; either way keys and signatures are identical.

Each ``(modulus, exponent)`` is prepared once, as BIGNUMs and a Montgomery
context, in a table of the :data:`TABLE_BOUND` most recently used.  An evicted
entry is cleared (``BN_clear_free``, ``BN_MONT_CTX_free``: CRT entries hold p,
q, dp and dq) once no call holds it.  The ``BN_CTX``, operand, result and output
buffer are per thread, as ctypes releases the GIL around each call; the table
lock is never held across a libcrypto call.  Keys hold no handle: they pickle.
"""

import ctypes
import functools
import os
import threading
from collections import OrderedDict

from repro.errors import CryptoError

_POINTER = ctypes.c_void_p

#: Prepared exponentiations kept; a key uses three (two CRT halves and e).
TABLE_BOUND = 256

#: name -> (restype, argtypes) of every libcrypto function called here.
_DECLARATIONS = {
    "BN_CTX_new": (_POINTER, []),
    "BN_CTX_free": (None, [_POINTER]),
    "BN_new": (_POINTER, []),
    "BN_clear_free": (None, [_POINTER]),
    "BN_bin2bn": (_POINTER, [ctypes.c_char_p, ctypes.c_int, _POINTER]),
    "BN_bn2binpad": (ctypes.c_int, [_POINTER, ctypes.c_char_p, ctypes.c_int]),
    "BN_MONT_CTX_new": (_POINTER, []),
    "BN_MONT_CTX_set": (ctypes.c_int, [_POINTER] * 3),  # mont, m, ctx
    "BN_MONT_CTX_free": (None, [_POINTER]),
    "BN_mod_exp_mont": (ctypes.c_int, [_POINTER] * 6),  # r, a, p, m, ctx, mont
    "BN_mod_exp_mont_consttime": (ctypes.c_int, [_POINTER] * 6),
}

_table: OrderedDict = OrderedDict()  # (modulus, exponent) -> _prepared(...)
_table_lock = threading.Lock()
_local = threading.local()
# A fork taken while another thread holds the lock must not leave it held.
os.register_at_fork(after_in_child=lambda: globals().update(_table_lock=threading.Lock()))


@functools.cache
def _libcrypto():
    """``_hashlib``'s libcrypto with its calls declared, or ``None`` if missing."""
    try:
        import _hashlib
        library = ctypes.CDLL(_hashlib.__file__)
        for name, (restype, argtypes) in _DECLARATIONS.items():
            function = getattr(library, name)
            function.restype, function.argtypes = restype, argtypes
    except (ImportError, OSError, AttributeError):
        return None
    return library


class _Owner(list):
    """libcrypto objects, each released by its own call once this is collected."""

    def own(self, pointer, release):
        if not pointer:
            raise CryptoError("libcrypto could not allocate")
        self.append((release, pointer))
        return _POINTER(pointer)

    def __del__(self):
        for release, pointer in self:
            release(pointer)


def _scratch(library):
    """A new ``(BN_CTX, operand, result, {width: buffer}, owner)`` for this thread."""
    owner = _Owner()
    _local.scratch = (owner.own(library.BN_CTX_new(), library.BN_CTX_free),
                      *(owner.own(library.BN_new(), library.BN_clear_free) for _ in range(2)),
                      {}, owner)
    return _local.scratch


def _prepared(library, exponent, modulus, context):
    """``(width, exponentiate, exponent, modulus, mont, owner)`` from the table."""
    key = (modulus, exponent)
    with _table_lock:
        entry = _table.get(key)
        if entry is not None:
            _table.move_to_end(key)
            return entry
    owner, width = _Owner(), (modulus.bit_length() + 7) // 8
    numbers = [owner.own(library.BN_bin2bn(raw, len(raw), None), library.BN_clear_free)
               for raw in (exponent.to_bytes(max(1, (exponent.bit_length() + 7) // 8), "big"),
                           modulus.to_bytes(width, "big"))]
    mont = owner.own(library.BN_MONT_CTX_new(), library.BN_MONT_CTX_free)
    if library.BN_MONT_CTX_set(mont, numbers[1], context) != 1:
        raise CryptoError("libcrypto BN_MONT_CTX_set failed")
    # A short exponent is public (RSA's e) and takes the variable-time ladder,
    # as OpenSSL's RSA does; secret ones are as long as their modulus.
    prepared = (width, library.BN_mod_exp_mont if exponent.bit_length() <= 64
                else library.BN_mod_exp_mont_consttime, *numbers, mont, owner)
    evicted = []
    with _table_lock:
        entry = _table.setdefault(key, prepared)
        while len(_table) > TABLE_BOUND:
            evicted.append(_table.popitem(last=False))
    return entry  # evicted entries (and a racing loser) are released here, unlocked


def modexp(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)`` for an odd ``modulus`` > 1."""
    if modulus <= 1 or not modulus & 1:
        raise ValueError("modexp needs an odd modulus greater than 1")
    if exponent < 0:
        raise ValueError("modexp needs a non-negative exponent")
    base %= modulus
    library = _libcrypto()
    if library is None:
        return pow(base, exponent, modulus)
    context, operand, result, buffers, _ = getattr(_local, "scratch", None) or _scratch(library)
    width, exponentiate, *operands, mont, _ = _prepared(library, exponent, modulus, context)
    out = buffers.get(width) or buffers.setdefault(width, ctypes.create_string_buffer(width))
    if not (library.BN_bin2bn(base.to_bytes(width, "big"), width, operand)
            and exponentiate(result, operand, *operands, context, mont) == 1
            and library.BN_bn2binpad(result, out, width) == width):
        raise CryptoError("libcrypto modular exponentiation failed")
    return int.from_bytes(out.raw, "big")
