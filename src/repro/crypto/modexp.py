"""Modular exponentiation in the libcrypto CPython already loads.

Every exponentiation of :mod:`repro.crypto` runs in the libcrypto ``hashlib``
links, resolved on first use through ``ctypes.CDLL(_hashlib.__file__)``:
nothing is searched for or compiled, and importing opens nothing.  Results
equal ``pow``'s, so keys, signatures and archives are byte-identical; where
``_hashlib`` or a symbol is missing, :func:`modexp` is ``pow``.
"""

from __future__ import annotations

import ctypes
import functools

from repro.errors import CryptoError

_POINTER = ctypes.c_void_p

#: name -> (restype, argtypes) of every libcrypto function called here.
_DECLARATIONS = {
    "BN_CTX_new": (_POINTER, []),
    "BN_CTX_free": (None, [_POINTER]),
    "BN_new": (_POINTER, []),
    "BN_clear_free": (None, [_POINTER]),
    "BN_bin2bn": (_POINTER, [ctypes.c_char_p, ctypes.c_int, _POINTER]),
    "BN_bn2binpad": (ctypes.c_int, [_POINTER, ctypes.c_char_p, ctypes.c_int]),
    "BN_mod_exp_mont": (ctypes.c_int, [_POINTER] * 6),  # r, a, p, m, ctx, mont
    "BN_mod_exp_mont_consttime": (ctypes.c_int, [_POINTER] * 6),
}


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
    width = (modulus.bit_length() + 7) // 8
    raw = (base.to_bytes(width, "big"),
           exponent.to_bytes(max(1, (exponent.bit_length() + 7) // 8), "big"),
           modulus.to_bytes(width, "big"))
    # A short exponent is public (RSA's e) and takes the variable-time ladder,
    # as OpenSSL's RSA does; secret ones are as long as their modulus.
    exponentiate = (library.BN_mod_exp_mont if exponent.bit_length() <= 64
                    else library.BN_mod_exp_mont_consttime)
    context = library.BN_CTX_new()
    numbers = [library.BN_new()] + [library.BN_bin2bn(b, len(b), None) for b in raw]
    try:
        if not (context and all(numbers)):
            raise CryptoError("libcrypto could not allocate a BIGNUM")
        result, *operands = numbers
        if exponentiate(result, *operands, context, None) != 1:
            raise CryptoError("libcrypto modular exponentiation failed")
        out = ctypes.create_string_buffer(width)
        if library.BN_bn2binpad(result, out, width) != width:
            raise CryptoError("libcrypto BN_bn2binpad failed")
        return int.from_bytes(out.raw, "big")
    finally:
        for number in numbers:  # cleared, not just freed: one may hold d
            library.BN_clear_free(number)  # a no-op on NULL, as is BN_CTX_free
        library.BN_CTX_free(context)
