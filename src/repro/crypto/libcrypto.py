"""The OpenSSL ``libcrypto`` that CPython's ``hashlib`` already maps in.

RC4 (:mod:`repro.crypto.rc4`) and modular exponentiation
(:func:`repro.crypto.dh.modexp`) run here; the pure-Python RC4 and
builtin ``pow`` are their test oracles (``tests/crypto/oracles.py``).
The library is loaded once, by name, and each function used gets its C
signature.  There is no fallback: without ``libcrypto`` or one of the
symbols below, importing this module raises ``ImportError``.
"""

from __future__ import annotations

import ctypes
import ctypes.util
from ctypes import c_char_p, c_int, c_size_t, c_void_p

#: Bytes of an ``RC4_KEY`` buffer: two counters and 256 state words,
#: room for any ``RC4_INT`` width up to 8 bytes.
RC4_KEY_SIZE = 258 * 8

_name = ctypes.util.find_library("crypto")
if _name is None:
    raise ImportError("OpenSSL libcrypto not found "
                      "(ctypes.util.find_library('crypto') is None)")
try:
    _lib = ctypes.CDLL(_name)
except OSError as exc:
    raise ImportError(f"cannot load OpenSSL libcrypto {_name!r}: {exc}") from exc


def _bind(symbol: str, restype, *argtypes):
    try:
        fn = getattr(_lib, symbol)
    except AttributeError:
        raise ImportError(f"OpenSSL libcrypto {_name!r} has no {symbol}") from None
    fn.restype = restype
    fn.argtypes = argtypes
    return fn


RC4_set_key = _bind("RC4_set_key", None, c_char_p, c_int, c_char_p)
RC4 = _bind("RC4", None, c_char_p, c_size_t, c_char_p, c_char_p)
BN_CTX_new = _bind("BN_CTX_new", c_void_p)
BN_CTX_free = _bind("BN_CTX_free", None, c_void_p)
BN_new = _bind("BN_new", c_void_p)
BN_free = _bind("BN_free", None, c_void_p)
BN_bin2bn = _bind("BN_bin2bn", c_void_p, c_char_p, c_int, c_void_p)
BN_bn2binpad = _bind("BN_bn2binpad", c_int, c_void_p, c_char_p, c_int)
BN_mod_exp = _bind("BN_mod_exp", c_int,
                   c_void_p, c_void_p, c_void_p, c_void_p, c_void_p)
