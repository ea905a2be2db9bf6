"""Per-layer self time, measured by wrapping the program from outside.

:class:`Tracer` replaces the functions and methods defined in each
layer's modules with timing wrappers, wherever callers look them up:
class attributes, and every ``repro`` (or benchmark) module global bound
to the same function object, so a name imported with ``from x import f``
is wrapped too. Wrappers keep a span stack: a span's *self* time is its
duration minus the time of the spans it encloses, so the layers' self
times never count one interval twice and add up, with the untraced
remainder, to the traced wall time.

Not wrapped: dunder methods, properties, generator functions (their
body runs in the consumer, which is charged for it), and the tiny leaf
helpers in ``SKIP``. Every skipped helper is private to its module, so
its time lands in its own layer through the caller; skipping only saves
wrapper cost. Code outside every layer (``repro.core`` glue, ``repro.obs``
hooks, the benchmark's own trial code) is the untraced residual.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

__all__ = ["EXPECTED_EFFECT", "LAYERS", "NOT_MEASURED", "Tracer"]

#: Layer name -> module-name prefixes. Longest prefix wins.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim": ("repro.sim",),
    "radio": ("repro.radio",),
    "hosts": ("repro.hosts",),
    "dot11": ("repro.dot11",),
    "wire": ("repro.wire",),
    "netstack": ("repro.netstack",),
    "attacks": ("repro.attacks",),
    "httpsim": ("repro.httpsim",),
    "defense": ("repro.defense",),
    "rsn": ("repro.rsn",),
    "wids": ("repro.wids",),
    "crypto.fms": ("repro.crypto.fms", "repro.crypto.fms_fast"),
    "crypto.cipher": ("repro.crypto.rc4", "repro.crypto.wep",
                      "repro.crypto.crc", "repro.crypto.tkip"),
    "crypto.hash": ("repro.crypto.md5", "repro.crypto.sha1",
                    "repro.crypto.hmac", "repro.crypto.wpa_kdf"),
    "crypto.dh": ("repro.crypto.dh", "repro.crypto.keystore"),
}

#: The end-to-end metric each layer's numbers should move, and on which
#: workload, written down before any change claims a gain. A layer also
#: moves ``trial_s_p90`` where it serves the dearest trial kind: the
#: 104-bit searches of wep-crack, the VPN arm of download-mitm, the
#: naive and evasive worlds of rogue-hunt.
EXPECTED_EFFECT: Dict[str, str] = {
    "sim": "trials_per_s on download-mitm and rogue-hunt; none on wep-crack",
    "radio": "trials_per_s on download-mitm and rogue-hunt; none on "
             "wep-crack",
    "hosts": "trials_per_s on download-mitm",
    "dot11": "trials_per_s on rogue-hunt mostly, download-mitm less",
    "wire": "trials_per_s on rogue-hunt mostly, download-mitm less",
    "wids": "trials_per_s on rogue-hunt only",
    "rsn": "trials_per_s on rogue-hunt only",
    "netstack": "trials_per_s on download-mitm; rogue-hunt less; none on "
                "wep-crack",
    "attacks": "trials_per_s on download-mitm; rogue-hunt less",
    "httpsim": "trials_per_s on download-mitm; rogue-hunt less",
    "defense": "trials_per_s on download-mitm (VPN arm)",
    "crypto.fms": "trials_per_s on wep-crack (104-bit search); peak_rss_mb "
                  "if the search memoises",
    "crypto.cipher": "trials_per_s on wep-crack (sample collection, one "
                     "KSA per sample, bounds the 40-bit cells) and on "
                     "download-mitm (per-frame WEP, VPN records)",
    "crypto.hash": "trials_per_s on download-mitm (VPN HMAC-SHA1, MD5) and "
                   "rogue-hunt (MD5 of the download)",
    "crypto.dh": "trials_per_s on download-mitm (VPN key exchange)",
}

#: Deliberately not measured by this benchmark.
NOT_MEASURED = (
    "repro.fleet and repro.telemetry: multi-process scale-out, which the "
    "ROADMAP defers on a 2-core machine",
    "the obs-on run path: the counting pass turns obs on but is not timed",
)

#: Hot leaf helpers left unwrapped (``module:qualname``), each called only
#: from its own module, thousands of times per trial, for well under a
#: microsecond; wrapping them would multiply the cost they measure.
SKIP = frozenset({
    "repro.crypto.md5:_rotl",
    "repro.crypto.sha1:_rotl",
    "repro.radio.kernel:VectorKernel._snapshot_params",
    "repro.radio.kernel:VectorKernel._check_params",
})

#: Argument meters: ``module:qualname`` -> (counter, args -> amount).
#: Bytes are metered at the innermost public call (``rc4_keystream``
#: goes through ``RC4.keystream``, HMAC through ``SHA1.update``), so no
#: byte is counted twice.
METERS: Dict[str, Tuple[str, Callable]] = {
    "repro.crypto.rc4:RC4.keystream": ("rc4_bytes", lambda a, k: a[1]),
    "repro.crypto.rc4:RC4.crypt": ("rc4_bytes", lambda a, k: len(a[1])),
    "repro.crypto.md5:MD5.update": ("hash_bytes", lambda a, k: len(a[1])),
    "repro.crypto.sha1:SHA1.update": ("hash_bytes", lambda a, k: len(a[1])),
}


def layer_of(module: str) -> str:
    best, best_len = "", -1
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if (module == prefix or module.startswith(prefix + ".")) \
                    and len(prefix) > best_len:
                best, best_len = layer, len(prefix)
    return best


def _layer_modules() -> List:
    """Every loaded module that belongs to a layer.

    Only modules already imported are wrapped: run the trials once
    before installing, so lazily imported ones are loaded too.
    """
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and layer_of(name)]


class Tracer:
    """Installs layer wrappers; accumulates self time, calls and meters."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.meters: Counter = Counter()
        self._stack: List[List[float]] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------
    def _wrap(self, fn: Callable, layer: str, key: str) -> Callable:
        perf = time.perf_counter
        stack = self._stack
        self_s, inclusive_s, calls = self.self_s, self.inclusive_s, self.calls
        meter = METERS.get(key)
        meters = self.meters

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if meter is not None:
                meters[meter[0]] += meter[1](args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                self_s[layer] += dt - frame[0]
                inclusive_s[key] += dt
                if stack:
                    stack[-1][0] += dt

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", "wrapper")
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, name: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._undo.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

    def install(self, extra_modules: Tuple[str, ...] = ()) -> None:
        """Wrap every layer; rebind module globals in ``repro.*`` and
        ``extra_modules`` that refer to a wrapped function."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        replaced: Dict[int, Callable] = {}
        for mod in _layer_modules():
            layer = layer_of(mod.__name__)
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    key = f"{mod.__name__}:{obj.__qualname__}"
                    if key in SKIP or inspect.isgeneratorfunction(obj):
                        continue
                    replaced[id(obj)] = self._wrap(obj, layer, key)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and obj.__qualname__ == name
                      and not issubclass(obj, BaseException)):
                    self._wrap_class(obj, layer, mod.__name__)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name.startswith("repro")
                                   or mod_name in extra_modules):
                continue
            namespace = vars(mod)
            for name, obj in list(namespace.items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._set(namespace, name, wrapper)

    def _wrap_class(self, cls: type, layer: str, module: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("__"):
                continue
            if isinstance(attr, (staticmethod, classmethod)):
                fn, kind = attr.__func__, type(attr)
            elif inspect.isfunction(attr):
                fn, kind = attr, None
            else:
                continue
            key = f"{module}:{fn.__qualname__}"
            if key in SKIP or inspect.isgeneratorfunction(fn):
                continue
            wrapped = self._wrap(fn, layer, key)
            self._set(cls, name, kind(wrapped) if kind else wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)

    # -- results -------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        return {layer: self.self_s.get(layer, 0.0) for layer in LAYERS}
