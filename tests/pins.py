"""Host guard for cross-version pins of float output.

A sha256 of float output holds only where ``np.exp`` and ``np.log`` return
the same bytes as on the host that made the pin: NumPy dispatches them to
SIMD code that differs by CPU (AVX-512 or not) and by release.  The numerics
signature is a digest of both functions on a fixed probe.  Where it equals
the one in ``pin_matrix.json``'s header, pins compare exact bytes; anywhere
else they compare integer parts exactly and float arrays to a relative
1e-9 of each array's largest magnitude, against values kept in the same
file.  Print the signature and the mode that will run:

    PYTHONPATH=src:tests python tests/pins.py
"""

from __future__ import annotations

import hashlib
import json
from functools import cache
from pathlib import Path

import numpy as np

PIN_FILE = Path(__file__).with_name("pin_matrix.json")
REL = 1e-9


def numerics_signature() -> str:
    """First 16 hex digits of the sha256 of exp and log on 4096 fixed normal draws."""
    probe = np.random.default_rng(0).normal(scale=30.0, size=4096)
    h = hashlib.sha256(np.exp(probe).tobytes())
    h.update(np.log(np.abs(probe)).tobytes())
    return h.hexdigest()[:16]


@cache
def pins() -> dict:
    return json.loads(PIN_FILE.read_text())


def exact() -> bool:
    """True when this host's numerics signature is the pins' own."""
    return numerics_signature() == pins()["header"]["signature"]


def mode() -> str:
    return "exact sha256" if exact() else f"rel {REL:g} fallback"


def describe() -> str:
    header = pins()["header"]
    return (f"numerics signature {numerics_signature()} (pins made with {header['signature']}, "
            f"NumPy {header['numpy']}): pin mode {mode()}")


def digest(arrays) -> str:
    return hashlib.sha256(b"".join(np.asarray(a).tobytes() for a in arrays)).hexdigest()


def assert_close(got: dict, pinned: dict, where: str) -> None:
    """Each float array of ``got`` equals its ``pinned`` list to REL of the
    largest pinned magnitude; shapes, the set of keys and None entries
    match exactly."""
    assert sorted(got) == sorted(pinned), where
    for key, value in got.items():
        if value is None or pinned[key] is None:
            assert value is None and pinned[key] is None, f"{where}: {key}"
            continue
        ref = np.asarray(pinned[key], dtype=np.float64)
        value = np.asarray(value, dtype=np.float64)
        assert value.shape == ref.shape, f"{where}: {key} shape"
        scale = float(np.abs(ref).max(initial=0.0))
        np.testing.assert_allclose(value, ref, rtol=REL, atol=REL * scale,
                                   err_msg=f"{where}: {key} ({mode()})")


def assert_pinned(sha256: str, data: bytes, name: str, ints: dict, floats: dict) -> None:
    """Exact mode: ``sha256(data) == sha256``.  Fallback: ``ints`` equal and
    ``floats`` match (``assert_close``) the values kept under ``name`` in
    the pin file's ``digest_values``; together they are what ``data``
    hashes."""
    if exact():
        assert hashlib.sha256(data).hexdigest() == sha256, f"{name} ({mode()})"
    else:
        pinned = pins()["digest_values"][name]
        assert ints == pinned["ints"], f"{name} ({mode()})"
        assert_close(floats, pinned["floats"], name)


if __name__ == "__main__":
    print(describe())
