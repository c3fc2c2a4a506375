"""Seeded, forkable random streams for reproducible simulations.

Every stochastic decision in the simulator (fault schedules, message-chaos
coin flips, stochastic plans) must come from a :class:`SeededRng` so that two
runs with the same seed replay *byte-identically*. Substreams are derived
with SHA-256 over ``(seed, *keys)`` rather than Python's built-in ``hash()``,
which is salted per interpreter run and would silently break replay.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any

import numpy as np


def randint_stream(seed: int, high: int, count: int) -> list[int]:
    """``[random.Random(seed).randint(0, high) for _ in range(count)]``.

    Same draws, same stream, drawn in C. Both CPython's ``random`` and
    numpy's legacy ``RandomState`` are MT19937; the latter's stream is
    frozen (NEP 19) and takes the former's state verbatim. CPython's
    ``randint(0, high)`` is ``_randbelow(high + 1)``: draw
    ``getrandbits(k)`` with ``k = (high + 1).bit_length()`` until the draw
    is below ``high + 1``. For ``k <= 32`` each draw is one 32-bit word's
    top ``k`` bits, so the rejection loop is a filter over raw words.
    Wider ranges take several words per draw and fall back to the loop.
    """
    n = high + 1
    k = n.bit_length()
    rng = random.Random(seed)
    if k > 32:
        return [rng.randint(0, high) for _ in range(count)]
    _version, internal, _gauss = rng.getstate()
    rs = np.random.RandomState()
    rs.set_state(("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1]))
    shift = np.uint32(32 - k)
    draws = np.empty(0, dtype=np.uint32)
    while len(draws) < count:
        # A word is kept with probability n / 2**k >= 1/2; drawing ~6 %
        # over the expected need makes a second batch rare. Words past the
        # last kept draw are never read.
        need = ((count - len(draws)) << k) // n
        words = rs.randint(0, 1 << 32, size=need + (need >> 4) + 64, dtype=np.uint32)
        top = words >> shift
        draws = np.concatenate([draws, top[top < n]])
    return draws[:count].tolist()


def derive_seed(seed: int, *keys: Any) -> int:
    """Deterministically derive a child seed from a parent seed and keys.

    Keys are hashed through their ``repr``; use only primitives (str, int,
    float, tuples thereof) whose repr is stable across interpreter runs.
    """
    h = hashlib.sha256()
    h.update(repr(int(seed)).encode("utf-8"))
    for key in keys:
        h.update(b"\x00")
        h.update(repr(key).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


class SeededRng(random.Random):
    """A :class:`random.Random` that remembers its seed.

    A substream is ``SeededRng(derive_seed(seed, *keys))``: its state depends
    only on ``(seed, *keys)`` — not on how much of any other stream has been
    consumed — so adding one draw in a subsystem never perturbs another.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed_value = int(seed)
        super().__init__(self.seed_value)
