"""Deterministic, counter-addressable randomness.

Every random draw in a simulation comes from a Philox generator keyed by
SHA-256 of the master seed plus a tuple of string-able coordinates
(``_key``).  Streams for distinct coordinate tuples are statistically
independent, and the same coordinates always reproduce the same stream, so
any sub-computation can be replayed in isolation.  Process-private streams
(hidden coin registers, private neighborhood draws) and the adversary's
stream use disjoint coordinate prefixes and therefore never collide.

``Restream`` is the one place that builds a generator: a Philox/Generator
pair whose state ``at`` sets in place to counter 0, the address's key, an
empty buffer and no buffered 32-bit half-word.  That is exactly the state
``Philox(key=...)`` starts in, so each address yields, bit for bit, the
stream a generator keyed that way gives, without drawing the OS entropy
that Philox then discards.  Loops that need one stream per process
re-address one ``Restream``; ``substream`` gives each call its own.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _key(seed: int, coords: tuple) -> bytes:
    """The 16-byte little-endian Philox key of the address (seed, *coords)."""
    text = "|".join([str(seed), *(str(c) for c in coords)])
    return hashlib.sha256(text.encode()).digest()[:16]


def substream(seed: int, *coords) -> np.random.Generator:
    """Return a new generator addressed by (seed, *coords).

    Coordinates may be ints, strings, or anything with a stable str().
    """
    return Restream().at(seed, *coords)


class Restream:
    """One generator, re-addressed in place: ``at(seed, *coords)`` returns it
    positioned at the start of the stream ``substream(seed, *coords)``.

    The generator returned by the previous ``at`` is the same object and is
    re-addressed too, so use each stream before asking for the next.
    """

    _EMPTY = np.zeros(4, dtype=np.uint64)

    def __init__(self):
        self._bits = np.random.Philox(0)  # an int seed draws no OS entropy
        self._gen = np.random.Generator(self._bits)

    def at(self, seed: int, *coords) -> np.random.Generator:
        self._bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": self._EMPTY,
                      "key": np.frombuffer(_key(seed, coords), "<u8")},
            "buffer": self._EMPTY, "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0,
        }
        return self._gen


def adversary_rng(seed: int, name: str) -> np.random.Generator:
    """The adversary's own substream, disjoint from all process streams."""
    return substream(seed, "adversary", name)
