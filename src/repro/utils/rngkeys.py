"""Counter-based RNG key derivation.

The paper (Sections 3.1, 3.2, 5.5) relies on careful seeding semantics:

* optimization scenarios are generated from one seed for the entire run;
* validation scenarios use a *different* seed (out-of-sample);
* tuple-wise summarization seeds the generator once per tuple/block, while
  scenario-wise summarization seeds once per scenario — both must be able
  to *re-generate* any scenario deterministically.

We implement this with Philox, a counter-based bit generator: a 2-word key
is derived by hashing a tuple of integers ``(seed, stream, *parts)`` with
SHA-256.  Distinct keys give independent streams, which is exactly what
repeated re-generation of individual scenarios (or individual tuples
across all scenarios) requires.

Building a generator for a key is not cheap: ``make_generator`` costs
18–25 µs on a 2-CPU x86 box (numpy 2.4), 13–18 µs of it in
``Philox(key=...)``, mostly OS entropy that the key then overwrites.
Re-keying a live ``Philox`` costs 4–5 µs, so a caller that draws from
many keys of one prefix (one per scenario, or one per independence
block) uses a :class:`KeyedGenerator`: it writes each key into one
long-lived ``Philox`` with the counter at zero and the output buffer
empty, which is the state a fresh ``Philox(key=...)`` starts in, so the
draws are byte-equal.  The re-key rule: the generator :meth:`KeyedGenerator.at`
returns is valid until the next ``at`` call on any keyed generator that
shares it, so a caller (a VG's ``sample_all`` or ``_sample_block``)
draws from it within the call and never keeps it.  ``make_generator``
stays the definition of a key's stream and serves one-shot generators.
"""

from __future__ import annotations

import hashlib

import numpy as np

_WORD = 2**64


def derive_key(seed: int, stream: int, *parts: int) -> np.ndarray:
    """Derive a 128-bit (2×64-bit) Philox key from integer components.

    The mapping is stable across processes and platforms (SHA-256 over the
    decimal rendering of the components), so runs are reproducible given
    ``(seed, stream, parts)``.
    """
    payload = ":".join(str(int(p)) for p in (seed, stream, *parts))
    digest = hashlib.sha256(payload.encode("ascii")).digest()
    words = [
        int.from_bytes(digest[i : i + 8], "little") % _WORD for i in range(0, 16, 8)
    ]
    return np.array(words, dtype=np.uint64)


def make_generator(seed: int, stream: int, *parts: int) -> np.random.Generator:
    """Return an independent ``numpy`` generator for the given key parts."""
    key = derive_key(seed, stream, *parts)
    return np.random.Generator(np.random.Philox(key=key))


def rekeyable_generator() -> np.random.Generator:
    """A Philox-backed generator for :class:`KeyedGenerator` to re-key.

    Its own seed is never drawn from: every use starts with a re-key.
    """
    return np.random.Generator(np.random.Philox(0))


class KeyedGenerator:
    """Draws for the keys ``(seed, stream, *parts, index)`` from one Philox.

    The key prefix ``"seed:stream:*parts:"`` is hashed once; :meth:`at`
    copies that SHA-256 state and appends the index, so its key is
    ``derive_key(seed, stream, *parts, index)`` byte for byte.  ``rng``
    is the Philox-backed generator to re-key; keyed generators of
    different prefixes may share one, since each :meth:`at` starts from
    a clean state.  One keyed generator serves one thread at a time.
    """

    def __init__(
        self,
        seed: int,
        stream: int,
        *parts: int,
        rng: np.random.Generator | None = None,
    ):
        prefix = "".join(f"{int(p)}:" for p in (seed, stream, *parts))
        self._prefix = hashlib.sha256(prefix.encode("ascii"))
        self.rng = rekeyable_generator() if rng is None else rng
        self._bit_generator = self.rng.bit_generator
        state = self._bit_generator.state
        # A fresh Philox(key=...): counter zero, no buffered output.
        state["state"]["counter"][:] = 0
        state["buffer"][:] = 0
        state["buffer_pos"] = len(state["buffer"])
        state["has_uint32"] = 0
        state["uinteger"] = 0
        self._state = state

    def at(self, index: int) -> np.random.Generator:
        """The shared generator, re-keyed to ``(..., index)`` from counter 0."""
        digest = self._prefix.copy()
        digest.update(b"%d" % index)
        self._state["state"]["key"] = np.frombuffer(
            digest.digest(), dtype="<u8", count=2
        )
        self._bit_generator.state = self._state
        return self.rng


def spawn_dataset_rng(seed: int, label: str) -> np.random.Generator:
    """Generator for synthetic dataset construction.

    Dataset construction is keyed by a string label (e.g. ``"galaxy"``) so
    that different datasets built from the same base seed do not share a
    stream.  The label is folded into an integer via SHA-256.
    """
    from ..config import STREAM_DATASET

    label_int = int.from_bytes(
        hashlib.sha256(label.encode("utf-8")).digest()[:8], "little"
    )
    return make_generator(seed, STREAM_DATASET, label_int)
