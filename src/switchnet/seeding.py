"""Deterministic random stream derivation.

Every random draw in the package comes from a generator keyed by a
structured tuple (root seed plus context: a string tag naming the use, an
index where the use has several), never from global state or scheduling order.
This is what makes results bit-identical across runs and across worker
counts. One stream is keyed per use and drawn from in sequence:

- `(seed, "data", g)`: group g's observations, one row each;
- `(seed, "partition", k)`: unit k's stratified pick;
- `(seed, "holdout")`: the overlapping test sample;
- `(seed, k)`: unit k's initial weights;
- `derive_seed(seed, "node", k)`: node k's training seed;
- `(node_seed, "shuffle", k)` and `(seed, "shuffle", "readout")`: the epoch
  orders of unit k and of the readout, one permutation per epoch.

SeedSequence pads its entropy with zero words, so `(seed, k, 0)` and
`(seed, k)` name the same stream; the tags keep every key in use distinct.
"""

import numpy as np

_MASK64 = (1 << 64) - 1


def _encode(part: int | str) -> int:
    """Map a key part to the non-negative integer entropy SeedSequence needs."""
    if isinstance(part, int):
        # Two's-complement fold so negative seeds are legal and deterministic.
        return part & _MASK64
    if isinstance(part, str):
        return int.from_bytes(part.encode("utf-8"), "big")
    raise TypeError(f"seed key parts must be int or str, got {type(part).__name__}")


def rng_for(*parts: int | str) -> np.random.Generator:
    """Generator for the stream identified by `parts`."""
    return np.random.default_rng(np.random.SeedSequence([_encode(p) for p in parts]))


def derive_seed(*parts: int | str) -> int:
    """Collapse a key to a single integer seed (for handing to a sub-config)."""
    seq = np.random.SeedSequence([_encode(p) for p in parts])
    return int(seq.generate_state(1, np.uint64)[0])
