"""Seeded synthetic text trace for the ``replay`` workload.

The trace follows ``repro.trace.TEXT_GRAMMAR``: ``P`` PEs, one shared
array ``u`` cut into one slice per PE, and epochs separated by
barriers.  In every epoch each PE makes ``ops_per_pe`` accesses in one
contiguous block, one write in four, and every write lands in the PE's
own slice.  Reads differ by epoch kind:

* *partitioned* epochs read the PE's own slice (no sharing);
* *shared* (producer -> consumer) epochs read the slice the
  neighbouring PE ``(p + 1) % P`` wrote in the previous epoch.

The seed picks which epochs are shared and where each block starts; the
share of shared epochs (a quarter), the op count and the geometry are
fixed, so every seed does the same amount of work.
"""

from __future__ import annotations

import random
from typing import TextIO

#: 4 PEs; by default 1,015,808 accesses (124 epochs x 4 PEs x 2048)
PES = 4
EPOCHS = 124
OPS_PER_PE = 2048
SLICE = 4096
SHARED_FRACTION = 0.25


def n_ops(epochs: int = EPOCHS, ops_per_pe: int = OPS_PER_PE) -> int:
    """Accesses a generated trace holds (what replay must count)."""
    return PES * epochs * ops_per_pe


def write_trace(out: TextIO, seed: int, *, epochs: int = EPOCHS,
                ops_per_pe: int = OPS_PER_PE,
                slice_words: int = SLICE) -> int:
    """Write one trace to ``out``; returns the number of accesses."""
    rng = random.Random(seed)
    n_shared = round(epochs * SHARED_FRACTION)
    # Epoch 0 has no producer yet, so it is always partitioned.
    shared = set(rng.sample(range(1, epochs), n_shared))
    out.write(f"%pes {PES}\n%array u {PES * slice_words}\n")
    count = 0
    for epoch in range(epochs):
        lines = []
        for pe in range(PES):
            own = pe * slice_words
            src = ((pe + 1) % PES) * slice_words if epoch in shared else own
            start = rng.randrange(slice_words)
            for i in range(ops_per_pe):
                offset = (start + i) % slice_words
                if i % 4 == 3:
                    lines.append(f"u write {own + offset} {pe}\n")
                else:
                    lines.append(f"u read {src + offset} {pe}\n")
        count += len(lines)
        out.writelines(lines)
        out.write("barrier\n")
    return count
