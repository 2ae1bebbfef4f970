"""The substrate's two integer dtype lanes, single point of control.

This module is a dependency leaf (NumPy only) so every layer can name
the lanes without an import cycle. :mod:`repro.graphs.csr` re-exports
them, and most code keeps importing from there.

The repolint ``index-dtype`` rule enforces that kernel code under
``graphs/`` and ``core/`` spells these names instead of
literal ``np.int32``/``np.int64``/``int`` dtypes, so re-narrowing (or
a compiled tier's choice of index width) stays a one-line switch.
"""

from __future__ import annotations

import numpy as np

__all__ = ["INDEX_DTYPE", "MAX_INDEX", "WIDE_DTYPE"]

#: Storage dtype for node and edge ids across the array substrate
#: (PR 2's int32 narrowing: ids stay below :data:`MAX_INDEX`, and
#: halving index bandwidth speeds every gather in the hot kernels).
INDEX_DTYPE = np.int32

#: Largest representable id; the ``Graph`` boundary guards against
#: node/edge counts ever reaching this (2^31 − 1 ≈ 2·10^9 incidences).
MAX_INDEX = int(np.iinfo(INDEX_DTYPE).max)

#: The deliberate 64-bit integer lane: overflow-proof pair keys
#: (``u * n + v`` would wrap in int32), cumulative counts (``indptr``
#: folds over 2m incidences), and sentinel-valued distance/parent
#: arrays whose itemsize is pinned by the CONGEST bandwidth-accounting
#: goldens.
WIDE_DTYPE = np.int64
