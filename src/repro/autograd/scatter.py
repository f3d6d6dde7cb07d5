"""The one scatter-add kernel: ``np.add.at``'s bits, one 1-D ``ufunc.at``.

``np.add.at(target, rows, values)`` on a 2-D target runs NumPy's
general indexed loop, which pays per index for every row it adds; the
1-D call over integer offsets takes ``ufunc.at``'s fast path.
:func:`add_at` turns an integer index over the leading axes into flat
offsets into the target's buffer, broadcasts them over the trailing
axes, and makes that one 1-D call.

Order guarantee: the flat offsets are laid out index by index, each
index's trailing elements in C order, which is the sequence the
multi-dimensional call visits.  Every target element therefore
receives the same additions in the same order, so the result is
byte-identical to ``np.add.at`` whatever the dtype, and whatever the
repeats.  Every scatter-add in ``src/`` goes through here.
"""

from __future__ import annotations

import math

import numpy as np


def add_at(target: np.ndarray, index, values) -> None:
    """``np.add.at(target, index, values)``, in place, with the same bits.

    ``index`` is an integer array, or a tuple of integer arrays that
    broadcast together, over ``target``'s leading axes; negative
    entries wrap, and an entry out of range raises ``IndexError``
    before anything is written, as in ``np.add.at``.  Any other index
    (a slice, a bool mask, a scalar, a list) goes to ``np.add.at``
    unchanged.  ``target`` must be C-contiguous: the scatter writes
    through its flat view, and a non-contiguous array's ``reshape(-1)``
    would be a copy that silently drops the update, so such a target
    raises ``ValueError`` instead.
    """
    if not target.flags.c_contiguous:
        raise ValueError("add_at needs a C-contiguous target")
    axes = index if isinstance(index, tuple) else (index,)
    if not (0 < len(axes) <= target.ndim and all(
            isinstance(a, np.ndarray) and a.dtype.kind in "iu"
            for a in axes)):
        np.add.at(target, index, values)
        return
    flat = None
    for axis, (rows, n) in enumerate(zip(np.broadcast_arrays(*axes),
                                         target.shape)):
        low = high = 0
        if rows.size:
            low, high = rows.min(), rows.max()
            if high >= n or low < -n:
                raise IndexError(
                    f"index {high if high >= n else low} is out of bounds "
                    f"for axis {axis} with size {n}")
        rows = rows.astype(np.intp, copy=False)
        if low < 0:
            rows = np.where(rows < 0, rows + n, rows)
        flat = rows if flat is None else flat * n + rows
    trailing = target.shape[len(axes):]
    # A Python scalar stays one, so NumPy types it from the target as
    # it would for np.add.at; anything else is laid out like ``flat``.
    if isinstance(values, np.ndarray) or np.ndim(values):
        values = np.broadcast_to(values, flat.shape + trailing).reshape(-1)
    inner = math.prod(trailing)
    if inner != 1:
        flat = flat[..., None] * inner + np.arange(inner, dtype=np.intp)
    np.add.at(target.reshape(-1), flat.reshape(-1), values)
