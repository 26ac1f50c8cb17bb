"""Loop and einsum formulations of the engine's conv and pool, shared by
their parity tests and the whole-model reference.

``reference_conv2d`` is the formulation conv2d used before it called the
matrix products directly: np.pad, an (N, C, kh, kw, oh, ow) window array of
its own, then three ``np.einsum(optimize=True)`` contractions over it.

``reference_max_pool2d`` is the formulation max_pool2d used before it took
strided maxima: stack every 2x2 window into an (N, C, oh, ow, 4) array,
take the argmax (the first maximum in scan order, or the first NaN), and
scatter the upstream gradient to it with ``np.add.at``.

Neither imports the engine.  Without an upstream gradient ``g`` each
returns its output and ``None`` for every gradient.
"""

import numpy as np


def reference_conv2d(x, k, g=None, pad=0):
    """(output, input gradient, kernel gradient) for upstream gradient g."""
    n, _, h, w = x.shape
    _, _, kh, kw = k.shape
    oh, ow = h + 2 * pad - kh + 1, w + 2 * pad - kw + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    cols = np.empty((n, x.shape[1], kh, kw, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i: i + oh, j: j + ow]
    out = np.einsum("ncijhw,ocij->nohw", cols, k, optimize=True)
    if g is None:
        return out, None, None
    gk = np.einsum("ncijhw,nohw->ocij", cols, g, optimize=True)
    dcols = np.einsum("ocij,nohw->ncijhw", k, g, optimize=True)
    gxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i: i + oh, j: j + ow] += dcols[:, :, i, j]
    gx = gxp[:, :, pad: pad + h, pad: pad + w] if pad else gxp
    return out, gx, gk


def reference_max_pool2d(x, g=None):
    """(output, input gradient) for upstream gradient g."""
    n, c, h, w = x.shape
    oh, ow = h // 2, w // 2
    windows = np.empty((n, c, oh, ow, 4))
    for i in range(2):
        for j in range(2):
            windows[..., i * 2 + j] = x[:, :, i: i + 2 * oh: 2,
                                        j: j + 2 * ow: 2]
    idx = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    if g is None:
        return out, None
    gx = np.zeros_like(x)
    ni, ci, ohi, owi = np.indices(idx.shape)
    np.add.at(gx, (ni, ci, ohi * 2 + idx // 2, owi * 2 + idx % 2), g)
    return out, gx
