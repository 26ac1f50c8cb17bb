"""Loop and einsum formulations of the engine's conv and pool, shared by
their parity tests and the whole-model reference.

``reference_conv2d`` is the formulation conv2d used before it called the
matrix products directly: np.pad, an (N, C, kh, kw, oh, ow) window array of
its own, then three ``np.einsum(optimize=True)`` contractions over it.  Its
input gradient sums the window gradients back with ``reference_col2im``,
the loop of nine strided adds onto a padded buffer that conv2d ran before
it summed whole planes.

``reference_max_pool2d`` is the formulation max_pool2d used before it took
strided maxima: stack every 2x2 window into an (N, C, oh, ow, 4) array,
take the argmax (the first maximum in scan order, or the first NaN), and
scatter the upstream gradient to it with ``np.add.at``.

None of them imports the engine.  Without an upstream gradient ``g``
``reference_conv2d`` and ``reference_max_pool2d`` return their output and
``None`` for every gradient.
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
    return out, reference_col2im(dcols, pad), gk


def reference_col2im(dcols, pad):
    """The input gradient of (N, C, kh, kw, oh, ow) window gradients: one
    strided add per shift onto a zero-padded buffer, i outer and j inner."""
    n, c, kh, kw, oh, ow = dcols.shape
    gxp = np.zeros((n, c, oh + kh - 1, ow + kw - 1))
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i: i + oh, j: j + ow] += dcols[:, :, i, j]
    return gxp[:, :, pad: gxp.shape[2] - pad, pad: gxp.shape[3] - pad]


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
