"""Independent brute-force reference implementations used to freeze expected
values.  Everything here is deliberately written as plain scalar loops, kept
separate from the library code paths it checks."""

import numpy as np


def conv2d_loops(x, w, b=None, stride=1, padding=0):
    """Direct quadruple-loop cross-correlation, zero padding."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, oh, ow), dtype=np.float64)
    for ni in range(n):
        for o in range(cout):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0 if b is None else float(b[o])
                    for ci in range(cin):
                        for ky in range(kh):
                            for kx in range(kw):
                                iy = oy * stride + ky - padding
                                ix = ox * stride + kx - padding
                                if 0 <= iy < h and 0 <= ix < wd:
                                    acc += float(x[ni, ci, iy, ix]) * float(w[o, ci, ky, kx])
                    out[ni, o, oy, ox] = acc
    return out


def sigmoid_loops(x):
    out = np.zeros_like(x, dtype=np.float64)
    flat_in = x.reshape(-1)
    flat_out = out.reshape(-1)
    for i in range(flat_in.size):
        flat_out[i] = 1.0 / (1.0 + np.exp(-float(flat_in[i])))
    return out


def channel_pool_loops(x):
    n, c, h, w = x.shape
    out = np.zeros((n, 2, h, w), dtype=np.float64)
    for ni in range(n):
        for y in range(h):
            for xx in range(w):
                vals = [float(x[ni, ci, y, xx]) for ci in range(c)]
                out[ni, 0, y, xx] = sum(vals) / c
                out[ni, 1, y, xx] = max(vals)
    return out


def charbonnier_loops(pred, target, eps, mode):
    diffs = (pred.reshape(-1).astype(np.float64)
             - target.reshape(-1).astype(np.float64))
    if mode == "per_pixel_mean":
        total = 0.0
        for d in diffs:
            total += np.sqrt(d * d + eps * eps)
        return total / diffs.size
    acc = 0.0
    for d in diffs:
        acc += d * d
    return float(np.sqrt(acc + eps * eps))


def psnr_loops(a, b, data_range=255.0):
    """Double-precision per-element PSNR over all channels."""
    fa = a.reshape(-1).astype(np.float64)
    fb = b.reshape(-1).astype(np.float64)
    acc = 0.0
    for x, y in zip(fa, fb):
        acc += (x - y) ** 2
    mse = acc / fa.size
    if mse == 0:
        return np.inf
    return 10.0 * np.log10(data_range * data_range / mse)


def gaussian_window(extent, sigma):
    r = np.arange(extent) - (extent - 1) / 2.0
    g = np.exp(-(r ** 2) / (2.0 * sigma ** 2))
    w = np.outer(g, g)
    return w / w.sum()


def ssim_plane_loops(x, y, data_range=255.0, window=11, sigma=1.5,
                     k1=0.01, k2=0.03):
    """Sliding-window SSIM over valid positions, one plane, plain loops."""
    win = gaussian_window(window, sigma)
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2
    h, w = x.shape
    scores = []
    for oy in range(h - window + 1):
        for ox in range(w - window + 1):
            px = x[oy:oy + window, ox:ox + window].astype(np.float64)
            py = y[oy:oy + window, ox:ox + window].astype(np.float64)
            mx = (win * px).sum()
            my = (win * py).sum()
            vx = (win * px * px).sum() - mx * mx
            vy = (win * py * py).sum() - my * my
            cov = (win * px * py).sum() - mx * my
            num = (2 * mx * my + c1) * (2 * cov + c2)
            den = (mx * mx + my * my + c1) * (vx + vy + c2)
            scores.append(num / den)
    return float(np.mean(scores))


def upsample2x_loops(x):
    """Half-pixel 2x bilinear upsampling, one output pixel at a time: output
    row oy samples source coordinate (oy + 0.5) / 2 - 0.5, clamped to the
    nearest valid row for each tap (likewise for columns)."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, 2 * h, 2 * w), dtype=np.float64)
    for oy in range(2 * h):
        sy = (oy + 0.5) / 2.0 - 0.5
        y0 = int(np.floor(sy))
        ty = sy - y0
        for ox in range(2 * w):
            sx = (ox + 0.5) / 2.0 - 0.5
            x0 = int(np.floor(sx))
            tx = sx - x0
            for ni in range(n):
                for ci in range(c):
                    acc = 0.0
                    for yy, wy in ((y0, 1.0 - ty), (y0 + 1, ty)):
                        for xx, wx in ((x0, 1.0 - tx), (x0 + 1, tx)):
                            iy = min(max(yy, 0), h - 1)
                            ix = min(max(xx, 0), w - 1)
                            acc += wy * wx * float(x[ni, ci, iy, ix])
                    out[ni, ci, oy, ox] = acc
    return out


def blur_pool_loops(x):
    """3x3 binomial blur ([1,2,1] outer [1,2,1] / 16) centred on every even
    input pixel, with edge-replicated (clamped) neighbours."""
    n, c, h, w = x.shape
    taps = (1.0, 2.0, 1.0)
    oh, ow = (h + 1) // 2, (w + 1) // 2
    out = np.zeros((n, c, oh, ow), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ky in range(3):
                        for kx in range(3):
                            iy = min(max(2 * oy + ky - 1, 0), h - 1)
                            ix = min(max(2 * ox + kx - 1, 0), w - 1)
                            acc += taps[ky] * taps[kx] * float(x[ni, ci, iy, ix])
                    out[ni, ci, oy, ox] = acc / 16.0
    return out


def skff_select_loops(branches, logits):
    """SKFF's select step one element at a time: at each (batch, channel)
    position the softmax of the k logits, then each pixel's weighted sum of
    the k branches.  `branches` are (N, C, H, W) arrays, `logits` (N, C, 1, 1)."""
    n, c, h, w = branches[0].shape
    out = np.zeros((n, c, h, w), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            vals = [float(l[ni, ci, 0, 0]) for l in logits]
            top = max(vals)
            exps = [np.exp(v - top) for v in vals]
            weights = [e / sum(exps) for e in exps]
            for y in range(h):
                for x in range(w):
                    out[ni, ci, y, x] = sum(wt * float(b[ni, ci, y, x])
                                            for wt, b in zip(weights, branches))
    return out
