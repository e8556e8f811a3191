"""Independent reference implementations used only by tests.

Everything here is written with explicit loops and unbounded Python ints so
it shares no code paths with the package's vectorized executors.
"""

import numpy as np

from nanopose import graph as G


def naive_conv2d_int(x, w, stride, padding):
    """Plain 6-loop integer convolution with zero padding."""
    c, h, wid = x.shape
    oc, ic, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wid + 2 * pw - kw) // sw + 1
    out = np.zeros((oc, oh, ow), dtype=np.int64)
    xl = x.tolist()
    wl = w.tolist()
    for o in range(oc):
        for i in range(oh):
            for j in range(ow):
                acc = 0
                for ci in range(ic):
                    for u in range(kh):
                        r = i * sh + u - ph
                        if r < 0 or r >= h:
                            continue
                        for v in range(kw):
                            col = j * sw + v - pw
                            if col < 0 or col >= wid:
                                continue
                            acc += wl[o][ci][u][v] * xl[ci][r][col]
                out[o, i, j] = acc
    return out


def naive_requant(acc, mult, shift, bias):
    c = acc.shape[0]
    out = np.zeros(acc.shape, dtype=np.int64)
    for ci in range(c):
        m, b = int(mult[ci]), int(bias[ci])
        for idx, v in np.ndenumerate(acc[ci]):
            t = m * int(v) + b
            t = t >> shift if t >= 0 else -((-t) >> shift)
            out[(ci, *idx)] = min(255, max(0, t))
    return out


def naive_pool2x2(x):
    c, h, w = x.shape
    out = np.zeros((c, h // 2, w // 2), dtype=x.dtype)
    for ci in range(c):
        for i in range(h // 2):
            for j in range(w // 2):
                out[ci, i, j] = max(
                    x[ci, 2 * i, 2 * j], x[ci, 2 * i, 2 * j + 1],
                    x[ci, 2 * i + 1, 2 * j], x[ci, 2 * i + 1, 2 * j + 1],
                )
    return out


def naive_fc_int(x_flat, w):
    out = []
    for row in w.tolist():
        out.append(sum(int(a) * int(b) for a, b in zip(row, x_flat.tolist())))
    return np.array(out, dtype=np.int64)


def run_int_reference(qg, image_codes):
    """Full integer forward pass via the naive kernels; returns per-layer outputs."""
    from nanopose.qtensor import full_weight_codes

    x = np.asarray(image_codes, dtype=np.int64)
    acts = {}
    for l in qg.graph.layers:
        if l.kind == G.CONV:
            w = full_weight_codes(qg.weights[l.name]).data.astype(np.int64)
            w = w.reshape(l.out_ch, l.in_ch, *l.kernel)
            x = naive_conv2d_int(x, w, l.stride, l.padding)
        elif l.kind == G.REQUANT:
            rp = qg.requant[l.name]
            x = naive_requant(x, rp.mult, rp.shift, rp.bias)
        elif l.kind == G.POOL:
            x = naive_pool2x2(x)
        elif l.kind == G.DROPOUT:
            continue
        elif l.kind == G.FC:
            w = full_weight_codes(qg.weights[l.name]).data.astype(np.int64)
            x = naive_fc_int(x.reshape(-1), w)
        acts[l.name] = np.array(x)
    return acts


def naive_float_forward(net, image):
    """Minimal second float implementation (loops over BN channels)."""
    x = np.asarray(image, dtype=np.float64)
    for l in net.graph.layers:
        if l.kind == G.CONV:
            x = _float_conv(x, net.weights[l.name], l.stride, l.padding)
        elif l.kind == G.REQUANT:
            bn = net.bn[l.name]
            y = np.empty_like(x)
            for c in range(x.shape[0]):
                s = (bn.var[c] + 1e-5) ** 0.5
                y[c] = bn.gamma[c] * (x[c] - bn.mean[c]) / s + bn.beta[c]
            x = np.maximum(y, 0.0)
        elif l.kind == G.POOL:
            x = naive_pool2x2(x)
        elif l.kind == G.DROPOUT:
            continue
        elif l.kind == G.FC:
            w = net.weights[l.name]
            x = np.array([float(np.dot(row, x.reshape(-1))) for row in w])
    return x


def _float_conv(x, w, stride, padding):
    c, h, wid = x.shape
    oc, ic, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wid + 2 * pw - kw) // sw + 1
    out = np.zeros((oc, oh, ow))
    for o in range(oc):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for ci in range(ic):
                    for u in range(kh):
                        r = i * sh + u - ph
                        if r < 0 or r >= h:
                            continue
                        for v in range(kw):
                            col = j * sw + v - pw
                            if col < 0 or col >= wid:
                                continue
                            acc += w[o, ci, u, v] * x[ci, r, col]
                out[o, i, j] = acc
    return out


def make_chain_graph(spatial, channels, with_pool=False, n_blocks=1, kernel=3, name_prefix="L"):
    """Small generic conv chain ending in a 4-output head, shapes inferred."""
    h, w = spatial
    layers = []
    cin = 1
    for b in range(n_blocks):
        cout = channels[min(b, len(channels) - 1)]
        stride = (2, 2) if b == 0 and h >= 8 else (1, 1)
        layers.append(
            G.LayerSpec(G.CONV, f"{name_prefix}{b}c", in_ch=cin, out_ch=cout,
                        kernel=(kernel, kernel), stride=stride,
                        padding=(kernel // 2, kernel // 2))
        )
        layers.append(G.LayerSpec(G.REQUANT, f"{name_prefix}{b}a"))
        if with_pool and b == 0:
            layers.append(G.LayerSpec(G.POOL, f"{name_prefix}{b}p", kernel=(2, 2), stride=(2, 2)))
        cin = cout
    g = G.NetGraph(layers=layers, input_shape=(1, h, w), variant="toy")
    G.infer_shapes(g)
    cf, hf, wf = g.layers[-1].out_shape
    layers.append(G.LayerSpec(G.DROPOUT, "drop"))
    layers.append(G.LayerSpec(G.FC, "fc", in_ch=cf * hf * wf, out_ch=4))
    return G.infer_shapes(g)
