"""Straight-line reference implementations, kept independent of src/.

These oracles are deliberately loop-based so they share no code path with the
engine they check.
"""

import numpy as np


def conv2d_naive(x, w, b, stride, pad):
    """Nested-loop cross-correlation oracle."""
    n, cin, h, wid = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wid + 2 * pad - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for co in range(cout):
            for oi in range(ho):
                for oj in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for i in range(kh):
                            for j in range(kw):
                                acc += xp[ni, ci, oi * stride + i, oj * stride + j] * w[co, ci, i, j]
                    out[ni, co, oi, oj] = acc + b[co]
    return out


def conv2d_backward_naive(x, w, g, stride, pad):
    """Nested-loop gradients of ``conv2d_naive`` for the output gradient g.

    Each output position spreads g over the input window it read; returns
    (gx, gw, gb) with the shapes of x, w and the bias.
    """
    n, cin, h, wid = x.shape
    cout, _, kh, kw = w.shape
    _, _, ho, wo = g.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    gb = np.zeros(cout, dtype=g.dtype)
    for ni in range(n):
        for co in range(cout):
            for oi in range(ho):
                for oj in range(wo):
                    go = g[ni, co, oi, oj]
                    gb[co] += go
                    for ci in range(cin):
                        for i in range(kh):
                            for j in range(kw):
                                r, c = oi * stride + i, oj * stride + j
                                gw[co, ci, i, j] += go * xp[ni, ci, r, c]
                                gxp[ni, ci, r, c] += go * w[co, ci, i, j]
    return gxp[:, :, pad:pad + h, pad:pad + wid], gw, gb


def metrics_recount(scores, threshold):
    """Brute-force confusion recount; returns (apcer, bpcer, acer) in percent."""
    attacks_total = attacks_accepted = bona_total = bona_rejected = 0
    for score, label in scores:
        if label == 0:
            attacks_total += 1
            if score >= threshold:
                attacks_accepted += 1
        else:
            bona_total += 1
            if score < threshold:
                bona_rejected += 1
    apcer = 100.0 * attacks_accepted / attacks_total
    bpcer = 100.0 * bona_rejected / bona_total
    return apcer, bpcer, (apcer + bpcer) / 2.0


def select_threshold_sweep(dev_scores):
    """Quadratic EER sweep: every candidate threshold recounts both classes.

    Candidates are one below the minimum, the midpoints between adjacent
    distinct scores and one above the maximum; the first candidate with the
    smallest |FAR - FRR| wins, so ties go to the lower threshold.
    """
    attacks = [float(s) for s, label in dev_scores if label == 0]
    bona = [float(s) for s, label in dev_scores if label == 1]
    pts = sorted(set(attacks + bona))
    candidates = [pts[0] - 1.0]
    candidates += [(a + b) / 2.0 for a, b in zip(pts, pts[1:])]
    candidates.append(pts[-1] + 1.0)
    best, best_gap = None, None
    for th in candidates:
        far = sum(1 for s in attacks if s >= th) / len(attacks)
        frr = sum(1 for s in bona if s < th) / len(bona)
        gap = abs(far - frr)
        if best_gap is None or gap < best_gap:
            best, best_gap = th, gap
    return float(best)


def multiscale_attention_naive(q, k, v, scales):
    """Brute-force multi-scale attention over stacked frame patches.

    q/k/v: [T, C, H, W] numpy arrays. For each head: carve its channel slice
    into an l x l grid per frame, flatten every cell to one token, score all
    token pairs explicitly, softmax each query row, accumulate value tokens
    term by term, and write each attended cell back to its frame/grid
    position. Heads are concatenated on the channel axis.
    """
    t, c, h, w = q.shape
    heads = len(scales)
    ch = c // heads
    out = np.zeros_like(q)
    for hi, l in enumerate(scales):
        qs = q[:, hi * ch:(hi + 1) * ch]
        ks = k[:, hi * ch:(hi + 1) * ch]
        vs = v[:, hi * ch:(hi + 1) * ch]
        ph, pw = h // l, w // l
        tokens_q, tokens_k, tokens_v, places = [], [], [], []
        for fr in range(t):
            for r in range(l):
                for col in range(l):
                    sl = (fr, slice(None), slice(r * ph, (r + 1) * ph), slice(col * pw, (col + 1) * pw))
                    tokens_q.append(qs[sl].reshape(-1))
                    tokens_k.append(ks[sl].reshape(-1))
                    tokens_v.append(vs[sl].reshape(-1))
                    places.append(sl)
        n = len(tokens_q)
        d = tokens_q[0].size
        scores = np.zeros((n, n), dtype=q.dtype)
        for m in range(n):
            for j in range(n):
                scores[m, j] = float(np.dot(tokens_q[m], tokens_k[j])) / np.sqrt(d)
        for m in range(n):
            row = scores[m] - scores[m].max()
            e = np.exp(row)
            alpha = e / e.sum()
            attended = np.zeros(d, dtype=q.dtype)
            for j in range(n):
                attended += alpha[j] * tokens_v[j]
            fr, _, rows, cols = places[m]
            out[fr, hi * ch:(hi + 1) * ch, rows, cols] = attended.reshape(ch, ph, pw)
    return out
