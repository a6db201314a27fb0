"""Loop oracles the array code is tested against.

Each oracle computes what one module computes, one agent, row, pair or draw
at a time, in plain Python loops that share no array trick with the module.
The array code runs its sums as matrix products over all rows, so it agrees
with these loops to rounding: compare through assert_close_to_oracle.
"""

import warnings

import numpy as np

from motionq import model as model_module
from motionq.data import to_relative
from motionq.numkit import sigmoid
from motionq.objectives import MetricsReport, variety_backward, variety_forward
from motionq.scene import encode_scene_backward

# forwards and single backward calls against their loop oracle
FORWARD_REL = 1e-12
# every gradient tensor of an end-to-end backward against an oracle-built one
GRADIENT_REL = 1e-10


def assert_close_to_oracle(got, want, name="", rel=FORWARD_REL):
    """Every entry of got within rel times the oracle's largest magnitude."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, name
    bound = rel * float(np.abs(want).max(initial=0.0))
    assert np.abs(got - want).max(initial=0.0) <= bound, name


def assert_grads_close(grads, ref_grads):
    """Each named gradient tensor within GRADIENT_REL of its reference."""
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        assert_close_to_oracle(grads[name], ref, name, rel=GRADIENT_REL)


def assert_parts_close(parts, ref_parts):
    """Loss parts (dicts of floats) within FORWARD_REL of the reference."""
    assert parts.keys() == ref_parts.keys()
    for key, ref in ref_parts.items():
        assert_close_to_oracle(parts[key], ref, key)


# ---------------------------------------------------------------------------
# an independently written textbook LSTM cell (forward and backward)


def lstm_oracle_forward(x, h_prev, c_prev, p):
    """Standard LSTM cell: i/f/o gates + candidate, no peepholes."""
    ai = p["Wi"] @ x + p["Ui"] @ h_prev + p["bi"]
    af = p["Wf"] @ x + p["Uf"] @ h_prev + p["bf"]
    ao = p["Wo"] @ x + p["Uo"] @ h_prev + p["bo"]
    au = p["Wu"] @ x + p["Uu"] @ h_prev + p["bu"]
    i = sigmoid(ai)
    f = sigmoid(af)
    o = sigmoid(ao)
    u = np.tanh(au)
    c = i * u + f * c_prev
    tc = np.tanh(c)
    h = o * tc
    return h, c, (x, h_prev, c_prev, i, f, o, u, tc)


def lstm_oracle_backward(cache, d_h, d_c, p):
    x, h_prev, c_prev, i, f, o, u, tc = cache
    do = d_h * tc
    da_o = do * o * (1.0 - o)
    dc = d_c + d_h * o * (1.0 - tc ** 2)
    di = dc * u
    da_i = di * i * (1.0 - i)
    du = dc * i
    da_u = du * (1.0 - u ** 2)
    df = dc * c_prev
    da_f = df * f * (1.0 - f)
    d_c_prev = dc * f
    d_h_prev = p["Ui"].T @ da_i + p["Uo"].T @ da_o + p["Uu"].T @ da_u + p["Uf"].T @ da_f
    d_x = p["Wi"].T @ da_i + p["Wo"].T @ da_o + p["Wu"].T @ da_u + p["Wf"].T @ da_f
    grads = {
        "Wi": np.outer(da_i, x), "Ui": np.outer(da_i, h_prev), "bi": da_i,
        "Wf": np.outer(da_f, x), "Uf": np.outer(da_f, h_prev), "bf": da_f,
        "Wo": np.outer(da_o, x), "Uo": np.outer(da_o, h_prev), "bo": da_o,
        "Wu": np.outer(da_u, x), "Uu": np.outer(da_u, h_prev), "bu": da_u,
    }
    return d_x, d_h_prev, d_c_prev, grads


def oracle_params_from_cell(params):
    """Map the queue-gated cell's weights onto the oracle's naming (g is the input gate)."""
    return {
        "Wi": params.W["g"], "Ui": params.U["g"], "bi": params.b["g"],
        "Wf": params.W["f"], "Uf": params.U["f"], "bf": params.b["f"],
        "Wo": params.W["o"], "Uo": params.U["o"], "bo": params.b["o"],
        "Wu": params.W["u"], "Uu": params.U["u"], "bu": params.b["u"],
    }


# ---------------------------------------------------------------------------
# the queue cell stepped one agent at a time on a (q, h) queue


def per_agent_forward(m_t, H, C, params):
    h_tilde = H.mean(axis=0)
    g = sigmoid(params.W["g"] @ m_t + params.U["g"] @ h_tilde + params.b["g"])
    o = sigmoid(params.W["o"] @ m_t + params.U["o"] @ h_tilde + params.b["o"])
    u = np.tanh(params.W["u"] @ m_t + params.U["u"] @ h_tilde + params.b["u"])
    f = np.empty_like(H)
    c_t = g * u
    for idx in range(H.shape[0] - 1, -1, -1):  # newest slot first
        f_idx = sigmoid(params.W["f"] @ m_t + params.U["f"] @ H[idx] + params.b["f"])
        f[idx] = f_idx
        c_t = c_t + f_idx * C[idx]
    tanh_c = np.tanh(c_t)
    h_t = o * tanh_c
    cache = dict(m=m_t, hidden=H, cell=C, h_tilde=h_tilde, g=g, o=o, u=u, f=f, tanh_c=tanh_c)
    return h_t, c_t, cache


def per_agent_backward(cache, d_h, d_c, params):
    H, C = cache["hidden"], cache["cell"]
    q = H.shape[0]
    do = d_h * cache["tanh_c"]
    da_o = do * cache["o"] * (1.0 - cache["o"])
    dc = d_c + d_h * cache["o"] * (1.0 - cache["tanh_c"] ** 2)
    dg = dc * cache["u"]
    da_g = dg * cache["g"] * (1.0 - cache["g"])
    du = dc * cache["g"]
    da_u = du * (1.0 - cache["u"] ** 2)
    d_htilde = params.U["g"].T @ da_g + params.U["o"].T @ da_o + params.U["u"].T @ da_u
    d_hidden = np.empty_like(H)
    d_cell = np.empty_like(C)
    da_f_sum = np.zeros_like(da_g)
    for idx in range(q):
        f_idx = cache["f"][idx]
        da_f = (dc * C[idx]) * f_idx * (1.0 - f_idx)
        d_cell[idx] = dc * f_idx
        d_hidden[idx] = d_htilde * (1.0 / q) + params.U["f"].T @ da_f
        params.dU["f"] += np.outer(da_f, H[idx])
        da_f_sum += da_f
    d_m = (params.W["g"].T @ da_g + params.W["o"].T @ da_o
           + params.W["u"].T @ da_u + params.W["f"].T @ da_f_sum)
    for gate, da in (("g", da_g), ("o", da_o), ("u", da_u)):
        params.dW[gate] += np.outer(da, cache["m"])
        params.dU[gate] += np.outer(da, cache["h_tilde"])
        params.db[gate] += da
    params.dW["f"] += np.outer(da_f_sum, cache["m"])
    params.db["f"] += da_f_sum
    return d_m, d_hidden, d_cell


def oracle_cell_forward(m_t, hidden, cell, params):
    """Drop-in for cell_forward that steps each agent alone; the cache is
    the list of per-agent caches."""
    steps = [per_agent_forward(m_t[i], hidden[i], cell[i], params) for i in range(len(m_t))]
    return np.stack([s[0] for s in steps]), np.stack([s[1] for s in steps]), [s[2] for s in steps]


def oracle_cell_backward(caches, d_h, d_c, params):
    """Drop-in for cell_backward over oracle_cell_forward's caches, agent by agent."""
    outs = [per_agent_backward(c, d_h[i], d_c[i], params) for i, c in enumerate(caches)]
    return tuple(np.stack(parts) for parts in zip(*outs))


# ---------------------------------------------------------------------------
# social refinement


def refine_oracle(hiddens, w_theta, w_phi, w_g):
    """hiddens is (n, q, h); returns the refined copy. Every agent refines
    against every agent, itself included, with softmax weights over the
    scores (a direct double loop, no shared terms with the implementation)."""
    n, q, _ = hiddens.shape
    out = hiddens.copy()
    for i in range(n):
        for s in range(q):
            scores = [float((w_theta @ hiddens[i, s]) @ (w_phi @ hiddens[j, s]))
                      for j in range(n)]
            top = max(scores)
            z = 0.0
            for j in range(n):
                z += np.exp(scores[j] - top)
            acc = np.zeros(hiddens.shape[2])
            for j in range(n):
                acc += np.exp(scores[j] - top) / z * (w_g @ hiddens[j, s])
            out[i, s] = hiddens[i, s] + acc
    return out


def loop_refine(hidden, d_hidden_out, params):
    """Refine slot by slot and agent by agent, then backpropagate d_hidden_out.

    Returns (refined, d_in) and accumulates into the params' gradient slots:
    one matrix-vector product per (slot, agent), rank-1 updates added in
    agent order.
    """
    X = np.asarray(hidden, dtype=np.float64)
    n, q, h = X.shape
    refined = X.copy()
    d_in = np.zeros_like(X)
    for s in range(q):
        Xs = X[:, s]
        T = Xs @ params.W_theta.T
        P = Xs @ params.W_phi.T
        G = Xs @ params.W_g.T
        weights = []
        for i in range(n):
            r = P @ T[i]
            e = np.exp(r - r.max())
            w = e / e.sum()
            refined[i, s] = Xs[i] + w @ G
            weights.append(w)

        dX = d_hidden_out[:, s].copy()  # residual path
        dT = np.zeros((n, h))
        dP = np.zeros((n, h))
        dG = np.zeros((n, h))
        for i, w in enumerate(weights):
            dy = d_hidden_out[i, s]
            dw = G @ dy
            dG += np.outer(w, dy)
            dr = w * (dw - np.dot(w, dw))
            dT[i] += dr @ P
            dP += np.outer(dr, T[i])
        params.dW_theta += dT.T @ Xs
        params.dW_phi += dP.T @ Xs
        params.dW_g += dG.T @ Xs
        dX += dT @ params.W_theta
        dX += dP @ params.W_phi
        dX += dG @ params.W_g
        d_in[:, s] = dX
    return refined, d_in


# ---------------------------------------------------------------------------
# cosine and the coherence loss, one pair at a time


def cosine_grad_oracle(a, b, eps=1e-12):
    """One vector pair at a time, with np.dot and np.linalg.norm."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < eps or nb < eps:
        return 0.0, np.zeros_like(a), np.zeros_like(b)
    c = float(np.dot(a, b) / (na * nb))
    return c, b / (na * nb) - c * a / (na * na), a / (na * nb) - c * b / (nb * nb)


def coherence_forward_oracle(features, q, cfg, rng):
    """Per-pair reference: three scalar draws and one vector cosine per pair;
    with fewer than 2 frames it warns and scores no pair."""
    features = np.asarray(features, dtype=np.float64)
    n, t, _ = features.shape
    if t < 2:
        warnings.warn("coherence loss needs >= 2 frames of features")
        return 0.0, []
    pairs = []
    total = 0.0
    for _ in range(cfg.pairs_per_batch):
        i = int(rng.integers(0, n))
        t1 = int(rng.integers(0, t))
        t2 = int(rng.integers(0, t - 1))
        if t2 >= t1:
            t2 += 1
        c, da, db = cosine_grad_oracle(features[i, t1], features[i, t2])
        if abs(t1 - t2) < q:
            total += 1.0 - c
            scale = -1.0
        else:
            hinge = c - cfg.margin
            total += max(0.0, hinge)
            scale = 1.0 if hinge > 0 else 0.0
        pairs.append((i, t1, t2, scale, da, db))
    return total / cfg.pairs_per_batch, pairs


def coherence_backward_oracle(cache, d_value, features_grad):
    if not cache:
        return
    scale = d_value / len(cache)
    for i, t1, t2, s, da, db in cache:
        if s == 0.0:
            continue
        features_grad[i, t1] += scale * s * da
        features_grad[i, t2] += scale * s * db


# ---------------------------------------------------------------------------
# metrics, one agent and one axis at a time


def pearson_oracle(a, b):
    da = a - a.mean()
    db = b - b.mean()
    va = (da * da).mean()
    vb = (db * db).mean()
    if va < 1e-12 or vb < 1e-12:
        return 0.0
    return float((da * db).mean() / np.sqrt(va * vb))


def tcc_oracle(gt, pred):
    """Per-agent, per-axis reference on strided 1-D views."""
    n = gt.shape[0]
    tx = np.mean([pearson_oracle(pred[i, :, 0], gt[i, :, 0]) for i in range(n)])
    ty = np.mean([pearson_oracle(pred[i, :, 1], gt[i, :, 1]) for i in range(n)])
    return float(0.5 * (tx + ty))


def per_agent_best_metrics_oracle(gt, preds, horizons=()):
    n, t = gt.shape[0], gt.shape[1]
    dist = np.linalg.norm(preds - gt[None], axis=3)
    best = dist.mean(axis=2).argmin(axis=0)
    agents = np.arange(n)
    chosen = preds[best, agents]
    chosen_dist = dist[best, agents]
    out = {
        "ade": chosen_dist.mean(axis=1),
        "fde": chosen_dist[:, -1],
        "tcc": np.array([tcc_oracle(gt[i:i + 1], chosen[i:i + 1]) for i in range(n)]),
        "best": best,
    }
    hz = {}
    for k in horizons:
        if not 1 <= k <= t:
            continue
        hz[k] = {
            "ade": chosen_dist[:, :k].mean(axis=1),
            "fde": chosen_dist[:, k - 1],
            "tcc": (np.array([tcc_oracle(gt[i:i + 1, :k], chosen[i:i + 1, :k])
                              for i in range(n)])
                    if k >= 2 else np.full(n, np.nan)),
        }
    out["horizons"] = hz
    return out


def best_of_m_metrics_oracle(gt, preds, horizons=()):
    stats = per_agent_best_metrics_oracle(gt, preds, horizons)
    per_h = {}
    for k, vals in stats["horizons"].items():
        t_vals = vals["tcc"]
        per_h[k] = (float(vals["ade"].mean()), float(vals["fde"].mean()),
                    float(np.nanmean(t_vals)) if not np.all(np.isnan(t_vals)) else None)
    return MetricsReport(ade=float(stats["ade"].mean()), fde=float(stats["fde"].mean()),
                         tcc=float(stats["tcc"].mean()), n_agents=gt.shape[0],
                         per_horizon=per_h)


# ---------------------------------------------------------------------------
# the decoder, one (sample, agent) row at a time


def oracle_decode(model, h_obs, z, steps, last_pos, last_disp, want_cache=False):
    """MotionModel.decode's contract, one row at a time; the cache is a list
    of (s, h0, step records) per row."""
    dec = model.decoder
    W, U, b = dec.cell.W, dec.cell.U, dec.cell.b
    positions = np.zeros((len(h_obs), steps, 2))
    rows = []
    for r in range(len(h_obs)):
        s = np.concatenate([h_obs[r], z[r]])
        h0 = np.tanh(dec.W_fuse @ s + dec.b_fuse)
        h, c, x = h0, np.zeros(dec.cell.h), np.asarray(last_disp[r], dtype=np.float64)
        disps = np.zeros((steps, 2))
        records = []
        for t in range(steps):
            gi = sigmoid(W["g"] @ x + U["g"] @ h + b["g"])
            gf = sigmoid(W["f"] @ x + U["f"] @ h + b["f"])
            go = sigmoid(W["o"] @ x + U["o"] @ h + b["o"])
            gu = np.tanh(W["u"] @ x + U["u"] @ h + b["u"])
            c_new = gf * c + gi * gu
            tanh_c = np.tanh(c_new)
            h_new = go * tanh_c
            delta = dec.W_out @ h_new + dec.b_out
            records.append(dict(x=x, h_prev=h, c_prev=c, gi=gi, gf=gf, go=go, gu=gu,
                                c=c_new, tanh_c=tanh_c, h=h_new))
            disps[t] = delta
            x, h, c = delta, h_new, c_new
        positions[r] = last_pos[r] + np.cumsum(disps, axis=0)
        rows.append((s, h0, records))
    return positions, (rows if want_cache else None)


def oracle_backward_row(model, rows, row, d_pos):
    """Gradient of one oracle row; returns (d_h_obs_i, d_z_k)."""
    dec = model.decoder
    W, U, cell = dec.cell.W, dec.cell.U, dec.cell
    s, h0, records = rows[row]
    d_disp = np.cumsum(d_pos[::-1], axis=0)[::-1]
    d_x_next = np.zeros(2)
    d_h = np.zeros(dec.cell.h)
    d_c = np.zeros(dec.cell.h)
    for t in range(len(records) - 1, -1, -1):
        st = records[t]
        d_delta = d_disp[t] + d_x_next
        dec.dW_out += np.outer(d_delta, st["h"])
        dec.db_out += d_delta
        d_h = d_h + dec.W_out.T @ d_delta
        d_go = d_h * st["tanh_c"]
        da_o = d_go * st["go"] * (1.0 - st["go"])
        d_c = d_c + d_h * st["go"] * (1.0 - st["tanh_c"] ** 2)
        d_gi = d_c * st["gu"]
        da_i = d_gi * st["gi"] * (1.0 - st["gi"])
        d_gu = d_c * st["gi"]
        da_u = d_gu * (1.0 - st["gu"] ** 2)
        d_gf = d_c * st["c_prev"]
        da_f = d_gf * st["gf"] * (1.0 - st["gf"])
        d_c = d_c * st["gf"]
        d_x_next = (
            W["g"].T @ da_i + W["f"].T @ da_f
            + W["o"].T @ da_o + W["u"].T @ da_u
        )
        d_h = (
            U["g"].T @ da_i + U["f"].T @ da_f
            + U["o"].T @ da_o + U["u"].T @ da_u
        )
        for gate, da in (("g", da_i), ("f", da_f), ("o", da_o), ("u", da_u)):
            cell.dW[gate] += np.outer(da, st["x"])
            cell.dU[gate] += np.outer(da, st["h_prev"])
            cell.db[gate] += da
    d_a0 = d_h * (1.0 - h0 ** 2)
    dec.dW_fuse += np.outer(d_a0, s)
    dec.db_fuse += d_a0
    d_s = dec.W_fuse.T @ d_a0
    return d_s[:dec.h_enc], d_s[dec.h_enc:]


def oracle_backward(model, rows, d_pos):
    """MotionModel._decode_backward_agent's contract on an oracle cache: the
    per-row backward of every row with a non-zero upstream gradient, zero
    returns for the other rows."""
    d_h_obs = np.zeros((len(rows), model.decoder.h_enc))
    d_z = np.zeros((len(rows), len(rows[0][0]) - model.decoder.h_enc))
    for r in range(len(rows)):
        if d_pos[r].any():
            d_h_obs[r], d_z[r] = oracle_backward_row(model, rows, r, d_pos[r])
    return d_h_obs, d_z


def decode_all_rows(model, h_obs, zs, steps, last_pos, last_disp, want_cache=False):
    """decode of every (sample, agent) row, sample-major, of n agents under
    the (m, z_dim) draws zs; positions come back as (m, n, steps, 2)."""
    m, n = len(zs), len(h_obs)
    positions, cache = model.decode(np.tile(h_obs, (m, 1)), np.repeat(zs, n, axis=0), steps,
                                    np.tile(last_pos, (m, 1)), np.tile(last_disp, (m, 1)),
                                    want_cache=want_cache)
    return positions.reshape(m, n, steps, 2), cache


# ---------------------------------------------------------------------------
# the latent, one draw at a time


def predict_oracle(model, scene, m, rng):
    """Per-draw reference: one z_dim latent draw per sample."""
    obs_disp = to_relative(scene.positions)[:, :scene.obs_len]
    state = model.observe(obs_disp)
    if model.scene_enc is not None:
        mu, sigma, _ = model_module.encode_scene(scene.smap, obs_disp, model.scene_enc)
        zs = np.stack([mu + sigma * rng.normal(model.cfg.z_dim) for _ in range(m)])
    else:
        zs = np.zeros((m, 0))
    positions, _ = decode_all_rows(model, state.h_obs, zs, scene.pred_len,
                                   scene.positions[:, scene.obs_len - 1], obs_disp[:, -1])
    return positions, zs


def loss_and_grad_oracle(model, scene, loss_cfg, rng):
    """The objective of one scene with per-draw latents, the per-pair
    coherence oracle and d_sigma summed draw by draw; the backward runs over
    every cached (sample, agent) row, zero off each agent's best sample."""
    obs_disp = to_relative(scene.positions)[:, :scene.obs_len]
    state = model.observe(obs_disp, want_tape=True)
    if model.scene_enc is not None:
        mu, sigma, scene_cache = model_module.encode_scene(scene.smap, obs_disp,
                                                           model.scene_enc)
        eps_draws = [rng.normal(model.cfg.z_dim) for _ in range(loss_cfg.m)]
        zs = np.stack([mu + sigma * e for e in eps_draws])
    else:
        zs = np.zeros((1, 0))
    preds, dec_cache = decode_all_rows(model, state.h_obs, zs, scene.pred_len,
                                       scene.positions[:, scene.obs_len - 1], obs_disp[:, -1],
                                       want_cache=True)
    var_value, var_cache = variety_forward(scene.future(), preds)
    coh_value, coh_cache = coherence_forward_oracle(state.features, model.cfg.q, loss_cfg, rng)
    total = loss_cfg.lam * coh_value + var_value
    m, n, steps, _ = preds.shape
    d_h_rows, d_z_rows = model._decode_backward_agent(
        dec_cache, variety_backward(var_cache, 1.0).reshape(m * n, steps, 2))
    d_h_obs = d_h_rows.reshape(m, n, -1).sum(axis=0)
    d_zs = d_z_rows.reshape(m, n, -1).sum(axis=1)
    d_features = np.zeros_like(state.features)
    coherence_backward_oracle(coh_cache, loss_cfg.lam, d_features)
    if model.scene_enc is not None:
        d_mu = d_zs.sum(axis=0)
        d_sigma = np.zeros_like(d_mu)
        for k, e in enumerate(eps_draws):
            d_sigma += d_zs[k] * e
        encode_scene_backward(scene_cache, d_mu, d_sigma, model.scene_enc)
    model._observe_backward(state, d_h_obs, d_features)
    return {"total": float(total), "coherence": float(coh_value), "variety": float(var_value)}


def batch_loss_and_grad_oracle(model, scenes, loss_cfg, rng):
    """A batch's objective as a loop of loss_and_grad_oracle over its scenes:
    the parts and the gradient are the means over the scenes."""
    store = model.store
    sums = {name: np.zeros_like(store.grad(name)) for name in store.names()}
    parts = []
    for scene in scenes:
        store.zero_grads()
        parts.append(loss_and_grad_oracle(model, scene, loss_cfg, rng))
        for name in sums:
            sums[name] += store.grad(name)
    for name in sums:
        store.grad(name)[...] = sums[name] / len(scenes)
    return {key: float(np.mean([p[key] for p in parts])) for key in parts[0]}
