"""Reference implementations that tests compare the library against."""
import warnings

import numpy as np

from tplrec.coldstart import aggregate
from tplrec.data import rows
from tplrec.errors import DataError
from tplrec.optim import BETA1, BETA2, EPS


def by_library(ds):
    """Each library's sorted users: `data.rows` keyed by the library column."""
    return rows(ds.interactions[:, 1], ds.interactions[:, 0], ds.n_libraries)


def reward_expanded(action, known, table, train, blend):
    """Reward recomputed as the per-library vote sum (the expanded form of
    the blended-representative formula); must equal the direct form."""
    e_a = table.libraries[action]
    total = 0.0
    users_of = by_library(train)
    for i in known:
        users = users_of[int(i)]
        e_users = table.projects[list(users)]
        weights = np.maximum(e_users @ table.libraries[int(i)], 0.0)
        wsum = weights.sum()
        if wsum > 0.0:
            vote = float(weights @ (e_users @ e_a)) / wsum
        else:
            vote = float((e_users @ e_a).mean())
        total += blend * vote + (1.0 - blend) * float(table.libraries[int(i)] @ e_a)
    return 1.0 + total / len(list(known))


def rows_loop(pairs, count, key):
    """Per-edge grouping: for each row 0..count-1, the sorted other ends of
    the pairs whose element `key` (0 project, 1 library) is that row."""
    lists = [[] for _ in range(count)]
    for pair in pairs:
        lists[pair[key]].append(pair[1 - key])
    return [sorted(l) for l in lists]


def aggregate_mean(libraries, rep):
    """The mean of a library set's representatives as one NumPy mean over
    their rows (for d == 1 NumPy sums the column pairwise)."""
    return rep.vectors[[int(i) for i in libraries]].mean(axis=0)


def representative_loop(i, table, train, blend):
    """Library i's representative from its users one by one: the clamped
    cosine-weighted mean of their embeddings (the plain mean when every
    weight clamps to zero), blended with the library's own embedding."""
    users = [int(u) for u in by_library(train)[i]]
    e_i = table.libraries[i]
    w = np.array([max(float(table.projects[u] @ e_i), 0.0) for u in users])
    if w.sum() > 0:
        user_term = sum(w[j] * table.projects[u] for j, u in enumerate(users)) / w.sum()
    else:
        user_term = np.mean([table.projects[u] for u in users], axis=0)
    return blend * user_term + (1.0 - blend) * e_i


def contrastive_loss_inputs(user_vecs, pos_vecs, neg_vecs, pos_weight, tau):
    """The debiased contrastive loss per input vector: the batch-mean loss
    and its gradients with respect to the (B, d) users, the (B, d)
    positives and the (B, N, d) negatives, from the cosine derivative
    d cos(a, b)/da = b/(|a||b|) - cos * a/|a|^2 of each pair."""
    u = np.asarray(user_vecs, dtype=np.float64)
    p = np.asarray(pos_vecs, dtype=np.float64)
    ng = np.asarray(neg_vecs, dtype=np.float64)
    w = np.asarray(pos_weight, dtype=np.float64)
    b = u.shape[0]

    nu = np.linalg.norm(u, axis=1)
    npos = np.linalg.norm(p, axis=1)
    nneg = np.linalg.norm(ng, axis=2)

    cos_p = np.einsum("bd,bd->b", u, p) / (nu * npos)
    cos_n = np.einsum("bd,bnd->bn", u, ng) / (nu[:, None] * nneg)

    logits = np.concatenate([(w * cos_p / tau)[:, None], cos_n / tau], axis=1)
    mx = logits.max(axis=1, keepdims=True)
    lse = mx[:, 0] + np.log(np.exp(logits - mx).sum(axis=1))
    loss = float(np.mean(lse - logits[:, 0]))

    soft = np.exp(logits - lse[:, None])
    dcos_p = (soft[:, 0] - 1.0) / b * w / tau
    dcos_n = soft[:, 1:] / b / tau

    gu = dcos_p[:, None] * (p / (nu * npos)[:, None] - cos_p[:, None] * u / (nu ** 2)[:, None])
    gu += np.einsum("bn,bnd->bd", dcos_n, ng / (nu[:, None] * nneg)[:, :, None])
    gu -= (dcos_n * cos_n).sum(axis=1)[:, None] * u / (nu ** 2)[:, None]

    gp = dcos_p[:, None] * (u / (nu * npos)[:, None] - cos_p[:, None] * p / (npos ** 2)[:, None])

    gn = dcos_n[:, :, None] * (
        u[:, None, :] / (nu[:, None] * nneg)[:, :, None]
        - cos_n[:, :, None] * ng / (nneg ** 2)[:, :, None]
    )
    return loss, gu, gp, gn


def contrastive_loss_scattered(emb, users, pos, negs, pos_weight, tau):
    """`contrastive_loss_inputs` on the rows of the table, its three
    gradients summed into the table's rows with `np.add.at`."""
    loss, gu, gp, gn = contrastive_loss_inputs(emb[users], emb[pos], emb[negs], pos_weight, tau)
    grad = np.zeros_like(emb, dtype=np.float64)
    np.add.at(grad, users, gu)
    np.add.at(grad, pos, gp)
    np.add.at(grad, negs.ravel(), gn.reshape(-1, emb.shape[1]))
    return loss, grad


def contrastive_loss_one_shot(emb, users, pos, negs, pos_weight, tau):
    """The debiased contrastive loss and table gradient from one (B, k + 1, d)
    gather of unit vectors and a symmetric N x N pair-weight matrix built
    through SciPy's COO -> CSR conversion (which sorts and sums duplicates)."""
    import scipy.sparse as sp

    b, k = negs.shape
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    unit = emb / norms
    other = np.concatenate([pos[:, None], negs], axis=1)
    cos = np.einsum("bd,bkd->bk", unit[users], unit[other])

    logits = cos / tau
    logits[:, 0] = pos_weight * cos[:, 0] / tau
    mx = logits.max(axis=1, keepdims=True)
    lse = mx[:, 0] + np.log(np.exp(logits - mx).sum(axis=1))
    loss = float(np.mean(lse - logits[:, 0]))

    soft = np.exp(logits - lse[:, None])
    dcos = soft / (b * tau)
    dcos[:, 0] = (soft[:, 0] - 1.0) * pos_weight / (b * tau)

    mine, other = np.repeat(users, k + 1), other.ravel()
    s = sp.csr_matrix((np.tile(dcos.ravel(), 2), (np.r_[mine, other], np.r_[other, mine])),
                      shape=(len(emb), len(emb)))
    g = s @ unit
    return loss, (g - np.einsum("nd,nd->n", g, unit)[:, None] * unit) / norms


def holdout_validation_loop(rng, edges, n_projects, fraction):
    """The validation holdout taken edge by edge in a random order: an edge
    is taken while fewer than the target are, unless it is its project's
    last remaining one."""
    order = rng.permutation(len(edges))
    target = max(1, int(round(fraction * len(edges))))
    remaining = np.bincount(edges[:, 0], minlength=n_projects)
    val_mask = np.zeros(len(edges), dtype=bool)
    taken = 0
    for j in order:
        if taken >= target:
            break
        u = edges[j, 0]
        if remaining[u] <= 1:
            continue
        val_mask[j] = True
        remaining[u] -= 1
        taken += 1
    return edges[~val_mask], edges[val_mask]


def recall_at_10_dense(table, user_items, val_edges):
    """Validation Recall@10 from the dense N x M score matrix, masking each
    project's training items from its set; projects are summed in their
    order of first appearance in `val_edges`."""
    val = {}
    for u, i in val_edges.tolist():
        val.setdefault(u, []).append(i)
    if not val:
        return 0.0
    scores = table.projects @ table.libraries.T
    total = 0.0
    for u, items in val.items():
        row = scores[u].copy()
        row[list(user_items[u])] = -np.inf
        k = min(10, row.shape[0])
        top = np.argpartition(-row, k - 1)[:k]
        total += len(set(int(t) for t in top) & set(items)) / len(items)
    return total / len(val)


def recommend_loop(query, k, net, rep, mode="sequential", with_scores=False):
    """One query at a time: a single-row forward of aggregate(known) per
    step, the argmax over allowed actions (first maximum) as the pick."""
    query = [int(i) for i in query]
    if not query:
        raise DataError("query set must be nonempty")
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    allowed = rep.has_rep.copy()
    allowed[query] = False
    available = int(allowed.sum())
    if k > available:
        warnings.warn(f"only {available} recommendable libraries for k={k}; truncating")
        k = available

    if mode == "one-shot":
        q = net.forward(aggregate(query, rep))[0]
        idx = np.flatnonzero(allowed)
        order = idx[np.lexsort((idx, -q[idx]))]
        picks = [(int(a), float(q[a])) for a in order[:k]]
    elif mode == "sequential":
        known = list(query)
        picks = []
        for _ in range(k):
            q = net.forward(aggregate(known, rep))[0]
            a = int(np.argmax(np.where(allowed, q, -np.inf)))
            picks.append((a, float(q[a])))
            allowed[a] = False
            known.append(a)
    else:
        raise DataError(f"unknown recommendation mode: {mode}")
    if with_scores:
        return picks
    return [a for a, _ in picks]


def q_forward_cached(net, states):
    """The dueling forward as the expression v + a - mean(a) over fresh
    arrays; returns Q and the (states, z, h) cache."""
    p = net.params
    states = np.atleast_2d(states)
    z = states @ p["w1"].T + p["b1"]
    h = np.maximum(z, 0.0)
    v = h @ p["wv"] + p["bv"][0]
    a = h @ p["wa"].T + p["ba"]
    return v[:, None] + a - a.mean(axis=1, keepdims=True), (states, z, h)


def q_backward(net, cache, dq):
    """The dueling backward over fresh arrays, leaving `dq` as it is."""
    states, z, h = cache
    dv = dq.sum(axis=1)
    da = dq - dq.mean(axis=1, keepdims=True)
    grads = {
        "wv": h.T @ dv,
        "bv": np.array([dv.sum()]),
        "wa": da.T @ h,
        "ba": da.sum(axis=0),
    }
    dh = np.outer(dv, net.params["wv"]) + da @ net.params["wa"]
    dz = dh * (z > 0.0)
    grads["w1"] = dz.T @ states
    grads["b1"] = dz.sum(axis=0)
    return grads


def cql_loss_expr(batch, online, target, alpha, gamma, weights=None):
    """The CQL loss, gradients and regularizer of a Transition batch from the
    oracle forward and backward, with d loss / d Q as alpha * w * softmax(q)
    over fresh arrays."""
    from scipy.special import logsumexp, softmax

    from tplrec.agent import _q_targets

    b = len(batch)
    w = np.full(b, 1.0 / b) if weights is None else np.asarray(weights, dtype=np.float64)
    y = _q_targets(batch, online, target, gamma)
    actions = batch.action
    q, cache = q_forward_cached(online, batch.state)
    q_a = q[np.arange(b), actions]
    reg = logsumexp(q, axis=1) - q_a
    loss = float(w @ (alpha * reg + 0.5 * (y - q_a) ** 2))
    dq = alpha * w[:, None] * softmax(q, axis=1)
    dq[np.arange(b), actions] -= w * (alpha + (y - q_a))
    return loss, q_backward(online, cache, dq), reg


def sample_seq_rebuild(entries, cursor, k):
    """Sequential-partition picks rebuilt from the (project, row value)
    entries in arrival order: projects newest first, rotated to the
    cursor, then Round-Robin by depth, each project's transitions newest
    first. Returns the picks and the advanced cursor."""
    per, order = {}, []
    for project, t in reversed(entries):
        if project not in per:
            per[project] = []
            order.append(project)
        per[project].append(t)
    start = cursor % len(order)
    rotation = order[start:] + order[:start]
    picks, depth = [], 0
    while len(picks) < k:
        advanced = False
        for p in rotation:
            if depth < len(per[p]):
                picks.append(per[p][depth])
                advanced = True
                if len(picks) == k:
                    break
        if not advanced:
            depth = -1
        depth += 1
    return picks, (cursor + k) % len(order)


def adam_step_expr(state, params, grads, lr):
    """One Adam step as expressions over fresh arrays: the moments in
    `state` (with the step count "t") and the parameters are replaced by
    new arrays."""
    state["t"] = t = state.get("t", 0) + 1
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        g = grads[name]
        m = state.get(("m", name), np.zeros_like(p)) * BETA1 + (1.0 - BETA1) * g
        v = state.get(("v", name), np.zeros_like(p)) * BETA2 + (1.0 - BETA2) * g * g
        state["m", name], state["v", name] = m, v
        params[name] = p - lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
