"""Reference implementations that tests compare the library against."""
import warnings

import numpy as np

from tplrec.coldstart import aggregate
from tplrec.errors import DataError


def reward_expanded(action, known, table, train, blend):
    """Reward recomputed as the per-library vote sum (the expanded form of
    the blended-representative formula); must equal the direct form."""
    e_a = table.libraries[action]
    total = 0.0
    for i in known:
        users = train.by_library[int(i)]
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


def representative_loop(i, table, train, blend):
    """Library i's representative from its users one by one: the clamped
    cosine-weighted mean of their embeddings (the plain mean when every
    weight clamps to zero), blended with the library's own embedding."""
    users = [int(u) for u in train.by_library[i]]
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
    val = {}
    for u, i in edges[val_mask]:
        val.setdefault(int(u), []).append(int(i))
    return edges[~val_mask], val


def recall_at_10_dense(table, user_items, val):
    """Validation Recall@10 from the dense N x M score matrix, masking each
    project's training items from its set."""
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
