"""Reference implementations that tests compare the library against."""
import numpy as np


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
