"""Train collaborative embeddings on planted community structure.

The generator plants disjoint project/library communities; after
training, within-community scores should dominate cross-community ones.
"""
import numpy as np

from tplrec import EmbedConfig, train_embeddings
from tplrec.synth import planted_communities

ds = planted_communities(n_projects=60, n_libraries=40, n_communities=2,
                         interactions_per_project=8, noise=0.05, seed=1)

cfg = EmbedConfig(dim=32, batch_size=256, negatives=64, learning_rate=1e-3,
                  patience=10, max_epochs=60, seed=0)
result = train_embeddings(ds, cfg)

print(f"stopped after epoch {result.history[-1][0]}, "
      f"best validation recall@10 {result.best_recall:.3f} at epoch {result.best_epoch}")

table = result.table
comm_p = np.arange(ds.n_projects) % 2
comm_l = np.arange(ds.n_libraries) % 2

within, cross = [], []
for u in range(ds.n_projects):
    for i in range(ds.n_libraries):
        s = table.projects[u] @ table.libraries[i]
        (within if comm_p[u] == comm_l[i] else cross).append(s)

print(f"mean within-community score: {np.mean(within):+.3f}")
print(f"mean cross-community score:  {np.mean(cross):+.3f}")

# all rows are unit vectors, so scores are plain cosines
norms = np.linalg.norm(table.libraries, axis=1)
print(f"library row norms in [{norms.min():.6f}, {norms.max():.6f}]")
