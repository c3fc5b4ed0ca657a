"""Walk through dataset ingestion, popularity statistics, and the splits.

Generates a small synthetic interaction set, loads it through the same
path the CLI uses, and shows what each split protocol produces.
"""
import tempfile
from pathlib import Path

from tplrec import ingest, popularity, split_interactions, split_query_test, split_users
from tplrec.data import RARE_THRESHOLD
from tplrec.synth import planted_communities

ds = planted_communities(n_projects=30, n_libraries=24, n_communities=3,
                         interactions_per_project=6, noise=0.1, seed=0)

# round-trip through the on-disk format
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "interactions.tsv"
    path.write_text("\n".join(f"{ds.projects[u]}\t{ds.libraries[i]}"
                              for u, i in ds.interactions) + "\n")
    ds = ingest(path)

print(f"{ds.n_projects} projects, {ds.n_libraries} libraries, "
      f"{ds.n_interactions} interactions")

pop = popularity(ds)
print(f"rarest library rate: {pop.rates.min():.3f}")
print(f"most popular library rate: {pop.rates.max():.3f}")
print(f"rare libraries (rate < {RARE_THRESHOLD}): {int((pop.rates < RARE_THRESHOLD).sum())}")

# user-split folds: each test project is entirely held out
folds = split_users(ds, fold_count=5, seed=0)
print(f"\n5 user folds, test sizes: {[len(f.test_projects) for f in folds]}")

# a cold-start project reveals only part of its interaction list; both
# splits keep round-half-up(fraction * n), at least 1 and at most n - 1
items = ds.by_project[0]
query, test = split_query_test(items, 0.3, seed_or_rng=0)
print(f"project 0 has {len(items)} interactions; "
      f"query reveals {len(query)}, ground truth holds {len(test)}")

# interaction-split keeps every project in training: a mask over the edges
train = split_interactions(ds, 0.7, seed=0)
print(f"\ninteraction split: {int(train.sum())} train / {int((~train).sum())} test interactions")
