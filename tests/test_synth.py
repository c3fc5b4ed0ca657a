import numpy as np

from tplrec.data import popularity
from tplrec.synth import head_tail, planted_communities


class TestPlantedCommunities:
    def test_shape_and_determinism(self):
        a = planted_communities(n_projects=50, n_libraries=40, n_communities=4,
                                interactions_per_project=8, noise=0.1, seed=0)
        b = planted_communities(n_projects=50, n_libraries=40, n_communities=4,
                                interactions_per_project=8, noise=0.1, seed=0)
        assert a.n_projects == 50
        assert np.array_equal(a.interactions, b.interactions)

    def test_noise_free_stays_in_community(self):
        ds = planted_communities(n_projects=40, n_libraries=40, n_communities=4,
                                 interactions_per_project=6, noise=0.0, seed=1)
        for u, i in ds.interactions:
            assert u % 4 == i % 4

    def test_noise_crosses_communities(self):
        ds = planted_communities(n_projects=100, n_libraries=40, n_communities=4,
                                 interactions_per_project=10, noise=0.3, seed=2)
        crossed = sum(1 for u, i in ds.interactions if u % 4 != i % 4)
        assert crossed > 0

    def test_interactions_per_project(self):
        ds = planted_communities(n_projects=30, n_libraries=60, n_communities=2,
                                 interactions_per_project=7, seed=3)
        for u in range(ds.n_projects):
            assert len(ds.by_project[u]) == 7


class TestHeadTail:
    def test_head_libraries_are_popular(self):
        ds = head_tail(n_projects=300, n_head=20, n_tail=180, head_prob=0.55, seed=0)
        pop = popularity(ds)
        head_idx = [j for j, name in enumerate(ds.libraries) if name.startswith("l") and int(name[1:]) < 20]
        rates = pop.rates[head_idx]
        assert rates.mean() > 0.5

    def test_tail_libraries_are_rare(self):
        ds = head_tail(n_projects=300, n_head=20, n_tail=180, head_prob=0.55, seed=0)
        pop = popularity(ds)
        tail_idx = [j for j, name in enumerate(ds.libraries) if int(name[1:]) >= 20]
        assert np.median(pop.rates[tail_idx]) < 0.1

    def test_determinism(self):
        a = head_tail(n_projects=100, seed=5)
        b = head_tail(n_projects=100, seed=5)
        assert np.array_equal(a.interactions, b.interactions)
