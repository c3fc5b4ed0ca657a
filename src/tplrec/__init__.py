"""Offline third-party library recommendation engine.

Collaborative embeddings over the project-library interaction graph,
cold-start state construction by representative aggregation, and a
conservative-Q-learning agent with a popularity-aware partitioned
replay buffer.
"""

from .agent import (
    QNetwork,
    ReplayBuffer,
    Transition,
    cql_loss,
    gen_transition,
    load_qnetwork,
    recommend,
    reward,
    save_qnetwork,
    train_agent,
)
from .coldstart import RepresentativeTable, aggregate, build_representatives
from .config import AgentConfig, EmbedConfig, ProtocolConfig
from .data import (
    InteractionDataset,
    PopularityTable,
    ingest,
    popularity,
    split_interactions,
    split_query_test,
    split_users,
)
from .embed import (
    EmbeddingTable,
    build_adjacency,
    debiased_contrastive_loss,
    propagate,
    train_embeddings,
)
from .errors import ConfigError, DataError, NumericError, ParseError
from .evaluation import (
    MetricsReport,
    coverage_at_k,
    epc_at_k,
    precision_recall_at_k,
    run_protocol,
)
from .synth import head_tail, planted_communities

