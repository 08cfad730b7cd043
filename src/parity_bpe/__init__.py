"""Byte-level BPE toolkit: classical and parity-aware training plus evaluation.

Training learns an ordered merge list either by global pair frequency or by
a min-max objective that always improves the worst-compressed language;
encoding and decoding are lossless for arbitrary byte input. The metrics
module scores tokenizers on compression, vocabulary usage, entropy,
morphological alignment, and cross-language cost inequality.
"""

from .corpus import (
    LabeledCorpus,
    NormUnit,
    ParallelDevCorpus,
    load_labeled_corpus,
    load_parallel_dev,
    pretokenize,
    unit_length,
)
from .errors import (
    ConfigError,
    CorpusError,
    DataError,
    InternalError,
    ModelFormatError,
    ParityBpeError,
)
from .metrics import (
    GoldSegmentation,
    MetricReport,
    UnigramDistribution,
    avg_token_rank,
    compression_rate,
    fertility,
    full_report,
    gini,
    load_gold_tsv,
    morph_boundary_scores,
    renyi_entropy,
    type_token_ratio,
    vocab_utilization,
)
from .parity import (
    CRTable,
    ParityConfig,
    compute_cr,
    train_no_dev,
    train_parity,
)
from .synthetic import SyntheticSpec, generate_synthetic
from .tokenizer import TokenizerModel
from .trainer import (
    TrainLog,
    TrainStep,
    train_classical,
)

__version__ = "0.1.0"

__all__ = [
    "LabeledCorpus",
    "NormUnit",
    "ParallelDevCorpus",
    "load_labeled_corpus",
    "load_parallel_dev",
    "pretokenize",
    "unit_length",
    "ConfigError",
    "CorpusError",
    "DataError",
    "InternalError",
    "ModelFormatError",
    "ParityBpeError",
    "GoldSegmentation",
    "MetricReport",
    "UnigramDistribution",
    "avg_token_rank",
    "compression_rate",
    "fertility",
    "full_report",
    "gini",
    "load_gold_tsv",
    "morph_boundary_scores",
    "renyi_entropy",
    "type_token_ratio",
    "vocab_utilization",
    "CRTable",
    "ParityConfig",
    "compute_cr",
    "train_no_dev",
    "train_parity",
    "SyntheticSpec",
    "generate_synthetic",
    "TokenizerModel",
    "TrainLog",
    "TrainStep",
    "train_classical",
    "__version__",
]
