"""Unsupervised multi-document abstractive summarization.

Two phases over a raw corpus: (1) pretrain a transformer encoder on masked
token recovery and group the documents into hard clusters in its embedding
space, with per-document membership weights that damp outliers; (2) train a
transformer decoder, conditioned on frozen document embeddings through
cross-attention, to reconstruct documents, then decode one summary per
cluster from the cluster-center embedding using combined top-K/nucleus
sampling and cosine re-ranking.
"""

__version__ = "0.1.0"

from .config import PipelineConfig, build_config
from .encoder import EncoderModel, ModelConfig
from .decoder import DecoderModel, init_from_encoder
from .clusterer import ClusterSet
from .generator import SummaryCandidate
from .tokenizer import Vocabulary, build_vocab, encode, decode

__all__ = [
    "__version__",
    "PipelineConfig",
    "build_config",
    "EncoderModel",
    "ModelConfig",
    "DecoderModel",
    "init_from_encoder",
    "ClusterSet",
    "SummaryCandidate",
    "Vocabulary",
    "build_vocab",
    "encode",
    "decode",
]
