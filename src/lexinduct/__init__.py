"""Unsupervised bilingual lexicon induction.

Two routes from cross-lingual word embeddings to a dictionary: direct
retrieval (nearest neighbor, inverted nearest neighbor, inverted softmax,
CSLS) and a phrase-based machine-translation pipeline (phrase-table
induction from phrase embeddings, Kneser-Ney language model, beam-search
decoding, unsupervised weight tuning, IBM-2 word alignment with
grow-diag-final-and, a dictionary from the one-to-one links, and
precision@1 evaluation).
"""

from .aligner import (
    AlignmentModel,
    align_corpus,
    grow_diag_final_and,
    read_links,
    train_ibm2,
    write_links,
)
from .corpus import (
    Corpus,
    build_vocabulary,
    count_ngrams,
    load_corpus,
    sample_sentences,
    tokenize,
    write_corpus,
)
from .decoder import (
    FEATURE_NAMES,
    DecodeResult,
    DerivationStep,
    FeatureWeights,
    TranslationSystem,
    decode,
    translate_corpus,
)
from .embeddings import (
    EmbeddingStore,
    ScoredCandidates,
    cosine_matrix,
    k_nearest,
    load_cache,
    load_embeddings,
    save_cache,
    unit_normalize,
)
from .evaluation import GoldDictionary, precision_at_1, read_gold
from .lexicon import (
    ExtractedCounts,
    InducedDictionary,
    count_extractions,
    dictionary_from_counts,
    extract_phrases,
    read_extracted_counts,
    write_extracted_counts,
)
from .lm import NGramModel, load_lm, perplexity, save_lm, train_lm
from .phrases import (
    PhraseTable,
    PhraseTableEntry,
    TableInduction,
    TemperatureParam,
    build_phrase_inventory,
    build_phrase_store,
    floored_probs,
    induce_tables,
    softmax_scores,
)
from .pipeline import (
    DirectionResult,
    PipelineConfig,
    PipelineResult,
    PipelineStageError,
    read_config,
    run_pipeline,
    write_config,
)
from .retrieval import (
    METHODS,
    RetrievalConfig,
    induce_dictionary,
    rank_candidates,
)
from .tuner import TuningObjective, objective, sentence_bleu, tune

__version__ = "0.1.0"

__all__ = [
    "AlignmentModel",
    "Corpus",
    "DecodeResult",
    "DerivationStep",
    "DirectionResult",
    "EmbeddingStore",
    "ExtractedCounts",
    "FEATURE_NAMES",
    "FeatureWeights",
    "GoldDictionary",
    "InducedDictionary",
    "METHODS",
    "NGramModel",
    "PhraseTable",
    "PhraseTableEntry",
    "PipelineConfig",
    "PipelineResult",
    "PipelineStageError",
    "RetrievalConfig",
    "ScoredCandidates",
    "TableInduction",
    "TemperatureParam",
    "TranslationSystem",
    "TuningObjective",
    "align_corpus",
    "build_phrase_inventory",
    "build_phrase_store",
    "build_vocabulary",
    "cosine_matrix",
    "count_extractions",
    "count_ngrams",
    "decode",
    "dictionary_from_counts",
    "extract_phrases",
    "floored_probs",
    "grow_diag_final_and",
    "induce_dictionary",
    "induce_tables",
    "k_nearest",
    "load_cache",
    "load_corpus",
    "load_embeddings",
    "load_lm",
    "objective",
    "perplexity",
    "precision_at_1",
    "rank_candidates",
    "read_config",
    "read_extracted_counts",
    "read_gold",
    "read_links",
    "run_pipeline",
    "sample_sentences",
    "save_cache",
    "save_lm",
    "sentence_bleu",
    "softmax_scores",
    "tokenize",
    "train_ibm2",
    "train_lm",
    "translate_corpus",
    "tune",
    "unit_normalize",
    "write_config",
    "write_corpus",
    "write_extracted_counts",
    "write_links",
]
