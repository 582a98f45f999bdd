"""Consistency metrics for word embeddings trained under different seeds.

The package compares two embedding spaces through three lenses: the full
grid of dimension-pair Pearson correlations, the best one-to-one matching
of dimensions (an exact assignment problem), and canonical correlation
analysis for many-to-one structure.  Analogy-task answer agreement
(Krippendorff's alpha) connects those intrinsic scores to task behavior.
"""

__version__ = "0.1.0"

from .alignment import Matching, max_weight_assignment, one_to_one_score
from .analogy_eval import (
    AgreementResult,
    AnalogyQuestion,
    AnswerRecord,
    agreement_report,
    answer_question,
    evaluate,
    krippendorff_alpha,
    parse_analogy_file,
)
from .cca import CcaResult, NumericalError, cca_fit, project
from .column_stats import (
    CorrelationMatrix,
    HistogramSummary,
    correlation_matrix,
    histogram,
    pearson,
)
from .embedding_io import (
    AlignedPair,
    EmbeddingMatrix,
    ParseError,
    align_vocabularies,
    parse_embedding,
    row_normalize,
    write_glove_text,
)
from .synthgen import (
    Linear,
    Permutation,
    SignFlip,
    SynthSpec,
    derive_pair,
    random_embedding,
    random_invertible,
    random_permutation,
    random_sign_mask,
)

__all__ = [
    "__version__",
    "AlignedPair",
    "AgreementResult",
    "AnalogyQuestion",
    "AnswerRecord",
    "CcaResult",
    "CorrelationMatrix",
    "EmbeddingMatrix",
    "HistogramSummary",
    "Linear",
    "Matching",
    "NumericalError",
    "ParseError",
    "Permutation",
    "SignFlip",
    "SynthSpec",
    "agreement_report",
    "align_vocabularies",
    "answer_question",
    "cca_fit",
    "correlation_matrix",
    "derive_pair",
    "evaluate",
    "histogram",
    "krippendorff_alpha",
    "max_weight_assignment",
    "one_to_one_score",
    "parse_analogy_file",
    "parse_embedding",
    "pearson",
    "project",
    "random_embedding",
    "random_invertible",
    "random_permutation",
    "random_sign_mask",
    "row_normalize",
    "write_glove_text",
]
