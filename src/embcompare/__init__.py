"""Consistency metrics for word embeddings trained under different seeds.

The package compares two embedding spaces through three lenses: the full
grid of dimension-pair Pearson correlations, the best one-to-one matching
of dimensions (an exact assignment problem), and canonical correlation
analysis for many-to-one structure.  Analogy-task answer agreement
(Krippendorff's alpha) connects those intrinsic scores to task behavior.

The public names below load on first use: ``import embcompare`` imports
neither numpy nor any submodule, so the command line (``embcompare.cli``)
can set its process's BLAS environment before numpy loads, and a library
import leaves its host's settings alone.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCES = {
    "Matching": "alignment",
    "max_weight_assignment": "alignment",
    "one_to_one_score": "alignment",
    "AgreementResult": "analogy_eval",
    "AnalogyQuestion": "analogy_eval",
    "AnswerRecord": "analogy_eval",
    "agreement_report": "analogy_eval",
    "answer_question": "analogy_eval",
    "evaluate": "analogy_eval",
    "krippendorff_alpha": "analogy_eval",
    "parse_analogy_file": "analogy_eval",
    "CcaResult": "cca",
    "cca_fit": "cca",
    "CorrelationMatrix": "column_stats",
    "HistogramSummary": "column_stats",
    "correlation_matrix": "column_stats",
    "histogram": "column_stats",
    "AlignedPair": "embedding_io",
    "EmbeddingMatrix": "embedding_io",
    "NumericalError": "embedding_io",
    "ParseError": "embedding_io",
    "align_vocabularies": "embedding_io",
    "parse_embedding": "embedding_io",
    "row_normalize": "embedding_io",
    "write_glove_text": "embedding_io",
    "Linear": "synthgen",
    "Permutation": "synthgen",
    "SignFlip": "synthgen",
    "SynthSpec": "synthgen",
    "derive_pair": "synthgen",
    "random_embedding": "synthgen",
    "random_invertible": "synthgen",
    "random_permutation": "synthgen",
    "random_sign_mask": "synthgen",
}

__all__ = ["__version__", *_SOURCES]


def __getattr__(name: str):
    """Import a public name's submodule on first access (PEP 562)."""
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCES})
