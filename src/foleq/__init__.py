"""Logical-equivalence scoring for first-order formulas, plus a small
group-relative policy-optimization engine that uses the score as its
reward signal."""

from .corpus import BleuConfig, CorpusReport, EvalPair, corpus_bleu, corpus_le, load_pairs, tokenize_formula
from .equivalence import (
    BindingMap,
    CandidateGraph,
    CompiledReference,
    LeConfig,
    LeReport,
    Scorer,
    bind_optimized,
    bind_original,
    compile_reference,
    le_score,
    propositional_score,
    score_group,
)
from .service import BindError, ScoreRequest, ScoreResponse, ServiceConfig, handle_request, serve, serve_socket
from .similarity import is_related, levenshtein, ngram_cosine
from .syntax import (
    Atom,
    Binary,
    CapExceeded,
    FolExpr,
    FormulaError,
    LexError,
    Not,
    ParseError,
    Quantified,
    atoms_of,
    canonicalize,
    enumerate_bracketings,
    lex,
    parse,
    render,
)

__version__ = "0.1.0"

# The trainer's names load numpy, which parsing, scoring and serving never
# use, so ``sgrpo`` is imported on the first lookup of one of them.
_SGRPO_NAMES = frozenset({
    "Hyperparams", "ObjectiveParts", "PolicyParams", "PromptSpec", "SampleGroup", "TrainDemoConfig",
    "default_demo_config", "group_advantages", "kl_estimate", "objective_gradient", "sample_group",
    "sft_term", "sgrpo_objective", "train_demo",
})

# Every export.  A star-import binds each name, so it loads the trainer too.
__all__ = [
    "Atom", "Binary", "BindError", "BindingMap", "BleuConfig", "CandidateGraph", "CapExceeded",
    "CompiledReference", "CorpusReport", "EvalPair", "FolExpr", "FormulaError", "LeConfig", "LeReport",
    "LexError", "Not", "ParseError", "Quantified", "ScoreRequest", "ScoreResponse", "Scorer", "ServiceConfig",
    "atoms_of", "bind_optimized", "bind_original", "canonicalize", "compile_reference",
    "corpus_bleu", "corpus_le", "enumerate_bracketings", "handle_request", "is_related", "le_score",
    "levenshtein", "lex", "load_pairs", "ngram_cosine", "parse", "propositional_score", "render",
    "score_group", "serve", "serve_socket", "tokenize_formula", *sorted(_SGRPO_NAMES),
]


def __getattr__(name: str):
    if name in _SGRPO_NAMES:
        from . import sgrpo

        return getattr(sgrpo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SGRPO_NAMES})
