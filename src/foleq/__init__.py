"""Logical-equivalence scoring for first-order formulas, plus a small
group-relative policy-optimization engine that uses the score as its
reward signal."""

from .corpus import BleuConfig, CorpusReport, EvalPair, corpus_bleu, corpus_le, load_pairs, tokenize_formula
from .equivalence import (
    BindingMap,
    BindingResult,
    CandidateGraph,
    CompiledReference,
    LeConfig,
    LeReport,
    bind_optimized,
    bind_original,
    compile_reference,
    le_score,
    propositional_score,
    score_group,
)
from .service import ScoreRequest, ScoreResponse, ServiceConfig, handle_request, serve, serve_socket
from .sgrpo import (
    Hyperparams,
    ObjectiveParts,
    PolicyParams,
    PromptSpec,
    SampleGroup,
    TrainDemoConfig,
    default_demo_config,
    group_advantages,
    kl_estimate,
    objective_gradient,
    sample_group,
    sft_term,
    sgrpo_objective,
    train_demo,
)
from .similarity import SimilarityConfig, is_related, levenshtein, ngram_cosine
from .syntax import (
    Atom,
    AtomicUnit,
    Binary,
    CapExceeded,
    FolExpr,
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
