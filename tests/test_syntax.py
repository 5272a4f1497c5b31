import importlib.util
import random
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import foleq.syntax as syntax
from foleq.equivalence import compile_reference
from foleq.syntax import (
    BINARY_OPS,
    MAX_CHAIN_OPERATORS,
    MAX_READINGS,
    MAX_TOKENS,
    Atom,
    Binary,
    CapExceeded,
    FormulaError,
    LexError,
    Not,
    ParseError,
    QUANTIFIERS,
    Quantified,
    _Parser,
    atoms_of,
    canonicalize,
    chain_readings,
    enumerate_bracketings,
    lex,
    parse,
    render,
    split_chain,
)
from helpers import lex_by_char, random_formula


# --- lexing -------------------------------------------------------------------

def test_lex_unicode_and_ascii_agree():
    uni = lex("∀x (¬P(x) ∧ Q → R ↔ S ⊕ T ∨ U)")
    asc = lex("forall x (~P(x) & Q -> R <-> S ^ T | U)")
    assert [t[0] for t in uni] == [t[0] for t in asc]


def test_lex_positions_and_idents():
    tokens = lex("Happy(alice) -> Sad(bob_2)")
    assert tokens[0][0] == "ident" and tokens[0][1] == "Happy"
    assert tokens[0][2] == 0
    kinds = [t[0] for t in tokens]
    assert kinds == ["ident", "lparen", "ident", "rparen", "implies",
                     "ident", "lparen", "ident", "rparen"]


def test_lex_rejects_unknown_character():
    with pytest.raises(LexError):
        lex("P $ Q")


def test_lex_error_is_parse_error():
    assert issubclass(LexError, ParseError)


def test_lex_refuses_over_cap_text_with_its_exact_count():
    with pytest.raises(CapExceeded) as err:
        lex("A ∧ " * 250000 + "A")
    assert str(err.value) == "formula has 500001 tokens (cap 500)"


def test_a_stray_character_in_over_cap_text_is_reported_first():
    # 702 matches, past the cap, but the last one starts no token.
    with pytest.raises(LexError) as err:
        lex("¬" * 700 + "A$")
    assert (str(err.value), err.value.position) == ("unexpected character '$' (offset 701)", 701)


def test_over_cap_text_is_refused_by_its_count_of_tokens():
    with pytest.raises(CapExceeded) as err:
        lex("~" * 600 + "A")
    assert str(err.value) == "formula has 601 tokens (cap 500)"


def test_text_longer_than_the_cap_but_within_it_lexes_as_before():
    # 60 names of 14 or 15 characters and their operators: about 1,000
    # characters, but 119 tokens, so the count scan passes it to the lexer.
    names = [f"LongPredicate{i}" for i in range(60)]
    text = "  " + " ∧ ".join(names) + " \t"
    expected, offset = [], 2
    for i, name in enumerate(names):
        if i:
            expected.append(("and", "∧", offset + 1))
            offset += 3
        expected.append(("ident", name, offset))
        offset += len(name)
    assert len(text) > MAX_TOKENS
    assert lex(text) == expected


def test_regex_whitespace_is_exactly_str_isspace():
    # lex skips whitespace with the regex class \s; the per-character
    # lexer it replaced skipped what str.isspace accepts.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [ch for ch in every if ch.isspace()]


TOKEN_SOUP = [
    "∀", "∃", "¬", "~", "∧", "&", "∨", "|", "→", "->", "↔", "<->", "⊕", "^", "(", ")", ",",
    "<-", "<", "-", ">", " ", "\t", "\n", "\u2003", "\x1c", "\x85", "é", "0", "7", "_",
    "A", "x", "P1", "v_2", "forall", "forallx", "exists", "existsy",
]


def _lexed(lexer, text):
    try:
        return lexer(text)
    except LexError as exc:
        return (str(exc), exc.position)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(TOKEN_SOUP), max_size=24).map("".join))
@example("A<->B->C<-D")
@example("forallx forall x existsy")
def test_lex_matches_the_per_character_lexer(text):
    assert _lexed(lex, text) == _lexed(lex_by_char, text)


RUN = 20_000


@pytest.mark.parametrize(
    "text",
    [
        "A" + " " * RUN,
        " " * RUN,
        "A" + " " * RUN + "B" + " \x85\t" * RUN,
        "A" + " " * RUN + "$" + " " * RUN,
        "forall" + "\n" * RUN,
    ],
    ids=["trailing", "only", "interior-and-trailing", "after-an-error", "newlines"],
)
def test_lex_is_linear_in_whitespace_runs(text):
    # A scan that backtracks over trailing whitespace at every offset takes
    # seconds on these runs; a linear one takes well under a millisecond.
    start = time.perf_counter()
    result = _lexed(lex, text)
    assert time.perf_counter() - start < 0.5
    assert result == _lexed(lex_by_char, text)


# --- parsing ------------------------------------------------------------------

def test_precedence_not_binds_tighter_than_and():
    assert parse("¬A ∧ B") == Binary("and", Not(Atom("A")), Atom("B"))


def test_precedence_and_over_or_over_implies():
    got = parse("A ∨ B ∧ C → D")
    want = Binary("implies", Binary("or", Atom("A"), Binary("and", Atom("B"), Atom("C"))), Atom("D"))
    assert got == want


def test_implies_right_associative():
    got = parse("A → B → C")
    assert got == Binary("implies", Atom("A"), Binary("implies", Atom("B"), Atom("C")))


def test_and_left_associative():
    got = parse("A ∧ B ∧ C")
    assert got == Binary("and", Binary("and", Atom("A"), Atom("B")), Atom("C"))


def test_iff_and_xor_share_lowest_level():
    got = parse("A ↔ B ⊕ C")
    assert got == Binary("xor", Binary("iff", Atom("A"), Atom("B")), Atom("C"))


def test_quantifier_scopes_tightly():
    got = parse("∀x P(x) ∧ Q")
    assert got == Binary("and", Quantified("forall", "x", Atom("P", ("x",))), Atom("Q"))


def test_nested_quantifiers_and_args():
    got = parse("∀x∃y R(x, y)")
    assert got == Quantified("forall", "x", Quantified("exists", "y", Atom("R", ("x", "y"))))


def test_parse_rejects_trailing_input():
    with pytest.raises(ParseError):
        parse("A ∧ B C")


def test_parse_rejects_unbalanced():
    for bad in ["((", "(A ∧ B", "A)", "P(", "P(x", ""]:
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_rejects_empty_argument_list():
    with pytest.raises(ParseError):
        parse("P()")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("A ∧ ∧ B")
    assert err.value.position is not None


def test_fully_parenthesized_mode_accepts_explicit_trees():
    got = parse("((A ∧ B) ∨ C)", mode="fully-parenthesized")
    assert got == Binary("or", Binary("and", Atom("A"), Atom("B")), Atom("C"))


def test_fully_parenthesized_mode_rejects_chains():
    with pytest.raises(ParseError):
        parse("(A ∧ B ∧ C)", mode="fully-parenthesized")


# Every error the parser raises, by text, in both modes: (text, mode or
# None for both, error type, message).  The offset is the one in the message.
PARSE_ERRORS = [
    ("", None, ParseError, "empty formula"),
    ("   ", None, ParseError, "empty formula"),
    ("P $ Q", None, LexError, "unexpected character '$' (offset 2)"),
    ("A <- B", None, LexError, "unexpected character '<' (offset 2)"),
    ("∀", None, ParseError, "expected a quantified variable name, found end of input"),
    ("∀ ∧ A", None, ParseError, "expected a quantified variable name, found '∧' (offset 2)"),
    ("∀x", None, ParseError, "unexpected end of input"),
    ("¬", None, ParseError, "unexpected end of input"),
    ("(", None, ParseError, "unexpected end of input"),
    ("A)", None, ParseError, "unbalanced parentheses (offset 1)"),
    ("¬(A ∧ B))", None, ParseError, "unbalanced parentheses (offset 8)"),
    ("A B", None, ParseError, "unexpected token 'B' (offset 2)"),
    ("∧ A", None, ParseError, "unexpected token '∧' (offset 0)"),
    (")", None, ParseError, "unexpected token ')' (offset 0)"),
    ("A ∧", "precedence", ParseError, "unexpected end of input"),
    ("A ∧", "fully-parenthesized", ParseError, "connective '∧' needs its own parentheses (offset 2)"),
    ("A ∧ B", "fully-parenthesized", ParseError, "connective '∧' needs its own parentheses (offset 2)"),
    ("(A ∧ B ∧ C)", "fully-parenthesized", ParseError, "connective '∧' needs its own parentheses (offset 7)"),
    ("(A ∧ B) ∨ C", "fully-parenthesized", ParseError, "connective '∨' needs its own parentheses (offset 8)"),
    ("P()", None, ParseError, "empty argument list (offset 2)"),
    ("P(", None, ParseError, "expected an argument name, found end of input"),
    ("P(x,", None, ParseError, "expected an argument name, found end of input"),
    ("P(∧", None, ParseError, "expected an argument name, found '∧' (offset 2)"),
    ("P(x, )", None, ParseError, "expected an argument name, found ')' (offset 5)"),
    ("(A", None, ParseError, "unbalanced parentheses (offset 0)"),
    ("P(x", None, ParseError, "unbalanced parentheses (offset 0)"),
    ("((A ∧ B)", None, ParseError, "unbalanced parentheses (offset 0)"),
    # A run of negations is read in a loop: what follows it fails as it
    # does after one negation.
    ("¬" * 300, None, ParseError, "unexpected end of input"),
    ("¬" * 300 + ")", None, ParseError, "unexpected token ')' (offset 300)"),
    ("¬" * 300 + "∀", None, ParseError, "expected a quantified variable name, found end of input"),
    ("A ∧ (B", "precedence", ParseError, "unbalanced parentheses (offset 4)"),
    ("A ∧ (B", "fully-parenthesized", ParseError, "connective '∧' needs its own parentheses (offset 2)"),
    ("(A B", None, ParseError, "expected ')', found 'B' (offset 3)"),
    ("P(x y)", None, ParseError, "expected ')', found 'y' (offset 4)"),
    # An atom's argument list, read in the operand's own frame.
    ("P(forall)", None, ParseError, "expected an argument name, found 'forall' (offset 2)"),
    ("P(x ∧ y)", None, ParseError, "expected ')', found '∧' (offset 4)"),
    ("P(x,,y)", None, ParseError, "expected an argument name, found ',' (offset 4)"),
    ("P((x))", None, ParseError, "expected an argument name, found '(' (offset 2)"),
    ("∀x P(x", None, ParseError, "unbalanced parentheses (offset 3)"),
    ("P(x)(y)", None, ParseError, "unexpected token '(' (offset 4)"),
]


@pytest.mark.parametrize(
    "text, mode, error, message",
    [
        (text, mode, error, message)
        for text, modes, error, message in PARSE_ERRORS
        for mode in ([modes] if modes else ["precedence", "fully-parenthesized"])
    ],
)
def test_parse_error_texts_and_offsets(text, mode, error, message):
    with pytest.raises(error) as err:
        parse(text, mode)
    assert type(err.value) is error
    assert str(err.value) == message
    offset = re.search(r" \(offset (\d+)\)$", message)
    assert err.value.position == (int(offset[1]) if offset else None)


def _outcome(run):
    try:
        return run()
    except FormulaError as exc:
        return (type(exc), str(exc), getattr(exc, "position", None))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TOKEN_SOUP), max_size=24).map("".join))
@example("∀x (P(x) ∧ Q) → R(x, y)")
@example("¬(A ∧ B)) ∨ C")
@example("(A ∧ B) ∨ C")
@example("P(x, )")
def test_parser_reads_offsets_from_the_lexed_tokens(text):
    # Parsing lex's tokens gives what parsing the per-character lexer's
    # gives: the same tree, or the same error type, text and offset.
    for mode in ("precedence", "fully-parenthesized"):
        got = _outcome(lambda: parse(text, mode))
        assert got == _outcome(lambda: _Parser(lex_by_char(text), mode).parse())
    got = _outcome(lambda: split_chain(lex(text)))
    assert got == _outcome(lambda: split_chain(lex_by_char(text)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), st.integers(0, 10 ** 9))
def test_a_run_of_negations_wraps_its_operand(k, seed):
    tree = random_formula(random.Random(seed), max_atoms=4, max_depth=4)
    expected = parse(render(tree))
    for _ in range(k):
        expected = Not(expected)
    assert parse("¬" * k + "(" + render(tree) + ")") == expected


@pytest.mark.parametrize("mode", ["precedence", "fully-parenthesized"])
def test_token_cap_error_text(mode):
    cap = MAX_TOKENS
    with pytest.raises(CapExceeded) as err:
        parse("¬" * cap + "A", mode)
    assert str(err.value) == f"formula has {cap + 1} tokens (cap {cap})"


@pytest.mark.parametrize(
    "text, position",
    [("(A ∧ B ∨ C)", 7), ("A ∧ B", 2), ("∀x P(x) → Q(x)", 8)],
)
def test_fully_parenthesized_mode_points_at_the_extra_connective(text, position):
    with pytest.raises(ParseError, match="needs its own parentheses") as err:
        parse(text, mode="fully-parenthesized")
    assert err.value.position == position


SYMBOLS = {"forall": "∀", "exists": "∃", "and": "∧", "or": "∨", "implies": "→", "iff": "↔", "xor": "⊕"}


def fully_parenthesized(expr) -> str:
    """Every binary connective wrapped in its own parentheses."""
    if isinstance(expr, Atom):
        return render(expr)
    if isinstance(expr, Not):
        return "¬" + fully_parenthesized(expr.body)
    if isinstance(expr, Quantified):
        return f"{SYMBOLS[expr.quantifier]}{expr.variable} {fully_parenthesized(expr.body)}"
    return f"({fully_parenthesized(expr.left)} {SYMBOLS[expr.op]} {fully_parenthesized(expr.right)})"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_fully_parenthesized_rendering_parses_back_in_both_modes(seed):
    expr = random_formula(random.Random(seed), max_atoms=6, max_depth=5)
    text = fully_parenthesized(expr)
    assert parse(text, mode="fully-parenthesized") == expr
    assert parse(text) == expr


SOUP_TOKENS = ["A", "B", "P(x)", "x", "¬", "∀x", "∃y", "∧", "∨", "→", "↔", "⊕", "(", ")", ","]


@settings(max_examples=300, deadline=None)
@example(["(", "A", "∧", "B", "∨", "C", ")"])
@example(["A", "∧", "B"])
@example(["∀x", "(", "P(x)", "→", "Q(x)", ")"])
@given(st.lists(st.sampled_from(SOUP_TOKENS), max_size=14))
def test_fully_parenthesized_mode_accepts_a_subset_with_the_same_trees(parts):
    text = " ".join(parts)
    try:
        tree = parse(text, mode="fully-parenthesized")
    except ParseError:
        return
    assert tree == parse(text)
    # each binary connective sits in a parenthesis group of its own
    assert sum(p in "∧∨→↔⊕" for p in parts) <= parts.count("(")


# --- rendering ----------------------------------------------------------------

def test_render_minimal_parens():
    expr = parse("A ∨ B ∧ C → D")
    assert render(expr) == "A ∨ B ∧ C → D"


def test_render_keeps_needed_parens():
    expr = parse("(A ∨ B) ∧ C")
    assert render(expr) == "(A ∨ B) ∧ C"
    expr = parse("(A → B) → C")
    assert render(expr) == "(A → B) → C"


def test_render_ascii_style():
    expr = parse("∀x (P(x) → ¬Q(x))")
    assert render(expr, style="ascii") == "forall x (P(x) -> ~Q(x))"


def test_unknown_parse_mode_and_render_style_are_refused():
    with pytest.raises(ValueError, match="^unknown parse mode 'bogus'$"):
        parse("A", mode="bogus")
    with pytest.raises(ValueError, match="^unknown render style 'bogus'$"):
        render(Atom("A"), style="bogus")


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_render_parse_round_trip(seed):
    rng = random.Random(seed)
    expr = random_formula(rng, max_atoms=6, max_depth=5)
    for style in ("unicode", "ascii"):
        assert parse(render(expr, style=style)) == expr


# --- canonicalization ----------------------------------------------------------

def test_canonicalize_renames_in_preorder():
    expr = parse("∀z∃w R(z, w)")
    assert render(canonicalize(expr)) == "∀v1 ∃v2 R(v1, v2)"


def test_canonicalize_skips_free_names():
    # z stays free in the second conjunct and must not be captured
    expr = parse("∀z R(z) ∧ S(z)")
    assert render(canonicalize(expr)) == "∀v1 R(v1) ∧ S(z)"


def test_canonicalize_skips_colliding_fresh_names():
    expr = parse("∀x P(x, v1)")
    got = canonicalize(expr)
    assert got == Quantified("forall", "v2", Atom("P", ("v2", "v1")))


def test_canonicalize_identifies_alpha_variants():
    a = canonicalize(parse("∀x (P(x) → Q(x))"))
    b = canonicalize(parse("∀y (P(y) → Q(y))"))
    assert a == b


def test_canonicalize_shadowing():
    expr = parse("∀x (P(x) ∧ ∃x Q(x))")
    assert render(canonicalize(expr)) == "∀v1 (P(v1) ∧ ∃v2 Q(v2))"


@settings(max_examples=200, deadline=None)
@example(0, "v1", "v2")
@given(st.integers(0, 10 ** 9), st.sampled_from(["x", "v1", "v2"]), st.sampled_from(["y", "v1", "v3"]))
def test_canonicalize_is_idempotent(seed, x_name, y_name):
    # renaming x and y to fresh-looking names makes free names collide with
    # the names canonicalization hands out
    expr = random_formula(random.Random(seed), max_atoms=6, max_depth=5)
    expr = parse(render(expr).replace("x", x_name).replace("y", y_name))
    once = canonicalize(expr)
    assert canonicalize(once) == once


def _load_oracle():
    """The benchmark's oracle, which re-derives the renaming rule without
    importing foleq; its ``from gen import ...`` needs perfbench on the path."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(perfbench))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_oracle", perfbench / "oracle.py")
        oracle = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracle)
    finally:
        sys.path.remove(str(perfbench))
    return oracle


ORACLE = _load_oracle()


def _as_oracle_tree(expr):
    """``expr`` in the benchmark's tuple form, built without foleq's walks."""
    if isinstance(expr, Atom):
        return ("atom", expr.predicate, expr.args)
    if isinstance(expr, Not):
        return ("not", _as_oracle_tree(expr.body))
    if isinstance(expr, Quantified):
        return ("q", expr.quantifier, expr.variable, _as_oracle_tree(expr.body))
    return ("bin", expr.op, _as_oracle_tree(expr.left), _as_oracle_tree(expr.right))


# Bound names shadow one another, and v1 / v2 also occur free.
_NAMES = st.sampled_from(("x", "y", "v1", "v2"))
_FORMULAS = st.recursive(
    st.builds(Atom, st.sampled_from(("P", "Q", "R")), st.lists(_NAMES, max_size=2).map(tuple)),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(Binary, st.sampled_from(BINARY_OPS), sub, sub),
        st.builds(Quantified, st.sampled_from(QUANTIFIERS), _NAMES, sub),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_FORMULAS)
def test_renaming_agrees_with_the_benchmark_oracle(expr):
    canonical = ORACLE.canonical(_as_oracle_tree(expr))
    assert _as_oracle_tree(canonicalize(expr)) == canonical
    names = tuple(ORACLE.atom_names(canonical))
    assert atoms_of(canonicalize(expr)) == names
    assert compile_reference(render(expr)).atoms == names


# --- atom extraction -----------------------------------------------------------

def test_atoms_of_dedupes_in_order():
    atoms = atoms_of(parse("P(x) ∧ Q ∨ P(x) → R(y, z)"))
    assert atoms == ("P(x)", "Q", "R(y, z)")


def test_atoms_differ_by_arguments():
    atoms = atoms_of(parse("P(x) ∧ P(y)"))
    assert atoms == ("P(x)", "P(y)")


def test_atoms_of_lists_a_tree_as_written():
    # only canonicalize renames; atoms_of keeps the bound name x
    assert atoms_of(parse("∀x P(x) ∧ Q(y)")) == ("P(x)", "Q(y)")


# --- bracketing enumeration -----------------------------------------------------

def catalan(n: int) -> int:
    from math import comb

    return comb(2 * n, n) // (n + 1)


def test_full_enumeration_counts_are_catalan():
    for operators in range(1, 9):
        tokens = lex(" ∧ ".join(f"A{i}" for i in range(operators + 1)))
        trees = enumerate_bracketings(tokens)
        assert len(trees) == catalan(operators)
        assert len(set(trees)) == len(trees)


def test_enumeration_includes_precedence_parse_first():
    tokens = lex("A → B → C")
    trees = enumerate_bracketings(tokens)
    assert trees[0] == parse("A → B → C")
    assert len(trees) == 2


@pytest.mark.parametrize(
    "text, other",
    [
        ("¬(A ∧ B ∧ C)", "¬(A ∧ (B ∧ C))"),
        ("∀x ((P(x) → Q(x) → R(x)))", "∀x ((P(x) → Q(x)) → R(x))"),
    ],
)
def test_enumeration_sees_through_whole_formula_wrappers(text, other):
    assert enumerate_bracketings(lex(text)) == [parse(text), parse(other)]


def test_single_operand_chain():
    tokens = lex("¬P(x)")
    assert enumerate_bracketings(tokens) == [parse("¬P(x)")]


def test_chunked_counts_match_product_of_catalans():
    # 7 operands, chunk 3: windows of 3, 3, 1 operands, then 2 bridge joins
    tokens = lex(" ∨ ".join(f"A{i}" for i in range(7)))
    full = enumerate_bracketings(tokens)
    chunked = enumerate_bracketings(tokens, chunk_size=3)
    # 2 * 2 * 1 window trees * 2 bridge shapes, plus the precedence parse
    assert len(chunked) == 9
    assert len(full) == catalan(6)
    assert set(chunked) <= set(full)
    assert chunked[0] == parse(" ∨ ".join(f"A{i}" for i in range(7)))


@pytest.mark.parametrize("operands", [["A"], ["A", "(A ∧ A)", "¬A"], ["(A ∧ B)", "A", "B", "(A ∧ B) ∧ A"]])
def test_readings_are_pairwise_distinct(operands):
    # Scoring keeps every reading without a dedup: only the precedence
    # reading may equal an enumerated one, and it is listed once.
    for k in range(1, 11):
        text = f"({operands[0]})"
        for i in range(1, k + 1):
            text += f" {'∧∨→'[i % 3]} ({operands[i % len(operands)]})"
        for chunk_size in [None, *range(2, k + 1)]:
            readings = enumerate_bracketings(lex(text), chunk_size=chunk_size)
            assert len(set(readings)) == len(readings), (text, chunk_size)


def test_chunked_equals_full_when_chain_fits_one_chunk():
    tokens = lex("A ∧ B ∨ C")
    assert enumerate_bracketings(tokens, chunk_size=4) == enumerate_bracketings(tokens)


def test_mixed_operator_chain_preserves_operator_order():
    tokens = lex("A ∧ B ∨ C → D")
    for tree in enumerate_bracketings(tokens):
        assert render(tree)  # every tree serializes
        assert atoms_of(tree) == atoms_of(parse("A ∧ B ∨ C → D"))


def test_operator_cap():
    tokens = lex(" ∧ ".join(f"A{i}" for i in range(20)))
    with pytest.raises(CapExceeded):
        enumerate_bracketings(tokens)


@pytest.mark.parametrize(
    "split", [split_chain, lambda tokens: enumerate_bracketings(tokens, chunk_size=4)],
    ids=["split_chain", "enumerate_bracketings"],
)
def test_the_operator_cap_admits_exactly_max_chain_operators(split):
    def chain(operators):
        return lex(" ∧ ".join(f"A{i}" for i in range(operators + 1)))

    split(chain(MAX_CHAIN_OPERATORS))
    message = rf"^connective chain has {MAX_CHAIN_OPERATORS + 1} operators \(cap {MAX_CHAIN_OPERATORS}\)$"
    with pytest.raises(CapExceeded, match=message):
        split(chain(MAX_CHAIN_OPERATORS + 1))


def _flat_chain_readings(operators, chunk_size):
    return chain_readings(list(range(operators + 1)), ["and"] * operators, chunk_size, lambda *node: node)


@pytest.mark.parametrize("operators, chunk_size, readings", [
    (MAX_CHAIN_OPERATORS, 4, 8_751),  # 8,750 bracketings and the precedence reading
    (MAX_CHAIN_OPERATORS, 6, 49_393),
    (10, None, 16_796),
])
def test_the_readings_cap_admits_every_default_chain(operators, chunk_size, readings):
    assert len(_flat_chain_readings(operators, chunk_size)) == readings


@pytest.mark.parametrize("operators, chunk_size, bracketings", [
    (MAX_CHAIN_OPERATORS, 7, 69_696),
    (11, None, 58_786),
    (MAX_CHAIN_OPERATORS, None, 35_357_670),
])
def test_the_readings_cap_refuses_a_chain_before_building_it(operators, chunk_size, bracketings):
    built = []
    message = rf"^connective chain has {bracketings} readings \(cap {MAX_READINGS}\)$"
    with pytest.raises(CapExceeded, match=message):
        chain_readings(list(range(operators + 1)), ["and"] * operators, chunk_size, lambda *node: built.append(node))
    assert built == []


def test_the_readings_cap_counts_the_bracketings_chain_readings_builds(monkeypatch):
    # Every bracketing but the precedence one is built once; the precedence
    # reading comes first, and is among the bracketings unless chunking
    # leaves it out.  Under a cap of 0 the refusal names the count.
    for operators in range(2, 11):
        for chunk_size in (2, 3, 4, 5, 6, None):
            readings = len(_flat_chain_readings(operators, chunk_size))
            with monkeypatch.context() as patched:
                patched.setattr(syntax, "MAX_READINGS", 0)
                with pytest.raises(CapExceeded) as refused:
                    _flat_chain_readings(operators, chunk_size)
            counted = int(re.match(r"connective chain has (\d+) readings", str(refused.value))[1])
            assert readings - 1 <= counted <= readings


def test_token_cap_follows_the_recursion_limit():
    # The cap is fixed, unless the limit is too low for it: then it is half
    # the limit, so no parse nests past the stack.
    limit = sys.getrecursionlimit()
    for host_limit, cap in ((limit, MAX_TOKENS), (5000, MAX_TOKENS), (800, 400)):
        try:
            sys.setrecursionlimit(host_limit)
            assert len(enumerate_bracketings(lex("¬" * (cap - 1) + "A"))) == 1
            with pytest.raises(CapExceeded, match=rf"formula has {cap + 1} tokens \(cap {cap}\)"):
                enumerate_bracketings(lex("¬" * cap + "A"))
        finally:
            sys.setrecursionlimit(limit)


def test_parse_has_the_same_token_cap():
    cap = MAX_TOKENS
    depth = (cap - 1) // 2
    assert parse("(" * depth + "A" + ")" * depth) == Atom("A")
    for mode in ("precedence", "fully-parenthesized"):
        with pytest.raises(CapExceeded, match=rf"formula has {2 * depth + 3} tokens \(cap {cap}\)"):
            parse("(" * (depth + 1) + "A" + ")" * (depth + 1), mode=mode)


def test_repr_of_a_tree_at_the_token_cap():
    cap = MAX_TOKENS
    depth = cap - 1
    assert repr(parse("¬" * depth + "A")) == "Not(" * depth + "Atom('A')" + ")" * depth
    quantifiers = (cap - 4) // 2
    assert repr(parse("∀x " * quantifiers + "P(x)")) == (
        "Quantified('forall', 'x', " * quantifiers + "Atom('P', ('x',))" + ")" * quantifiers
    )


def test_formula_errors_share_one_base():
    assert issubclass(ParseError, FormulaError) and issubclass(CapExceeded, FormulaError)
    assert issubclass(LexError, FormulaError)


def test_chunk_size_validation():
    tokens = lex("A ∧ B")
    with pytest.raises(ValueError):
        enumerate_bracketings(tokens, chunk_size=1)
