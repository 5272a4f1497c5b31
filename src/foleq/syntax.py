"""Lexing, parsing, and tree utilities for first-order-logic formulas.

The surface language is quantified predicate logic without function terms:
an atom is a predicate name applied to variable/constant names
(``Mortal(x)``, ``Between(a, b, c)``) or a bare identifier for a zero-arity
atom.  Connectives are accepted in both Unicode and ASCII spellings, freely
mixed within one string:

    forall  ∀ forall     exists  ∃ exists    not  ¬ ~      and  ∧ &
    or      ∨ |          implies → ->        iff  ↔ <->    xor  ⊕ ^

Precedence-mode parsing resolves unparenthesized mixtures with the usual
convention: negation and quantifiers bind tightest, then ``and``, ``or``,
``implies``, and finally ``iff``/``xor`` on a shared lowest level.
``implies`` is right-associative; the other binary connectives group to the
left.  A quantifier takes a single unary operand, so ``∀x P(x) ∧ Q(x)``
reads as ``(∀x P(x)) ∧ Q(x)``.
"""

from __future__ import annotations

import functools
import itertools
import re
import sys
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

# Token kinds.
FORALL = "forall"
EXISTS = "exists"
NOT = "not"
AND = "and"
OR = "or"
IMPLIES = "implies"
IFF = "iff"
XOR = "xor"
LPAREN = "lparen"
RPAREN = "rparen"
COMMA = "comma"
IDENT = "ident"

QUANTIFIERS = (FORALL, EXISTS)
BINARY_OPS = (AND, OR, IMPLIES, IFF, XOR)

# Binary precedence levels, higher binds tighter.  Unary (negation and
# quantifiers) sits above all of these.
_PREC = {IFF: 1, XOR: 1, IMPLIES: 2, OR: 3, AND: 4}
_UNARY_PREC = 5


class FormulaError(Exception):
    """Formula text that cannot be scored: a ``ParseError`` or ``CapExceeded``."""


class ParseError(FormulaError, ValueError):
    """Malformed formula text.  ``position`` is a 0-based character offset."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (offset {position})"
        super().__init__(message)
        self.position = position


class LexError(ParseError):
    """A character that starts no token."""


class CapExceeded(FormulaError, RuntimeError):
    """A formula-length, search or enumeration limit was exceeded."""


# A token is a plain ``(kind, text, offset)`` tuple: its kind (one of the
# constants above), its text, and the 0-based character offset it starts at.
Token = tuple[str, str, int]


_KINDS = {
    "∀": FORALL,
    "∃": EXISTS,
    "¬": NOT,
    "~": NOT,
    "∧": AND,
    "&": AND,
    "∨": OR,
    "|": OR,
    "→": IMPLIES,
    "->": IMPLIES,
    "↔": IFF,
    "<->": IFF,
    "⊕": XOR,
    "^": XOR,
    "(": LPAREN,
    ")": RPAREN,
    ",": COMMA,
    "forall": FORALL,
    "exists": EXISTS,
}
# Whitespace (group 1), then a token (group 2) or a character that starts
# none (group 3).  ``\s`` matches exactly the characters ``str.isspace``
# accepts, and a token never starts with one, so successive matches cover the
# text and a running sum of group lengths gives each token's offset.  ``lex``
# scans the text without its trailing whitespace (``str.rstrip`` strips
# exactly those characters and moves no offset): at a trailing-whitespace
# offset the pattern fails only after backtracking over the rest of the run,
# which makes a long run quadratic.
_TOKEN_RE = re.compile(r"(\s*)(?:(<->|->|[∀∃¬~∧&∨|→↔⊕^(),]|[A-Za-z][A-Za-z0-9_]*)|(\S))")


def lex(text: str) -> list[Token]:
    """Tokenize ``text``, accepting Unicode and ASCII spellings together,
    into ``(kind, text, offset)`` tuples.  One ``findall`` scan splits the
    text; a character that starts no token raises ``LexError`` at its
    offset."""
    tokens: list[Token] = []
    append, kind = tokens.append, _KINDS.get
    offset = 0
    for space, word, stray in _TOKEN_RE.findall(text.rstrip()):
        offset += len(space)
        if not word:
            raise LexError(f"unexpected character {stray!r}", offset)
        append((kind(word, IDENT), word, offset))
        offset += len(word)
    return tokens


# --- abstract syntax ---------------------------------------------------------


@dataclass(frozen=True)
class FolExpr:
    """Base class for formula nodes.  Instances are immutable and hashable."""

    def __repr__(self) -> str:
        # Iterative: a tree at the token cap nests deeper than a recursive
        # repr (two interpreter frames per node) can go.
        parts: list[str] = []
        stack: list[FolExpr | str] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
            elif isinstance(item, Atom):
                args = f", {item.args!r}" if item.args else ""
                parts.append(f"Atom({item.predicate!r}{args})")
            elif isinstance(item, Not):
                parts.append("Not(")
                stack += [")", item.body]
            elif isinstance(item, Binary):
                parts.append(f"Binary({item.op!r}, ")
                stack += [")", item.right, ", ", item.left]
            else:
                parts.append(f"Quantified({item.quantifier!r}, {item.variable!r}, ")
                stack += [")", item.body]
        return "".join(parts)


@dataclass(frozen=True, repr=False)
class Atom(FolExpr):
    predicate: str
    args: tuple[str, ...] = ()


@dataclass(frozen=True, repr=False)
class Not(FolExpr):
    body: FolExpr


@dataclass(frozen=True, repr=False)
class Binary(FolExpr):
    op: str
    left: FolExpr
    right: FolExpr


@dataclass(frozen=True, repr=False)
class Quantified(FolExpr):
    quantifier: str
    variable: str
    body: FolExpr


def atom_text(predicate: str, args: tuple[str, ...]) -> str:
    if not args:
        return predicate
    return f"{predicate}({', '.join(args)})"


@dataclass(frozen=True)
class AtomicUnit:
    """One distinct atom of a formula.  Two units compare equal exactly when
    their canonical text is equal."""

    predicate: str
    args: tuple[str, ...]
    canonical_text: str = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "canonical_text", atom_text(self.predicate, self.args))

    def __repr__(self) -> str:
        return f"AtomicUnit({self.canonical_text!r})"


# --- parsing -----------------------------------------------------------------

# The node factory that builds trees.  A parser builds every node with its
# factory's atom(name, args), negate(body), join(op, left, right) and
# quantify(kind, var, parse_body), which calls parse_body() once.  That call
# is one interpreter frame more per quantifier, which takes two tokens, so
# no parse nests deeper than its token count.
TREES = SimpleNamespace(
    atom=Atom,
    negate=Not,
    join=Binary,
    quantify=lambda kind, var, parse_body: Quantified(kind, var, parse_body()),
)


def _reduce(out: list, pending: list[str], join) -> None:
    right = out.pop()
    out[-1] = join(pending.pop(), out[-1], right)


def _fold(operands: list, ops: list[str], join=Binary):
    """The precedence-mode reading of a flat chain, built without recursion:
    an operator first reduces every pending one that binds tighter, or as
    tightly when it groups to the left.  ``join(op, left, right)`` builds nodes."""
    out = [operands[0]]
    pending: list[str] = []
    for op, operand in zip(ops, operands[1:]):
        prec = _PREC[op]
        while pending and (_PREC[pending[-1]] > prec or (_PREC[pending[-1]] == prec and op != IMPLIES)):
            _reduce(out, pending, join)
        pending.append(op)
        out.append(operand)
    while pending:
        _reduce(out, pending, join)
    return out[0]


_END = "end"  # the kind of the sentinel token after the last one
_END_TOKEN: Token = (_END, "", -1)


MAX_TOKENS = 500  # the most tokens a formula may have (see ``token_cap``)


def token_cap() -> int:
    """The parser's token cap: ``MAX_TOKENS``, or half the recursion limit
    where that is lower, since no parse or scoring walk nests deeper than
    its token count.  Raising the limit leaves the cap, and so every score,
    as it is."""
    return min(MAX_TOKENS, sys.getrecursionlimit() // 2)


class _Parser:
    """A recursive-descent parser over ``lex``'s ``(kind, text, offset)``
    tuples, read by index: ``tok[0]`` is the kind, ``tok[1]`` the text and
    ``tok[2]`` the offset that a ``ParseError`` reports."""

    def __init__(self, tokens: list[Token], mode: str = "precedence", nodes=TREES):
        """Text of more tokens than ``token_cap()`` raises ``CapExceeded``."""
        if not tokens:
            raise ParseError("empty formula")
        max_tokens = token_cap()
        if len(tokens) > max_tokens:
            raise CapExceeded(f"formula has {len(tokens)} tokens (cap {max_tokens})")
        # Reads index the list directly; the sentinel stops every one of them.
        self.tokens = [*tokens, _END_TOKEN]
        self.pos = 0
        self.nodes = nodes
        # The most operators one chain may hold at top level and inside one
        # parenthesis group; fully-parenthesized text gives each binary
        # connective its own parentheses.
        self.top_ops, self.group_ops = (None, None) if mode == "precedence" else (0, 1)
        # The operands and operators of the last parenthesized chain with at
        # least one operator that unary() closed.
        self.last_group: tuple[list, list[str]] | None = None

    def ident(self, what: str) -> str:
        """Pass the identifier at the cursor and return its text."""
        tok = self.tokens[self.pos]
        if tok[0] != IDENT:
            if tok[0] == _END:
                raise ParseError(f"expected {what}, found end of input")
            raise ParseError(f"expected {what}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok[1]

    def parse(self):
        expr = _fold(*self.chain(self.top_ops), self.nodes.join)
        self.finish()
        return expr

    def finish(self) -> None:
        kind, text, offset = self.tokens[self.pos]
        if kind == RPAREN:
            raise ParseError("unbalanced parentheses", offset)
        if kind != _END:
            raise ParseError(f"unexpected token {text!r}", offset)

    def chain(self, max_ops: int | None = None) -> tuple[list, list[str]]:
        """A flat connective chain: its unary operands and operator kinds,
        at most ``max_ops`` operators when that is not None."""
        tokens = self.tokens
        operands = [self.unary()]
        ops: list[str] = []
        while True:
            kind, text, offset = tokens[self.pos]
            if kind not in BINARY_OPS:
                return operands, ops
            if len(ops) == max_ops:
                raise ParseError(f"connective {text!r} needs its own parentheses", offset)
            self.pos += 1
            ops.append(kind)
            operands.append(self.unary())

    def unary(self):
        tok = self.tokens[self.pos]
        kind = tok[0]
        if kind == NOT:
            self.pos += 1
            return self.nodes.negate(self.unary())
        if kind in QUANTIFIERS:
            self.pos += 1
            var = self.ident("a quantified variable name")
            return self.nodes.quantify(kind, var, self.unary)
        if kind == IDENT:
            return self.atom()
        if kind == LPAREN:
            self.pos += 1
            operands, ops = self.chain(self.group_ops)
            self.close_paren(tok)
            if not ops:
                return operands[0]
            self.last_group = (operands, ops)
            return _fold(operands, ops, self.nodes.join)
        if kind == _END:
            raise ParseError("unexpected end of input")
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])

    def atom(self):
        tokens = self.tokens
        name = tokens[self.pos]
        self.pos += 1
        if tokens[self.pos][0] != LPAREN:
            return self.nodes.atom(name[1], ())
        self.pos += 1
        tok = tokens[self.pos]
        if tok[0] == RPAREN:
            raise ParseError("empty argument list", tok[2])
        args = [self.ident("an argument name")]
        while tokens[self.pos][0] == COMMA:
            self.pos += 1
            args.append(self.ident("an argument name"))
        self.close_paren(name)
        return self.nodes.atom(name[1], tuple(args))

    def close_paren(self, opener: Token) -> None:
        kind, text, offset = self.tokens[self.pos]
        if kind != RPAREN:
            if kind == _END:
                raise ParseError("unbalanced parentheses", opener[2])
            raise ParseError(f"expected ')', found {text!r}", offset)
        self.pos += 1


def parse(text: str, mode: str = "precedence", nodes=TREES):
    """Parse ``text`` into a formula tree, or into what the node factory
    ``nodes`` builds (see ``TREES``).

    ``mode`` is ``"precedence"`` (default) or ``"fully-parenthesized"``.
    Both modes read one grammar, and fully-parenthesized mode adds one
    rule: a connective chain holds no operator at top level and at most one
    inside a parenthesis group.  So every binary connective needs its own
    parentheses, a connective past the limit raises ``ParseError`` at its
    offset, and text both modes accept gives the same tree in each.
    """
    if mode not in ("precedence", "fully-parenthesized"):
        raise ValueError(f"unknown parse mode {mode!r}")
    return _Parser(lex(text), mode, nodes).parse()


def rebuild(expr: FolExpr, nodes=TREES):
    """Build the tree ``expr`` again through the node factory ``nodes``,
    with the calls, in the same order, that parsing its rendering makes."""
    if isinstance(expr, Atom):
        return nodes.atom(expr.predicate, expr.args)
    if isinstance(expr, Not):
        return nodes.negate(rebuild(expr.body, nodes))
    if isinstance(expr, Quantified):
        return nodes.quantify(expr.quantifier, expr.variable, lambda: rebuild(expr.body, nodes))
    return nodes.join(expr.op, rebuild(expr.left, nodes), rebuild(expr.right, nodes))


# --- rendering ---------------------------------------------------------------

_UNICODE_SYMBOLS = {NOT: "¬", AND: "∧", OR: "∨", IMPLIES: "→", IFF: "↔", XOR: "⊕"}
_ASCII_SYMBOLS = {NOT: "~", AND: "&", OR: "|", IMPLIES: "->", IFF: "<->", XOR: "^"}
_UNICODE_QUANT = {FORALL: "∀", EXISTS: "∃"}
_ASCII_QUANT = {FORALL: "forall ", EXISTS: "exists "}


def _prec(expr: FolExpr) -> int:
    if isinstance(expr, Binary):
        return _PREC[expr.op]
    return _UNARY_PREC


def render(expr: FolExpr, style: str = "unicode") -> str:
    """Serialize a tree with the minimal parentheses that round-trip through
    :func:`parse` in precedence mode."""
    if style == "unicode":
        sym, quant = _UNICODE_SYMBOLS, _UNICODE_QUANT
    elif style == "ascii":
        sym, quant = _ASCII_SYMBOLS, _ASCII_QUANT
    else:
        raise ValueError(f"unknown render style {style!r}")

    def walk(e: FolExpr) -> str:
        if isinstance(e, Atom):
            return atom_text(e.predicate, e.args)
        if isinstance(e, Not):
            body = walk(e.body)
            if isinstance(e.body, Binary):
                body = f"({body})"
            return sym[NOT] + body
        if isinstance(e, Quantified):
            body = walk(e.body)
            if isinstance(e.body, Binary):
                body = f"({body})"
            return f"{quant[e.quantifier]}{e.variable} {body}"
        assert isinstance(e, Binary)
        p = _PREC[e.op]
        left = walk(e.left)
        # For right-associative implies, an equal-precedence left child needs
        # parentheses; for the left-associative connectives, the right child does.
        if _prec(e.left) < p or (_prec(e.left) == p and e.op == IMPLIES):
            left = f"({left})"
        right = walk(e.right)
        if _prec(e.right) < p or (_prec(e.right) == p and e.op != IMPLIES):
            right = f"({right})"
        return f"{left} {sym[e.op]} {right}"

    return walk(expr)


# --- canonical form ----------------------------------------------------------


def _free_arg_names(expr: FolExpr) -> set[str]:
    free: set[str] = set()

    def walk(e: FolExpr, bound: frozenset[str]) -> None:
        if isinstance(e, Atom):
            free.update(a for a in e.args if a not in bound)
        elif isinstance(e, Not):
            walk(e.body, bound)
        elif isinstance(e, Binary):
            walk(e.left, bound)
            walk(e.right, bound)
        else:
            assert isinstance(e, Quantified)
            walk(e.body, bound | {e.variable})

    walk(expr, frozenset())
    return free


def canonicalize(expr: FolExpr) -> FolExpr:
    """Rename bound variables to v1, v2, ... in order of quantifier
    appearance.  Free names are left alone; fresh names skip any identifier
    that occurs free, so the pass is capture-avoiding and idempotent."""
    free = _free_arg_names(expr)
    counter = [0]

    def fresh() -> str:
        while True:
            counter[0] += 1
            name = f"v{counter[0]}"
            if name not in free:
                return name

    def walk(e: FolExpr, env: dict[str, str]) -> FolExpr:
        if isinstance(e, Atom):
            return Atom(e.predicate, tuple(env.get(a, a) for a in e.args))
        if isinstance(e, Not):
            return Not(walk(e.body, env))
        if isinstance(e, Binary):
            return Binary(e.op, walk(e.left, env), walk(e.right, env))
        assert isinstance(e, Quantified)
        name = fresh()
        inner = dict(env)
        inner[e.variable] = name
        return Quantified(e.quantifier, name, walk(e.body, inner))

    return walk(expr, {})


def atoms_of(expr: FolExpr) -> tuple[AtomicUnit, ...]:
    """Distinct atoms in first-occurrence order (pre-order, left to right).
    The expression should already be canonicalized."""
    seen: dict[str, AtomicUnit] = {}

    def walk(e: FolExpr) -> None:
        if isinstance(e, Atom):
            unit = AtomicUnit(e.predicate, e.args)
            seen.setdefault(unit.canonical_text, unit)
        elif isinstance(e, Not):
            walk(e.body)
        elif isinstance(e, Binary):
            walk(e.left)
            walk(e.right)
        else:
            assert isinstance(e, Quantified)
            walk(e.body)

    walk(expr)
    return tuple(seen.values())


# --- bracketing enumeration --------------------------------------------------


def _all_bracketings(operands: list, ops: list[str], join) -> list:
    @functools.cache
    def trees(i: int, j: int) -> list:
        if i == j:
            return [operands[i]]
        return [
            join(ops[split], left, right)
            for split in range(i, j)
            for left in trees(i, split)
            for right in trees(split + 1, j)
        ]

    return trees(0, len(operands) - 1)


def chain_readings(operands: list, ops: list[str], chunk_size: int | None, join=Binary) -> list:
    """The readings of one flat chain, described at enumerate_bracketings,
    each built by ``join`` as :func:`_fold` builds one."""
    k = len(ops)
    precedence = _fold(operands, ops, join)
    if k <= 1:
        return [precedence]

    if chunk_size is None or k < chunk_size:
        enumerated = _all_bracketings(operands, ops, join)
    else:
        starts = list(range(0, len(operands), chunk_size))
        chunk_lists = []
        for s in starts:
            e = min(s + chunk_size, len(operands))
            chunk_lists.append(_all_bracketings(operands[s:e], ops[s : e - 1], join))
        bridge_ops = [ops[min(s + chunk_size, len(operands)) - 1] for s in starts[:-1]]
        # Cartesian product over per-chunk trees, then bracket the roots.
        enumerated = []
        for combo in itertools.product(*chunk_lists):
            enumerated.extend(_all_bracketings(list(combo), bridge_ops, join))

    # Distinct bracketings build distinct readings (the more operands a left
    # subtree spans, the larger it is), so only the precedence one can repeat.
    return [precedence] + [reading for reading in enumerated if reading != precedence]


def split_chain(tokens: list[Token], max_operators: int = 16, nodes=TREES) -> tuple:
    """The whole formula when negations and quantifiers wrap its outermost
    flat connective chain (else None), that chain's operands and its operator
    kinds, built by ``nodes``; raises as enumerate_bracketings does."""
    parser = _Parser(tokens, nodes=nodes)
    operands, ops = parser.chain()
    parser.finish()
    wrapped = None
    if not ops and parser.last_group is not None:
        # The formula is one operand; it ends in the last group closed.
        wrapped = operands[0]
        operands, ops = parser.last_group
    if len(ops) > max_operators:
        raise CapExceeded(f"connective chain has {len(ops)} operators (cap {max_operators})")
    return wrapped, operands, ops


def enumerate_bracketings(
    tokens: list[Token],
    chunk_size: int | None = None,
    max_operators: int = 16,
) -> list[FolExpr]:
    """All binary-tree readings of a formula's outermost flat connective
    chain.

    ``tokens`` must parse in precedence mode; a malformed formula raises the
    ``ParseError`` that :func:`parse` gives.  When one chain makes up the
    whole formula except for negations, quantifiers and parentheses wrapped
    around all of it, as in ``¬∀x (A ∧ B ∧ C)``, the chain inside them is
    the one read in every way, and each reading keeps the wrappers.

    With ``chunk_size=None`` the full Catalan(k) set is produced for k
    operators.  With ``chunk_size=m`` the operand chain is partitioned into
    consecutive chunks of at most m operands; bracketings are enumerated
    within each chunk and the chunk roots are then bracketed over the
    (shorter) bridge chain, which keeps the count far below Catalan(k) once
    k >= m.  Either way the precedence-mode parse is the first element and
    no reading repeats.

    A chain of more than ``max_operators`` operators raises
    ``CapExceeded``, as does a formula over the parser's token cap.
    """
    if chunk_size is not None and chunk_size < 2:
        raise ValueError("chunk_size must be at least 2")
    wrapped, operands, ops = split_chain(tokens, max_operators)
    readings = chain_readings(operands, ops, chunk_size)
    wrappers = []
    while isinstance(wrapped, (Not, Quantified)):
        wrappers.append(wrapped)
        wrapped = wrapped.body
    for wrapper in reversed(wrappers):
        readings = [replace(wrapper, body=t) for t in readings]
    return readings
