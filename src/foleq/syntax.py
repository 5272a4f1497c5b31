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

import itertools
import math
import re
import sys
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Sequence

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
# One token: an operator, a parenthesis, a comma or an identifier.
_TOKEN = r"<->|->|[∀∃¬~∧&∨|→↔⊕^(),]|[A-Za-z][A-Za-z0-9_]*"
# Whitespace (group 1), then a token (group 2) or a character that starts
# none (group 3).  ``\s`` matches exactly the characters ``str.isspace``
# accepts, and a token never starts with one, so successive matches cover the
# text and a running sum of group lengths gives each token's offset.  ``lex``
# scans the text without its trailing whitespace (``str.rstrip`` strips
# exactly those characters and moves no offset): at a trailing-whitespace
# offset the pattern fails only after backtracking over the rest of the run,
# which makes a long run quadratic.
_TOKEN_RE = re.compile(rf"(\s*)(?:({_TOKEN})|(\S))")
# The same matches with one group, the character that starts no token, so
# ``findall`` gives one string per match: "" for a token.
_COUNT_RE = re.compile(rf"\s*(?:{_TOKEN}|(\S))")


def lex(text: str) -> list[Token]:
    """Tokenize ``text``, accepting Unicode and ASCII spellings together,
    into ``(kind, text, offset)`` tuples.  One ``findall`` scan splits the
    text; a character that starts no token raises ``LexError`` at its
    offset.  Text longer than ``MAX_TOKENS`` characters is first counted by
    a scan that builds one string per match and no token: more than
    ``MAX_TOKENS`` matches and no such character raise ``cap_tokens``'s
    ``CapExceeded`` with the exact count, so ``lex`` itself refuses
    over-cap text."""
    text = text.rstrip()
    if len(text) > MAX_TOKENS:
        strays = _COUNT_RE.findall(text)
        if len(strays) > MAX_TOKENS and not any(strays):
            cap_tokens(len(strays))
    return _tokens(_TOKEN_RE.findall(text))


def _tokens(matches: list[tuple[str, str, str]]) -> list[Token]:
    """The tokens of ``_TOKEN_RE``'s matches over a text, or the
    ``LexError`` of its first stray character."""
    tokens: list[Token] = []
    append, kind = tokens.append, _KINDS.get
    offset = 0
    for space, word, stray in matches:
        offset += len(space)
        if not word:
            raise LexError(f"unexpected character {stray!r}", offset)
        append((kind(word, IDENT), word, offset))
        offset += len(word)
    return tokens


def word_lexer(words: Sequence[str]):
    """A function from a sequence of indices into ``words`` to the tokens of
    ``lex(" ".join(words[i] for i in ids))``, with each word lexed once here.

    No token holds whitespace, and a word's last token ends where the word
    ends or at whitespace, so the joined text's tokens are its words' tokens
    in order, each offset shifted by its word's start (the sum of
    ``len(word) + 1`` over the words before it).  A word's tokens shifted to
    a start are kept, so each (word, start) pair is shifted once.  A
    sequence holding a word that does not lex raises the ``LexError`` that
    the joined text raises: the first such word's, at its shifted offset."""
    lexed: list[list[Token] | int] = []  # a word's tokens, or its first stray's offset
    for word in words:
        try:
            # Uncapped: the cap applies to a sequence's tokens, not a word's.
            lexed.append(_tokens(_TOKEN_RE.findall(word.rstrip())))
        except LexError as error:
            lexed.append(error.position)
    widths = [len(word) + 1 for word in words]
    n = len(words)
    shifted: dict[int, list[Token]] = {}  # start * n + index -> shifted tokens

    def tokens(ids: Sequence[int]) -> list[Token]:
        out: list[Token] = []
        start = 0
        for i in ids:
            key = start * n + i
            word_tokens = shifted.get(key)
            if word_tokens is None:
                word_tokens = lexed[i]
                if isinstance(word_tokens, int):
                    raise LexError(f"unexpected character {words[i][word_tokens]!r}", start + word_tokens)
                word_tokens = shifted[key] = [(kind, text, start + offset) for kind, text, offset in word_tokens]
            out += word_tokens
            start += widths[i]
        return out

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
    """An atom's canonical text, ``P(a, b)`` or a bare ``P``: every layer
    that handles an atom handles this text."""
    if not args:
        return predicate
    return f"{predicate}({', '.join(args)})"


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


def _fold(operands: list, ops: list[str], join=Binary):
    """The precedence-mode reading of a flat chain, built without recursion:
    an operator first reduces every pending one that binds tighter, or as
    tightly when it groups to the left.  ``join(op, left, right)`` builds nodes."""
    out = [operands[0]]
    pending: list[str] = []
    for op, operand in zip(ops, operands[1:]):
        prec = _PREC[op]
        while pending and (_PREC[pending[-1]] > prec or (_PREC[pending[-1]] == prec and op != IMPLIES)):
            right = out.pop()
            out[-1] = join(pending.pop(), out[-1], right)
        pending.append(op)
        out.append(operand)
    node = out.pop()
    while pending:
        node = join(pending.pop(), out.pop(), node)
    return node


_END = "end"  # the kind of the sentinel token after the last one
_END_TOKEN: Token = (_END, "", -1)


MAX_TOKENS = 500  # the most tokens a formula may have (see ``cap_tokens``)

# The most operators in the one connective chain that ``split_chain`` reads
# in every bracketing (Catalan(16) = 35,357,670 readings unchunked).
MAX_CHAIN_OPERATORS = 16

# The most bracketings of one chain that ``chain_readings`` builds.  Every
# chunk size up to 6 stays inside it on a 16-operator chain (49,392
# bracketings at 6, 8,750 at the default 4), as does any unchunked chain of
# up to 10 operators (16,796); 11 unchunked operators make 58,786.
MAX_READINGS = 50_000


def cap_tokens(count: int) -> None:
    """Raise ``CapExceeded`` for a formula of ``count`` tokens past the token
    cap: ``MAX_TOKENS``, or half the recursion limit where that is lower,
    since no parse or scoring walk nests deeper than its token count.
    Raising the limit leaves the cap, and so every score, as it is."""
    cap = min(MAX_TOKENS, sys.getrecursionlimit() // 2)
    if count > cap:
        raise CapExceeded(f"formula has {count} tokens (cap {cap})")


class _Parser:
    """A recursive-descent parser over ``lex``'s ``(kind, text, offset)``
    tuples, read by index: ``tok[0]`` is the kind, ``tok[1]`` the text and
    ``tok[2]`` the offset that a ``ParseError`` reports."""

    def __init__(self, tokens: list[Token], mode: str = "precedence", nodes=TREES):
        """Text past the token cap raises ``cap_tokens``'s ``CapExceeded``."""
        if not tokens:
            raise ParseError("empty formula")
        cap_tokens(len(tokens))
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
        tokens = self.tokens
        tok = tokens[self.pos]
        kind = tok[0]
        if kind == IDENT:
            # An atom, read here: ``ident`` and ``close_paren`` are called
            # only to raise their errors.
            pos = self.pos + 1
            if tokens[pos][0] != LPAREN:
                self.pos = pos
                return self.nodes.atom(tok[1], ())
            args = []
            while True:
                pos += 1
                arg = tokens[pos]
                if arg[0] != IDENT:
                    self.pos = pos
                    if arg[0] == RPAREN and not args:
                        raise ParseError("empty argument list", arg[2])
                    self.ident("an argument name")
                args.append(arg[1])
                pos += 1
                if tokens[pos][0] != COMMA:
                    break
            if tokens[pos][0] != RPAREN:
                self.pos = pos
                self.close_paren(tok)
            self.pos = pos + 1
            return self.nodes.atom(tok[1], tuple(args))
        if kind == NOT:
            # A run of negations is read in a loop and its operand parsed
            # once: one frame for the run, not one per ``¬``.
            start = self.pos
            while tokens[self.pos][0] == NOT:
                self.pos += 1
            negations = self.pos - start
            node, negate = self.unary(), self.nodes.negate
            for _ in range(negations):
                node = negate(node)
            return node
        if kind in QUANTIFIERS:
            self.pos += 1
            var = self.ident("a quantified variable name")
            return self.nodes.quantify(kind, var, self.unary)
        if kind == LPAREN:
            self.pos += 1
            operands, ops = self.chain(self.group_ops)
            self.close_paren(tok)
            if not ops:
                return operands[0]
            self.last_group = (operands, ops)
            if len(ops) == 1:
                return self.nodes.join(ops[0], operands[0], operands[1])
            return _fold(operands, ops, self.nodes.join)
        if kind == _END:
            raise ParseError("unexpected end of input")
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])

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


# --- rendering ---------------------------------------------------------------

_UNICODE_SYMBOLS = {NOT: "¬", AND: "∧", OR: "∨", IMPLIES: "→", IFF: "↔", XOR: "⊕"}
_ASCII_SYMBOLS = {NOT: "~", AND: "&", OR: "|", IMPLIES: "->", IFF: "<->", XOR: "^"}
_UNICODE_QUANT = {FORALL: "∀", EXISTS: "∃"}
_ASCII_QUANT = {FORALL: "forall ", EXISTS: "exists "}


def render(expr: FolExpr, style: str = "unicode") -> str:
    """Serialize a tree with the minimal parentheses that round-trip through
    :func:`parse` in precedence mode.  Iterative, so any tree renders."""
    if style == "unicode":
        sym, quant = _UNICODE_SYMBOLS, _UNICODE_QUANT
    elif style == "ascii":
        sym, quant = _ASCII_SYMBOLS, _ASCII_QUANT
    else:
        raise ValueError(f"unknown render style {style!r}")
    parts: list[str] = []
    # Children are pushed right to left, so popped in reading order, each
    # between parentheses when precedence-mode parsing needs them.
    stack: list[FolExpr | str] = [expr]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Atom):
            parts.append(atom_text(item.predicate, item.args))
        elif isinstance(item, Binary):
            op, left, right = item.op, item.left, item.right
            p = _PREC[op]
            # For right-associative implies, an equal-precedence left child
            # needs parentheses; for the left-associative connectives, the
            # right child does.
            q = _PREC[right.op] if isinstance(right, Binary) else _UNARY_PREC
            stack += (")", right, "(") if q < p or (q == p and op != IMPLIES) else (right,)
            stack.append(f" {sym[op]} ")
            q = _PREC[left.op] if isinstance(left, Binary) else _UNARY_PREC
            stack += (")", left, "(") if q < p or (q == p and op == IMPLIES) else (left,)
        else:
            parts.append(sym[NOT] if isinstance(item, Not) else f"{quant[item.quantifier]}{item.variable} ")
            body = item.body
            stack += (")", body, "(") if isinstance(body, Binary) else (body,)
    return "".join(parts)


# --- canonical form ----------------------------------------------------------


class Renaming:
    """The node factory (see ``TREES``) that holds the one rule renaming
    bound variables for ``canonicalize``, the CLI and every score: a bound
    name becomes its quantifier's pre-order index, and index i is named by
    the i-th of ``v1, v2, ...`` that no atom has as a free argument, so the
    renaming is capture-avoiding and idempotent.  It builds the tree with
    indices for bound names; ``canonicalize`` and a subclass build other
    nodes from the same ``scope`` (each bound name in scope and its index)
    and ``ordinals``.  A tree reaches it only through a parse of the
    tree's rendering, so the token cap bounds every pass over a tree."""

    negate = staticmethod(Not)
    join = staticmethod(Binary)
    quantified = staticmethod(Quantified)  # a quantifier's node from its index

    def __init__(self):
        # Atom keys in first-occurrence order, each a predicate and arguments
        # in which a bound name is the index of its quantifier.
        self.ordinals: dict[tuple[str, tuple[str | int, ...]], int] = {}
        self.scope: dict[str, int] = {}
        self.quantifiers = 0

    def atom(self, name: str, args: tuple[str, ...]):
        scope = self.scope  # empty outside every quantifier
        key = (name, tuple([scope.get(a, a) for a in args]) if scope else args)
        self.ordinals.setdefault(key, len(self.ordinals))
        return Atom(*key)

    def quantify(self, kind: str, var: str, parse_body):
        index, outer = self.quantifiers, self.scope
        self.scope = {**outer, var: index}
        self.quantifiers += 1
        body = parse_body()
        self.scope = outer
        return self.quantified(kind, index, body)

    def names(self) -> dict[int, str]:
        """Each index's name: ``names.get(a, a)`` names a key's argument."""
        free = {a for _, args in self.ordinals for a in args if isinstance(a, str)}
        fresh = (f"v{i}" for i in itertools.count(1) if f"v{i}" not in free)
        return dict(enumerate(itertools.islice(fresh, self.quantifiers)))

    def atoms(self) -> tuple[str, ...]:
        """The renamed texts (``atom_text``) of the distinct atoms, in first-occurrence order."""
        if not self.quantifiers:  # no bound name to rename
            return tuple([atom_text(p, args) for p, args in self.ordinals])
        names = self.names()
        return tuple([atom_text(p, tuple([names.get(a, a) for a in args])) for p, args in self.ordinals])


class _Naming(Renaming):
    """The renaming that builds the canonical tree, each bound index named by ``bound``."""

    def __init__(self, bound: dict[int, str]):
        super().__init__()
        self.bound = bound

    def atom(self, name: str, args: tuple[str, ...]):
        bound, scope = self.bound, self.scope
        return Atom(name, tuple([bound.get(scope.get(a, a), a) for a in args]))

    def quantified(self, kind: str, index: int, body):
        return Quantified(kind, self.bound[index], body)


def canonicalize(expr: FolExpr) -> FolExpr:
    """Rename bound variables by ``Renaming``'s rule: v1, v2, ... in order
    of quantifier appearance, skipping any name that occurs free.  Free
    names are left alone.  Two parses of the tree's rendering, which raise
    as that text does: one learns the names, and one builds the named tree
    from the same scope."""
    text = render(expr)
    indexing = Renaming()
    parse(text, nodes=indexing)
    return parse(text, nodes=_Naming(indexing.names()))


def atoms_of(expr: FolExpr) -> tuple[str, ...]:
    """Texts of the distinct atoms (``atom_text``) in first-occurrence order
    (pre-order, left to right), as written: canonicalize the tree first for
    the atoms that scoring names.  One parse of the tree's rendering, which
    raises as that text does."""
    seen: dict[str, None] = {}
    parse(render(expr), nodes=SimpleNamespace(
        atom=lambda name, args: seen.setdefault(atom_text(name, args)),
        negate=lambda body: None,
        join=lambda op, left, right: None,
        quantify=lambda kind, var, parse_body: parse_body(),
    ))
    return tuple(seen)


# --- bracketing enumeration --------------------------------------------------


def _all_bracketings(operands: list, ops: list[str], join) -> list:
    """Every reading of a chain, in the order of its split from left to
    right, then its left reading, then its right one.  Built shortest span
    first: ``spans[i][w]`` lists the readings of operands i to i + w, and
    each is built once and shared by the longer spans over it."""
    n = len(operands)
    spans = [[[operand]] for operand in operands]
    for width in range(1, n):
        for i in range(n - width):
            j = i + width
            spans[i].append([
                join(ops[split], left, right)
                for split in range(i, j)
                for left in spans[i][split - i]
                for right in spans[split + 1][j - split - 1]
            ])
    return spans[0][n - 1]


def _catalan(n: int) -> int:
    """The number of bracketings of a chain of ``n`` operators."""
    return math.comb(2 * n, n) // (n + 1)


def chain_readings(operands: list, ops: list[str], chunk_size: int | None, join=Binary) -> list:
    """The readings of one flat chain, described at enumerate_bracketings,
    each built by ``join`` as :func:`_fold` builds one.  Raises
    ``CapExceeded``, before building any, when the chain has more than
    ``MAX_READINGS`` bracketings."""
    k = len(ops)
    if k <= 1:
        return [_fold(operands, ops, join)]
    # No chunk size reads the chain as one chunk, whose bridge has no operator.
    width = chunk_size or len(operands)
    bounds = [(s, min(s + width, len(operands))) for s in range(0, len(operands), width)]
    # Each chunk's bracketings times the bridge chain's.
    count = math.prod([_catalan(e - s - 1) for s, e in bounds]) * _catalan(len(bounds) - 1)
    if count > MAX_READINGS:
        raise CapExceeded(f"connective chain has {count} readings (cap {MAX_READINGS})")
    precedence = _fold(operands, ops, join)

    chunk_lists = [_all_bracketings(operands[s:e], ops[s : e - 1], join) for s, e in bounds]
    bridge_ops = [ops[e - 1] for _, e in bounds[:-1]]
    # Cartesian product over per-chunk trees, then bracket the roots.
    enumerated = []
    for combo in itertools.product(*chunk_lists):
        enumerated.extend(_all_bracketings(list(combo), bridge_ops, join))

    # Distinct bracketings build distinct readings (the more operands a left
    # subtree spans, the larger it is), so only the precedence one can repeat.
    return [precedence] + [reading for reading in enumerated if reading != precedence]


def split_chain(tokens: list[Token], nodes=TREES) -> tuple:
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
    if len(ops) > MAX_CHAIN_OPERATORS:
        raise CapExceeded(f"connective chain has {len(ops)} operators (cap {MAX_CHAIN_OPERATORS})")
    return wrapped, operands, ops


def enumerate_bracketings(tokens: list[Token], chunk_size: int | None = None) -> list[FolExpr]:
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

    A chain of more than ``MAX_CHAIN_OPERATORS`` operators raises
    ``CapExceeded``, as do a chain of more than ``MAX_READINGS``
    bracketings and a formula over the parser's token cap.
    """
    if chunk_size is not None and chunk_size < 2:
        raise ValueError("chunk_size must be at least 2")
    wrapped, operands, ops = split_chain(tokens)
    readings = chain_readings(operands, ops, chunk_size)
    wrappers = []
    while isinstance(wrapped, (Not, Quantified)):
        wrappers.append(wrapped)
        wrapped = wrapped.body
    for wrapper in reversed(wrappers):
        readings = [replace(wrapper, body=t) for t in readings]
    return readings
