"""Formula syntax: AST nodes, parser, printer, and macro expansion.

Concrete syntax, lowest precedence first:

    iff     := imp ("<->" imp)*
    imp     := or ("->" imp)?            right associative
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "~" unary | prefix unary | primary
    prefix  := "K{" agent ("|" agents)? "}" | "D{" agents "}" | "E{" agents "}"
             | "Ri{" agents "}" | "Rk{" agents "}" | "Rk{" agent ";" agents "}"
             | "P{" agent "}" | "Ob{" agent "}" | "[" agent ">" agent "]"
    primary := "true" | "false" | "O" | "Ok{" agent "}"
             | "Perm(" agent ">" agent ")" | ATOM | "(" iff ")"

Atoms and agent names are lowercase identifiers.  Uppercase identifiers that
are not operator keywords act as schema variables: placeholder formulas in
formula position, placeholder agents in agent position.  `expand` rewrites
the defined operators (E, Rk, P, Ob, Perm) into the kernel language.
The passes over the tree here, printing aside, read the role of each node
field from one table (`_ROLES`), mostly through `rebuild`.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator, Mapping


class FormulaError(ValueError):
    """Malformed formula, or a schema instantiation that cannot be built."""


class ParseError(FormulaError):
    """Syntax error with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


_NAME_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
_META_RE = re.compile(r"[A-Z][a-zA-Z0-9_]*\Z")
_KEYWORDS = frozenset({"K", "D", "E", "Ri", "Rk", "P", "Ob", "Perm", "O", "Ok"})
_RESERVED = frozenset({"true", "false"})


def _valid_agent(name: object) -> bool:
    if not isinstance(name, str) or name in _KEYWORDS or name in _RESERVED:
        return False
    return bool(_NAME_RE.match(name) or _META_RE.match(name))


def _check_agent(name: object) -> None:
    if not _valid_agent(name):
        raise FormulaError("bad agent name %r" % (name,))


def _check_group(group: tuple) -> None:
    if not group:
        raise FormulaError("agent group must be non-empty")
    for a in group:
        _check_agent(a)
    if len(set(group)) != len(group):
        raise FormulaError("duplicate agent in group %r" % (group,))


class Formula:
    """Base class for formula nodes.  Instances are immutable and hashable."""

    __slots__ = ()

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __post_init__(self):
        if not isinstance(self.name, str) or not _NAME_RE.match(self.name) \
                or self.name in _RESERVED:
            raise FormulaError("bad atom name %r" % (self.name,))


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class IdealAtom(Formula):
    """Holds at states that belong to some ideal pair."""


@dataclass(frozen=True)
class OkAtom(Formula):
    """Holds where the agent's cell meets the ideal partners of the state."""

    agent: str

    def __post_init__(self):
        _check_agent(self.agent)


@dataclass(frozen=True)
class MetaFormula(Formula):
    """Schema variable standing for an arbitrary formula."""

    name: str

    def __post_init__(self):
        if not isinstance(self.name, str) or not _META_RE.match(self.name) \
                or self.name in _KEYWORDS:
            raise FormulaError("bad schema variable %r" % (self.name,))


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class K(Formula):
    """Knowledge of `agent`, relative to the information of `deps`.

    With empty deps this is plain individual knowledge.  Each dependency
    restricts the evaluation cell to what that agent can define.
    """

    agent: str
    body: Formula
    deps: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "deps", tuple(self.deps))
        _check_agent(self.agent)
        for d in self.deps:
            _check_agent(d)
        if len(set(self.deps)) != len(self.deps):
            raise FormulaError("duplicate dependency in %r" % (self.deps,))
        if self.agent in self.deps:
            raise FormulaError("agent %r cannot be its own dependency" % self.agent)


@dataclass(frozen=True)
class D(Formula):
    """Distributed knowledge of a group."""

    group: tuple
    body: Formula

    def __post_init__(self):
        object.__setattr__(self, "group", tuple(self.group))
        _check_group(self.group)


@dataclass(frozen=True)
class Share(Formula):
    """`[sender>receiver]body`: body holds after the sender's share."""

    sender: str
    receiver: str
    body: Formula

    def __post_init__(self):
        _check_agent(self.sender)
        _check_agent(self.receiver)


@dataclass(frozen=True)
class ResolveInfo(Formula):
    """Body holds after the group pools raw information (cell intersection)."""

    group: tuple
    body: Formula

    def __post_init__(self):
        object.__setattr__(self, "group", tuple(self.group))
        _check_group(self.group)


@dataclass(frozen=True)
class Everybody(Formula):
    """Defined: conjunction of individual knowledge over the group."""

    group: tuple
    body: Formula

    def __post_init__(self):
        object.__setattr__(self, "group", tuple(self.group))
        _check_group(self.group)


@dataclass(frozen=True)
class Resolution(Formula):
    """Defined: round-trip share chain through the group, in listed order."""

    group: tuple
    body: Formula

    def __post_init__(self):
        object.__setattr__(self, "group", tuple(self.group))
        _check_group(self.group)


@dataclass(frozen=True)
class LeaderResolution(Formula):
    """Defined: one-way share chain from the leader through the group."""

    leader: str
    group: tuple
    body: Formula

    def __post_init__(self):
        object.__setattr__(self, "group", tuple(self.group))
        _check_agent(self.leader)
        _check_group(self.group)
        if self.group[0] != self.leader:
            raise FormulaError("leader %r must head the group %r"
                               % (self.leader, self.group))


@dataclass(frozen=True)
class Permitted(Formula):
    """Defined: the agent knows the body and is in an allowed position."""

    agent: str
    body: Formula

    def __post_init__(self):
        _check_agent(self.agent)


@dataclass(frozen=True)
class Obliged(Formula):
    """Defined: not permitted to have the body false."""

    agent: str
    body: Formula

    def __post_init__(self):
        _check_agent(self.agent)


@dataclass(frozen=True)
class PermittedShare(Formula):
    """Defined: after sender shares with receiver, the receiver is allowed."""

    sender: str
    receiver: str

    def __post_init__(self):
        _check_agent(self.sender)
        _check_agent(self.receiver)


# ---------------------------------------------------------------------------
# field roles: the one place that says what each node field holds

_SUB, _AGENT, _AGENTS, _PAYLOAD = "subformula", "agent", "agents", "payload"

_ROLES = {
    "body": _SUB, "left": _SUB, "right": _SUB,
    "agent": _AGENT, "sender": _AGENT, "receiver": _AGENT, "leader": _AGENT,
    "group": _AGENTS, "deps": _AGENTS,
    "name": _PAYLOAD,
}


@functools.cache
def _layout(cls: type) -> tuple:
    """(field name, role) of each field of a node class, in field order."""
    out = []
    for fld in fields(cls):
        if fld.name not in _ROLES:
            raise FormulaError("field %s.%s has no role"
                               % (cls.__name__, fld.name))
        out.append((fld.name, _ROLES[fld.name]))
    return tuple(out)


def rebuild(f: Formula, sub: Callable[[Formula], Formula],
            agent: Callable[[str], str] | None = None) -> Formula:
    """Apply `sub` to each direct subformula and `agent`, if given, to each
    agent name; return `f` itself when nothing changes."""
    args = []
    changed = False
    for name, role in _layout(type(f)):
        old = new = getattr(f, name)
        if role is _SUB:
            # by identity: comparing rewritten subtrees costs their depth
            new = sub(old)
            changed = changed or new is not old
        elif agent is not None and role is not _PAYLOAD:
            new = agent(old) if role is _AGENT else tuple(map(agent, old))
            changed = changed or new != old
        args.append(new)
    return type(f)(*args) if changed else f


def _children(f: Formula) -> list:
    return [getattr(f, name) for name, role in _layout(type(f))
            if role is _SUB]


def _walk(f: Formula) -> Iterator[Formula]:
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(_children(g))


def _nests_deeper(f: Formula, levels: int) -> bool:
    # recursion stops after `levels` levels, so any tree is safe
    return levels == 0 or any(_nests_deeper(c, levels - 1)
                              for c in _children(f))


# ---------------------------------------------------------------------------
# tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


_PUNCT = {
    "(": "LPAREN", ")": "RPAREN", "{": "LBRACE", "}": "RBRACE",
    "[": "LBRACK", "]": "RBRACK", ",": "COMMA", ";": "SEMI",
    "&": "AND", "|": "BAR", "~": "NOT", ">": "GT",
}


def _tokenize(text: str) -> list:
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "-":
            if text.startswith("->", i):
                toks.append(_Token("ARROW", "->", line, col))
                i += 2
                col += 2
                continue
            raise ParseError("stray '-'", line, col)
        if ch == "<":
            if text.startswith("<->", i):
                toks.append(_Token("DARROW", "<->", line, col))
                i += 3
                col += 3
                continue
            raise ParseError("stray '<'", line, col)
        if ch in _PUNCT:
            toks.append(_Token(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    toks.append(_Token("EOF", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# parser


# Deepest formula `parse` accepts, in nodes from root to leaf (an atom alone
# has depth 1; parentheses count while parsing), so that the parser, printer,
# `expand` and, for small groups, the evaluator stay inside the default
# recursion limit.  Expansion deepens `E` and `Rk` by the size of the group.
MAX_DEPTH = 64


def _too_deep(tok: _Token) -> ParseError:
    return ParseError("formula nests deeper than %d levels" % MAX_DEPTH,
                      tok.line, tok.col)


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def run(self) -> Formula:
        f = self.formula()
        self.expect("EOF", "end of input")
        # every node takes at least one token, so short input is shallow
        if len(self.toks) > MAX_DEPTH and _nests_deeper(f, MAX_DEPTH):
            raise _too_deep(self.toks[0])
        return f

    def enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise _too_deep(self.peek())

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def advance(self) -> _Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            found = tok.text if tok.kind != "EOF" else "end of input"
            raise ParseError("expected %s, found %r" % (what, found),
                             tok.line, tok.col)
        return self.advance()

    def formula(self) -> Formula:
        f = self.imp()
        while self.peek().kind == "DARROW":
            self.advance()
            f = Iff(f, self.imp())
        return f

    def imp(self) -> Formula:
        f = self.disj()
        if self.peek().kind == "ARROW":
            self.advance()
            self.enter()
            f = Imp(f, self.imp())
            self.depth -= 1
        return f

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek().kind == "BAR":
            self.advance()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.peek().kind == "AND":
            self.advance()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        self.enter()
        f = self.prefixed()
        self.depth -= 1
        return f

    def prefixed(self) -> Formula:
        tok = self.peek()
        if tok.kind == "NOT":
            self.advance()
            return Not(self.unary())
        if tok.kind == "LBRACK":
            self.advance()
            sender = self.agent()
            self.expect("GT", "'>'")
            receiver = self.agent()
            self.expect("RBRACK", "']'")
            return Share(sender, receiver, self.unary())
        if tok.kind == "IDENT":
            word = tok.text
            if word == "K":
                return self.k_formula()
            if word == "Rk":
                return self.rk_formula()
            if word == "D":
                self.advance()
                return D(self.group(), self.unary())
            if word == "E":
                self.advance()
                return Everybody(self.group(), self.unary())
            if word == "Ri":
                self.advance()
                return ResolveInfo(self.group(), self.unary())
            if word == "P":
                self.advance()
                return Permitted(self.braced_agent(), self.unary())
            if word == "Ob":
                self.advance()
                return Obliged(self.braced_agent(), self.unary())
        return self.primary()

    def primary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.advance()
            f = self.formula()
            self.expect("RPAREN", "')'")
            return f
        if tok.kind == "IDENT":
            word = tok.text
            if word == "true":
                self.advance()
                return Top()
            if word == "false":
                self.advance()
                return Bot()
            if word == "O":
                self.advance()
                return IdealAtom()
            if word == "Ok":
                self.advance()
                return OkAtom(self.braced_agent())
            if word == "Perm":
                self.advance()
                self.expect("LPAREN", "'('")
                sender = self.agent()
                self.expect("GT", "'>'")
                receiver = self.agent()
                self.expect("RPAREN", "')'")
                return PermittedShare(sender, receiver)
            if word in _KEYWORDS:
                raise ParseError("operator %r is missing its arguments" % word,
                                 tok.line, tok.col)
            self.advance()
            if word[0].islower():
                return Atom(word)
            return MetaFormula(word)
        found = tok.text if tok.kind != "EOF" else "end of input"
        raise ParseError("expected a formula, found %r" % found,
                         tok.line, tok.col)

    def k_formula(self) -> Formula:
        self.advance()
        self.expect("LBRACE", "'{'")
        knower = self.agent()
        deps: tuple = ()
        if self.peek().kind == "BAR":
            self.advance()
            deps = self.agent_list()
        self.expect("RBRACE", "'}'")
        return K(knower, self.unary(), deps)

    def rk_formula(self) -> Formula:
        self.advance()
        self.expect("LBRACE", "'{'")
        first = self.agent()
        if self.peek().kind == "SEMI":
            self.advance()
            group = self.agent_list()
            self.expect("RBRACE", "'}'")
            return LeaderResolution(first, group, self.unary())
        names = [first]
        while self.peek().kind == "COMMA":
            self.advance()
            names.append(self.agent())
        self.expect("RBRACE", "'}'")
        return Resolution(tuple(names), self.unary())

    def group(self) -> tuple:
        self.expect("LBRACE", "'{'")
        names = self.agent_list()
        self.expect("RBRACE", "'}'")
        return names

    def braced_agent(self) -> str:
        self.expect("LBRACE", "'{'")
        name = self.agent()
        self.expect("RBRACE", "'}'")
        return name

    def agent_list(self) -> tuple:
        names = [self.agent()]
        while self.peek().kind == "COMMA":
            self.advance()
            names.append(self.agent())
        return tuple(names)

    def agent(self) -> str:
        tok = self.expect("IDENT", "an agent name")
        if tok.text in _KEYWORDS or tok.text in _RESERVED:
            raise ParseError("%r cannot be used as an agent name" % tok.text,
                             tok.line, tok.col)
        return tok.text


def parse(text: str) -> Formula:
    """Parse concrete syntax into a formula."""
    return _Parser(text).run()


# ---------------------------------------------------------------------------
# printer

_IFF, _IMP, _OR, _AND, _UNARY, _ATOMIC = 1, 2, 3, 4, 5, 6


def print_formula(f: Formula) -> str:
    """Render with minimal parentheses; `parse` round-trips the result."""
    return _show(f, 0)


def _show(f: Formula, outer: int) -> str:
    if isinstance(f, Atom):
        s, prec = f.name, _ATOMIC
    elif isinstance(f, Top):
        s, prec = "true", _ATOMIC
    elif isinstance(f, Bot):
        s, prec = "false", _ATOMIC
    elif isinstance(f, IdealAtom):
        s, prec = "O", _ATOMIC
    elif isinstance(f, OkAtom):
        s, prec = "Ok{%s}" % f.agent, _ATOMIC
    elif isinstance(f, MetaFormula):
        s, prec = f.name, _ATOMIC
    elif isinstance(f, PermittedShare):
        s, prec = "Perm(%s>%s)" % (f.sender, f.receiver), _ATOMIC
    elif isinstance(f, Not):
        s, prec = "~" + _show(f.body, _UNARY), _UNARY
    elif isinstance(f, K):
        head = "K{%s}" % f.agent if not f.deps \
            else "K{%s|%s}" % (f.agent, ",".join(f.deps))
        s, prec = head + _show(f.body, _UNARY), _UNARY
    elif isinstance(f, D):
        s, prec = "D{%s}" % ",".join(f.group) + _show(f.body, _UNARY), _UNARY
    elif isinstance(f, Everybody):
        s, prec = "E{%s}" % ",".join(f.group) + _show(f.body, _UNARY), _UNARY
    elif isinstance(f, ResolveInfo):
        s, prec = "Ri{%s}" % ",".join(f.group) + _show(f.body, _UNARY), _UNARY
    elif isinstance(f, Resolution):
        s, prec = "Rk{%s}" % ",".join(f.group) + _show(f.body, _UNARY), _UNARY
    elif isinstance(f, LeaderResolution):
        head = "Rk{%s;%s}" % (f.leader, ",".join(f.group))
        s, prec = head + _show(f.body, _UNARY), _UNARY
    elif isinstance(f, Share):
        head = "[%s>%s]" % (f.sender, f.receiver)
        s, prec = head + _show(f.body, _UNARY), _UNARY
    elif isinstance(f, Permitted):
        s, prec = "P{%s}" % f.agent + _show(f.body, _UNARY), _UNARY
    elif isinstance(f, Obliged):
        s, prec = "Ob{%s}" % f.agent + _show(f.body, _UNARY), _UNARY
    elif isinstance(f, And):
        s = "%s & %s" % (_show(f.left, _AND), _show(f.right, _AND + 1))
        prec = _AND
    elif isinstance(f, Or):
        s = "%s | %s" % (_show(f.left, _OR), _show(f.right, _OR + 1))
        prec = _OR
    elif isinstance(f, Imp):
        s = "%s -> %s" % (_show(f.left, _IMP + 1), _show(f.right, _IMP))
        prec = _IMP
    elif isinstance(f, Iff):
        s = "%s <-> %s" % (_show(f.left, _IFF), _show(f.right, _IFF + 1))
        prec = _IFF
    else:
        raise FormulaError("cannot print %r" % (f,))
    if prec < outer:
        return "(" + s + ")"
    return s


# ---------------------------------------------------------------------------
# macro expansion


def _share_chain(pairs: list, body: Formula) -> Formula:
    f = body
    for sender, receiver in reversed(pairs):
        f = Share(sender, receiver, f)
    return f


def _round_trip_pairs(group: tuple) -> list:
    fwd = [(group[i], group[i + 1]) for i in range(len(group) - 1)]
    back = [(r, s) for s, r in reversed(fwd)]
    return fwd + back


def expand(f: Formula) -> Formula:
    """Rewrite defined operators into the kernel language.  Idempotent."""
    if isinstance(f, Everybody):
        body = expand(f.body)
        g = K(f.group[0], body)
        for a in f.group[1:]:
            g = And(g, K(a, body))
        return g
    if isinstance(f, Resolution):
        return _share_chain(_round_trip_pairs(f.group), expand(f.body))
    if isinstance(f, LeaderResolution):
        fwd = [(f.group[i], f.group[i + 1]) for i in range(len(f.group) - 1)]
        return _share_chain(fwd, expand(f.body))
    if isinstance(f, Permitted):
        return And(K(f.agent, expand(f.body)), OkAtom(f.agent))
    if isinstance(f, Obliged):
        return Not(And(K(f.agent, Not(expand(f.body))), OkAtom(f.agent)))
    if isinstance(f, PermittedShare):
        return Share(f.sender, f.receiver, OkAtom(f.receiver))
    return rebuild(f, expand)


# ---------------------------------------------------------------------------
# queries


def atoms_of(f: Formula) -> frozenset:
    """Names of all atoms occurring in the formula."""
    return frozenset(g.name for g in _walk(f) if isinstance(g, Atom))


def agents_of(f: Formula) -> frozenset:
    """All agent names in agent position, schema placeholders included."""
    out = set()
    for g in _walk(f):
        rebuild(g, lambda h: h, lambda a: out.add(a) or a)
    return frozenset(out)


def meta_formulas_of(f: Formula) -> frozenset:
    return frozenset(g.name for g in _walk(f) if isinstance(g, MetaFormula))


def meta_agents_of(f: Formula) -> frozenset:
    return frozenset(a for a in agents_of(f) if a[0].isupper())


# ---------------------------------------------------------------------------
# schemas


def substitute(f: Formula, formulas: Mapping | None = None,
               agents: Mapping | None = None) -> Formula:
    """Replace schema variables.  Every placeholder must be covered."""
    fmap = dict(formulas or {})
    amap = dict(agents or {})

    def sub_agent(name: str) -> str:
        if name in amap:
            return amap[name]
        if name[0].isupper():
            raise FormulaError("unbound agent variable %r" % name)
        return name

    def go(g: Formula) -> Formula:
        if isinstance(g, MetaFormula):
            if g.name not in fmap:
                raise FormulaError("unbound formula variable %r" % g.name)
            return fmap[g.name]
        return rebuild(g, go, sub_agent)

    return go(f)


@dataclass(frozen=True)
class Schema:
    """A named formula template with uppercase placeholders."""

    name: str
    template: Formula


def instantiate(schema: Schema, formulas: Iterable,
                agents: Iterable) -> Iterator[Formula]:
    """Yield concrete instances of a schema, deduplicated, in a fixed order.

    Agent placeholders range injectively over `agents`; formula placeholders
    range independently over `formulas`.
    """
    fvars = sorted(meta_formulas_of(schema.template))
    avars = sorted(meta_agents_of(schema.template))
    pool = list(dict.fromkeys(agents))
    phis = list(formulas)
    if len(pool) < len(avars):
        raise FormulaError("schema %r needs %d distinct agents, got %d"
                           % (schema.name, len(avars), len(pool)))
    seen = set()
    for combo in itertools.permutations(pool, len(avars)):
        amap = dict(zip(avars, combo))
        for fs in itertools.product(phis, repeat=len(fvars)):
            inst = substitute(schema.template, dict(zip(fvars, fs)), amap)
            if inst not in seen:
                seen.add(inst)
                yield inst
