"""Formula syntax: AST nodes, parser, printer, and macro expansion.

Concrete syntax: binary connectives, then prefix operators, each applying
to the prefix formula that follows, then atomic formulas and parenthesized
formulas.  Two tables say how every operator is written, and the parser and
printer both read them: `_BINARY` lists the connectives from loosest to
tightest, and `_HEADS` the head of every other operator.

Atoms and agent names are lowercase identifiers.  Uppercase identifiers that
are not operator keywords act as schema variables: placeholder formulas in
formula position, placeholder agents in agent position.  `expand` rewrites
the defined operators (E, Rk, P, Ob, Perm) into the kernel language.
The passes over the tree read the role of each node field from one table
(`_ROLES`), mostly through `rebuild`; the node constructors check every
agent slot that table names, and the evaluator looks up the same slots.
`instantiate` fills agent placeholders with pairwise distinct agents,
except the placeholders it is told are free.

Nodes are hash-consed (Filliâtre and Conchon, "Type-safe modular
hash-consing", 2006): the constructor returns the equal node from a weak
table of live nodes if there is one (looked up before building the node
when every field is given in order, else after building and validating it),
so equal formulas are one object, equality and hashing go by identity,
and a formula is a DAG whose shared subformulas (the body of an expanded
`E`) are stored and walked once.
"""

from __future__ import annotations

import functools
import itertools
import re
import weakref
from dataclasses import MISSING, dataclass, fields
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
# operator keywords, which no atom, agent or schema variable may be named,
# are read off the syntax table below (`_KEYWORDS`)


def _check_agent(name: object) -> None:
    if not isinstance(name, str) or name in _KEYWORDS \
            or not (_NAME_RE.match(name) or _META_RE.match(name)):
        raise FormulaError("bad agent name %r" % (name,))


# Every live node, keyed by (class, field values): a weak-value table, so a
# node lives only while something else holds it.  Children are interned
# before their parent, so a key's fields compare and hash by identity.
_TABLE = {}


def _forget(ref: weakref.KeyedRef) -> None:
    if _TABLE.get(ref.key) is ref:
        del _TABLE[ref.key]


class _Interned(type):
    """Hash-consing constructor: a positional call whose arguments are the
    fields of a live node returns that node; otherwise the dataclass
    constructor binds the arguments and validates the node, and a node
    equal to a live one is then dropped for that one."""

    def __call__(cls, *args, **kwargs):
        if not kwargs:
            # every field given in order (as `rebuild` and the parser's
            # binary and atom nodes call): a live node with these fields
            # needs no constructor
            try:
                ref = _TABLE.get((cls, *args))
            except TypeError:  # an unhashable argument: let the
                ref = None     # constructor judge it
            live = None if ref is None else ref()
            if live is not None:
                return live
        node = super().__call__(*args, **kwargs)
        # a new node holds its fields and nothing else, in field order
        key = (cls, *vars(node).values())
        try:
            ref = _TABLE.get(key)
        except TypeError:  # an unhashable field; validation names most
            raise FormulaError("unhashable field in %s%r"
                               % (cls.__name__, key[1:])) from None
        live = None if ref is None else ref()
        if live is not None:
            return live
        _TABLE[key] = weakref.KeyedRef(node, _forget, key)
        return node


class Formula(metaclass=_Interned):
    """Base class for formula nodes.  Nodes are immutable and interned:
    equal nodes are the same object, so equality and hashing go by
    identity.  Each node caches its kernel expansion (`expand`)."""

    __slots__ = ()
    # the kernel expansion once computed; _KERNEL on a kernel node
    _kernel = None

    def __reduce__(self):
        # copies and unpickled nodes go through the interning constructor
        return type(self), tuple(getattr(self, name)
                                 for name, _ in _layout(type(self)))

    def __post_init__(self):
        # every agent slot the role table names, in field order; an agent
        # tuple may be given as any iterable, and may be empty only if its
        # field has a default (K's deps)
        for name, role, optional in _agent_fields(type(self)):
            value = getattr(self, name)
            if role is _AGENT:
                _check_agent(value)
                continue
            value = tuple(value)
            object.__setattr__(self, name, value)
            if not value and not optional:
                raise FormulaError("agent group must be non-empty")
            for a in value:
                _check_agent(a)
            if len(set(value)) != len(value):
                raise FormulaError(_DUPLICATE[name] % (value,))

    def __str__(self) -> str:
        return print_formula(self)


# node classes: frozen dataclasses whose equality and hash are identity
_node = dataclass(frozen=True, eq=False)


@_node
class Atom(Formula):
    name: str

    def __post_init__(self):
        if not isinstance(self.name, str) or not _NAME_RE.match(self.name) \
                or self.name in _KEYWORDS:
            raise FormulaError("bad atom name %r" % (self.name,))


@_node
class Top(Formula):
    pass


@_node
class Bot(Formula):
    pass


@_node
class IdealAtom(Formula):
    """Holds at states that belong to some ideal pair."""


@_node
class OkAtom(Formula):
    """Holds where the agent's cell meets the ideal partners of the state."""

    agent: str


@_node
class MetaFormula(Formula):
    """Schema variable standing for an arbitrary formula."""

    name: str

    def __post_init__(self):
        if not isinstance(self.name, str) or not _META_RE.match(self.name) \
                or self.name in _KEYWORDS:
            raise FormulaError("bad schema variable %r" % (self.name,))


@_node
class Not(Formula):
    body: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Imp(Formula):
    left: Formula
    right: Formula


@_node
class Iff(Formula):
    left: Formula
    right: Formula


@_node
class K(Formula):
    """Knowledge of `agent`, relative to the information of `deps`.

    With empty deps this is plain individual knowledge.  Each dependency
    restricts the evaluation cell to what that agent can define.
    """

    agent: str
    body: Formula
    deps: tuple = ()

    def __post_init__(self):
        super().__post_init__()
        if self.agent in self.deps:
            raise FormulaError("agent %r cannot be its own dependency" % self.agent)


@_node
class D(Formula):
    """Distributed knowledge of a group."""

    group: tuple
    body: Formula


@_node
class Share(Formula):
    """Body holds after the sender shares with the receiver."""

    sender: str
    receiver: str
    body: Formula


@_node
class ResolveInfo(Formula):
    """Body holds after the group pools raw information (cell intersection)."""

    group: tuple
    body: Formula


@_node
class Everybody(Formula):
    """Defined: conjunction of individual knowledge over the group."""

    group: tuple
    body: Formula


@_node
class Resolution(Formula):
    """Defined: round-trip share chain through the group, in listed order."""

    group: tuple
    body: Formula


@_node
class LeaderResolution(Formula):
    """Defined: one-way share chain from the leader through the group."""

    leader: str
    group: tuple
    body: Formula

    def __post_init__(self):
        super().__post_init__()
        if self.group[0] != self.leader:
            raise FormulaError("leader %r must head the group %r"
                               % (self.leader, self.group))


@_node
class Permitted(Formula):
    """Defined: the agent knows the body and is in an allowed position."""

    agent: str
    body: Formula


@_node
class Obliged(Formula):
    """Defined: not permitted to have the body false."""

    agent: str
    body: Formula


@_node
class PermittedShare(Formula):
    """Defined: after sender shares with receiver, the receiver is allowed."""

    sender: str
    receiver: str


# ---------------------------------------------------------------------------
# field roles: the one place that says what each node field holds

_SUB, _AGENT, _AGENTS, _PAYLOAD = "subformula", "agent", "agents", "payload"

_ROLES = {
    "body": _SUB, "left": _SUB, "right": _SUB,
    "agent": _AGENT, "sender": _AGENT, "receiver": _AGENT, "leader": _AGENT,
    "group": _AGENTS, "deps": _AGENTS,
    "name": _PAYLOAD,
}

# what a repeated name in each agent tuple field is reported as
_DUPLICATE = {"group": "duplicate agent in group %r",
              "deps": "duplicate dependency in %r"}


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


@functools.cache
def _agent_fields(cls: type) -> tuple:
    """(field name, role, whether it has a default) of each agent and agent
    tuple field of a node class, in field order."""
    defaults = {f.name for f in fields(cls) if f.default is not MISSING}
    return tuple((name, role, name in defaults) for name, role in _layout(cls)
                 if role is _AGENT or role is _AGENTS)


def rebuild(f: Formula, sub: Callable[[Formula], Formula],
            agent: Callable[[str], str] | None = None) -> Formula:
    """Apply `sub` to each direct subformula and `agent`, if given, to each
    agent name; return `f` itself when nothing changes."""
    args = []
    changed = False
    for name, role in _layout(type(f)):
        old = new = getattr(f, name)
        if role is _SUB:
            # nodes are interned, so identity is equality
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
    """Each distinct node under `f` once: shared subformulas (as in an
    expanded `E`) are not walked again."""
    seen = {f}
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        for c in _children(g):
            if c not in seen:
                seen.add(c)
                stack.append(c)


def _nests_deeper(f: Formula, levels: int) -> bool:
    # recursion stops after `levels` levels, so any tree is safe
    return levels == 0 or any(_nests_deeper(c, levels - 1)
                              for c in _children(f))


# ---------------------------------------------------------------------------
# tokenizer


# A token is a plain tuple (kind, text, line, column), cheap to build.
_KIND, _TEXT = 0, 1


_PUNCT = {
    "(": "LPAREN", ")": "RPAREN", "{": "LBRACE", "}": "RBRACE",
    "[": "LBRACK", "]": "RBRACK", ",": "COMMA", ";": "SEMI",
    "&": "AND", "|": "BAR", "~": "NOT", ">": "GT",
}


# One alternative per kind of text.  Names are ASCII, and the catch-all
# comes last, so every other character is read as punctuation or reported
# with its position: `finditer` would skip text that nothing matches.
_SCAN_RE = re.compile(r"(?P<NEWLINE>\n)|[ \t\r]+|(?P<DARROW><->)|(?P<ARROW>->)"
                      r"|(?P<IDENT>[a-zA-Z][a-zA-Z0-9_]*)|(?P<CHAR>.)",
                      re.DOTALL)


def _tokenize(text: str) -> list:
    toks = []
    line, start = 1, 0  # start: offset of the line's first character
    for m in _SCAN_RE.finditer(text):
        kind, tok, col = m.lastgroup, m.group(), m.start() - start + 1
        if kind == "NEWLINE":
            line, start = line + 1, m.end()
        elif kind == "CHAR":
            if tok not in _PUNCT:
                raise ParseError("stray %r" % tok if tok in "-<"
                                 else "unexpected character %r" % tok,
                                 line, col)
            toks.append((_PUNCT[tok], tok, line, col))
        elif kind is not None:  # None: spaces
            toks.append((kind, tok, line, col))
    toks.append(("EOF", "", line, len(text) - start + 1))
    return toks


# ---------------------------------------------------------------------------
# concrete syntax: the one place that says how each operator is written

# binary connectives, loosest first: (token, node class, right associative)
_BINARY = (("<->", Iff, False), ("->", Imp, True), ("|", Or, False),
           ("&", And, False))

# Every other operator's head, with each agent field written as its field
# name.  A node with a body is a prefix operator whose body follows the
# head.  An agent tuple with a default (K's deps) may be left out together
# with the separator before it.  Heads that share a keyword are tried in
# this order.
_HEADS = (
    (Top, "true"), (Bot, "false"), (IdealAtom, "O"), (OkAtom, "Ok{agent}"),
    (PermittedShare, "Perm(sender>receiver)"), (Not, "~"),
    (K, "K{agent|deps}"), (D, "D{group}"), (Everybody, "E{group}"),
    (ResolveInfo, "Ri{group}"), (Resolution, "Rk{group}"),
    (LeaderResolution, "Rk{leader;group}"), (Share, "[sender>receiver]"),
    (Permitted, "P{agent}"), (Obliged, "Ob{agent}"),
)

# role of the separator before an agent tuple that may be left out
_OPTIONAL = "optional"


def _program(cls: type, head: str) -> tuple:
    """The head as (token kind, text, field role) steps.  An agent field's
    text is its field name; a literal token has no role."""
    roles = dict(_layout(cls))
    defaults = {name for name, _, default in _agent_fields(cls) if default}
    toks = _tokenize(head)
    steps = []
    for (kind, text, _, _), after in zip(toks, toks[1:]):  # then EOF
        role = roles.get(text)
        if role is None and after[_TEXT] in defaults:
            role = _OPTIONAL
        steps.append((kind, text, role))
    return tuple(steps)


# node class -> (head program, whether a body follows)
_SYNTAX = {cls: (_program(cls, head), "body" in dict(_layout(cls)))
           for cls, head in _HEADS}
# text of a head's first token -> the node classes whose head it starts
_STARTS = {}
for _cls, (_steps, _) in _SYNTAX.items():
    _STARTS.setdefault(_steps[0][1], []).append(_cls)
_KEYWORDS = frozenset(word for word in _STARTS if word[0].isalpha())
# binding strength: a binary node's position in _BINARY from 1, then heads
_LEVEL = {cls: level for level, (_, cls, _) in enumerate(_BINARY, 1)}
_PREFIX = len(_BINARY) + 1


# ---------------------------------------------------------------------------
# parser


# Deepest formula `parse` accepts, in nodes from root to leaf (an atom alone
# has depth 1; parentheses count while parsing), so that the parser, printer,
# `expand` and, for small groups, the evaluator stay inside the default
# recursion limit.  Expansion deepens `E` and `Rk` by the size of the group.
MAX_DEPTH = 64


def _too_deep(tok: tuple) -> ParseError:
    return ParseError("formula nests deeper than %d levels" % MAX_DEPTH,
                      *tok[2:])


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def run(self) -> Formula:
        f = self.binary(0)
        self.expect("EOF", "end of input")
        # every node takes at least one token, so short input is shallow
        if len(self.toks) > MAX_DEPTH and _nests_deeper(f, MAX_DEPTH):
            raise _too_deep(self.toks[0])
        return f

    def enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise _too_deep(self.peek())

    def peek(self) -> tuple:
        return self.toks[self.pos]

    def advance(self) -> tuple:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple:
        tok = self.peek()
        if tok[_KIND] != kind:
            found = tok[_TEXT] if tok[_KIND] != "EOF" else "end of input"
            raise ParseError("expected %s, found %r" % (what, found),
                             *tok[2:])
        return self.advance()

    def binary(self, level: int) -> Formula:
        """Parse the connectives of `_BINARY[level:]`."""
        if level == len(_BINARY):
            return self.unary()
        token, cls, right = _BINARY[level]
        f = self.binary(level + 1)
        while self.peek()[_TEXT] == token:
            self.advance()
            if right:
                self.enter()
                f = cls(f, self.binary(level))
                self.depth -= 1
            else:
                f = cls(f, self.binary(level + 1))
        return f

    def unary(self) -> Formula:
        self.enter()
        heads = _STARTS.get(self.peek()[_TEXT])
        f = self.primary() if heads is None else self.node(heads)
        self.depth -= 1
        return f

    def node(self, heads: list) -> Formula:
        # the first head that reads wins; if none does, report the error
        # of the one that got furthest (the first on a tie)
        start = self.pos
        errors = []
        for cls in heads:
            program, prefix = _SYNTAX[cls]
            try:
                args = self.head(program)
            except ParseError as err:
                errors.append(err)
                self.pos = start
                continue
            if prefix:
                args["body"] = self.unary()
            return cls(**args)
        raise max(errors, key=lambda err: (err.line, err.col))

    def head(self, program: tuple) -> dict:
        """Read a head; return its agent fields by name."""
        args = {}
        steps = iter(program)
        for kind, text, role in steps:
            if role is _AGENT:
                args[text] = self.agent()
            elif role is _AGENTS:
                args[text] = self.agent_list()
            elif self.peek()[_KIND] == kind:
                self.advance()
            elif role is _OPTIONAL:
                next(steps)  # the field keeps its default
            else:
                self.expect(kind, "'%s'" % text)  # raises
        return args

    def primary(self) -> Formula:
        kind, text, line, col = self.advance()
        if kind == "LPAREN":
            f = self.binary(0)
            self.expect("RPAREN", "')'")
            return f
        if kind == "IDENT":
            if text[0].islower():
                return Atom(text)
            return MetaFormula(text)
        found = text if kind != "EOF" else "end of input"
        raise ParseError("expected a formula, found %r" % found, line, col)

    def agent_list(self) -> tuple:
        names = [self.agent()]
        while self.peek()[_KIND] == "COMMA":
            self.advance()
            names.append(self.agent())
        return tuple(names)

    def agent(self) -> str:
        _, text, line, col = self.expect("IDENT", "an agent name")
        if text in _KEYWORDS:
            raise ParseError("%r cannot be used as an agent name" % text,
                             line, col)
        return text


def parse(text: str) -> Formula:
    """Parse concrete syntax into a formula."""
    return _Parser(text).run()


# ---------------------------------------------------------------------------
# printer


def print_formula(f: Formula) -> str:
    """Render with minimal parentheses; `parse` round-trips the result."""
    return _show(f, 0)


def _show(f: Formula, outer: int) -> str:
    cls = type(f)
    level = _LEVEL.get(cls)
    if level is not None:
        token, _, right = _BINARY[level - 1]
        inner = (level + 1, level) if right else (level, level + 1)
        s = "%s %s %s" % (_show(f.left, inner[0]), token,
                          _show(f.right, inner[1]))
    elif cls is Atom or cls is MetaFormula:
        return f.name
    elif cls in _SYNTAX:
        program, prefix = _SYNTAX[cls]
        parts = []
        for kind, text, role in program:
            if role is _AGENT:
                parts.append(getattr(f, text))
            elif role is _AGENTS:
                names = getattr(f, text)
                if names:
                    parts.append(",".join(names))
                else:
                    parts.pop()  # an empty tuple drops its separator
            else:
                parts.append(text)
        s = "".join(parts)
        if not prefix:
            return s
        s += _show(f.body, _PREFIX)
        level = _PREFIX
    else:
        raise FormulaError("cannot print %r" % (f,))
    if level < outer:
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


# the expansion cached on a kernel node: the node itself, but a reference
# to itself would keep it out of reach of reference counting
_KERNEL = object()


def expand(f: Formula) -> Formula:
    """Rewrite defined operators into the kernel language.  Idempotent.

    The result is cached on the node, so each distinct node is expanded
    once while it lives."""
    g = f._kernel
    if g is _KERNEL:
        return f
    if g is None:
        g = _expand(f)
        object.__setattr__(f, "_kernel", _KERNEL if g is f else g)
        if g._kernel is None:
            object.__setattr__(g, "_kernel", _KERNEL)
    return g


def _expand(f: Formula) -> Formula:
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

    @functools.cache  # each distinct node of the DAG is rewritten once
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


def instantiate(schema: Schema, formulas: Iterable, agents: Iterable,
                free: Iterable = ()) -> Iterator[Formula]:
    """Yield concrete instances of a schema, deduplicated, in a fixed order.

    Agent placeholders range over `agents`, pairwise distinct except those
    named in `free`, which range unrestricted; formula placeholders range
    independently over `formulas`.
    """
    fvars = sorted(meta_formulas_of(schema.template))
    avars = sorted(meta_agents_of(schema.template))
    free = set(free)
    distinct = [i for i, a in enumerate(avars) if a not in free]
    pool = list(dict.fromkeys(agents))
    phis = list(formulas)
    if len(pool) < len(distinct):
        raise FormulaError("schema %r needs %d distinct agents, got %d"
                           % (schema.name, len(distinct), len(pool)))
    seen = set()
    for combo in itertools.product(pool, repeat=len(avars)):
        if len({combo[i] for i in distinct}) < len(distinct):
            continue
        amap = dict(zip(avars, combo))
        for fs in itertools.product(phis, repeat=len(fvars)):
            inst = substitute(schema.template, dict(zip(fvars, fs)), amap)
            if inst not in seen:
                seen.add(inst)
                yield inst
