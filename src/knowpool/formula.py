"""Formula syntax: AST nodes, parser, printer, and macro expansion.

Concrete syntax: binary connectives, then prefix operators, each applying
to the prefix formula that follows, then atomic formulas and parenthesized
formulas.  Two tables say how every operator is written, and the parser and
printer both read them: `_BINARY` lists the connectives from loosest to
tightest, and `_HEADS` the head of every other operator.  The parser reads
the connectives by precedence climbing (Pratt, "Top down operator
precedence", 1973): one loop per operand takes each connective at least as
tight as its caller allows, so a word costs one table lookup however many
levels `_BINARY` has, and each head is read by a program of steps that
carry their field's index.

Atoms and agent names are lowercase identifiers other than the keywords
`true` and `false` (`_is_name`, which models check too).  Uppercase
identifiers that are not operator keywords act as schema variables:
placeholder formulas in formula position, placeholder agents in agent
position.  `expand` rewrites the defined operators (E, Rk, P, Ob, Perm)
into the kernel language through one table (`_DEFINED`).
The passes over the tree read the role of each node field from one table
(`_ROLES`), mostly through `rebuild`; the node constructors check every
subformula and agent slot that table names, and the evaluator looks up
the same agent slots.  Each node class holds its fields' roles and
defaults in `_layout`, read off the table when the class is defined, so a
field with no role fails there.
`instantiate` fills agent placeholders with pairwise distinct agents,
except the placeholders it is told are free.

Nodes are hash-consed (Filliâtre and Conchon, "Type-safe modular
hash-consing", 2006): the constructor binds its arguments to the node's
fields and returns the equal node from a weak table of live nodes if there
is one, so only a new node is built and validated.  A new node enters the
table through a weak reference that holds its key (`_Ref`), which removes
the entry when the node dies; the table is asked a second time only when
validation may have changed a field (an agent tuple given as another
iterable) or the arguments did not hash.  Equal formulas are one
object, equality and hashing go by identity, and a formula is a DAG whose
shared subformulas (the body of an expanded `E`) are stored and walked
once.  The node classes are dataclasses for `fields` and `replace` only:
the constructor is written once, on `Formula`, so importing the module
compiles no per-class methods.  A class is set up by subclassing, with no
decorator: `Formula.__init_subclass__` and `Record.__init_subclass__` make
each subclass a fields-only dataclass.  A call that does not give every
field in order is bound by Python itself, through a signature compiled for
its class on first use (`_binder`).

The package's frozen records (`Record`: a schema, a pointed model, a plan,
a check result, the lab's reports and configurations) are built the same
way, with equality and hash by field values; `repr` and immutability are
written once for nodes and records alike (`_Frozen`).
"""

from __future__ import annotations

import functools
import itertools
import re
import weakref
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
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


def _is_name(name: object, meta: bool = False) -> bool:
    """A lowercase identifier, or with `meta` an uppercase one, that is no
    operator keyword (`_KEYWORDS`, read off the syntax table below)."""
    return isinstance(name, str) and name not in _KEYWORDS \
        and (_META_RE if meta else _NAME_RE).match(name) is not None


def _check_agent(name: object) -> None:
    if not (_is_name(name) or _is_name(name, meta=True)):
        raise FormulaError("bad agent name %r" % (name,))


# Every live node, keyed by (class, field values): a weak-value table, so a
# node lives only while something else holds it.  Children are interned
# before their parent, so a key's fields compare and hash by identity.
_TABLE = {}


class _Ref(weakref.ref):
    """A weak reference to a node that holds the node's table key, set
    once the reference is built: `weakref.KeyedRef` without its
    Python-level `__new__` and `__init__`."""

    __slots__ = ("key",)


def _forget(ref: _Ref) -> None:
    if _TABLE.get(ref.key) is ref:
        del _TABLE[ref.key]


class _Interned(type):
    """Hash-consing constructor, the one way a node is built: the arguments
    are bound to the fields by the class's `_binder` (nothing to bind when
    every field is given in order, as `rebuild`, copies and the parser
    call), and the live node with those fields is returned if there is
    one.  Otherwise a new node is built and validated.  Validation changes
    a field only to turn an agent group given as another iterable into a
    tuple, so the table is asked again, for a live node the new one
    equals, only for a class with an agent tuple or after an argument
    that did not hash."""

    def __call__(cls, *args, **kwargs):
        names = cls.__match_args__  # the fields in order, set by dataclass
        if kwargs or len(args) != len(names):
            args = _binder(cls)(None, *args, **kwargs)
        key = (cls, *args)
        try:
            ref = _TABLE.get(key)
        except TypeError:  # an unhashable argument: let validation judge it
            ref = key = None
        if ref is not None:
            live = ref()
            if live is not None:
                return live
        node = object.__new__(cls)
        node.__dict__.update(zip(names, args))
        node.__post_init__()
        if key is None or cls._groups:
            # validation keeps the fields in order, agent tuples normalised
            key = (cls, *node.__dict__.values())
            try:
                ref = _TABLE.get(key)
            except TypeError:  # an unhashable field; validation names most
                raise FormulaError("unhashable field in %s%r"
                                   % (cls.__name__, key[1:])) from None
            if ref is not None:
                live = ref()
                if live is not None:
                    return live
        ref = _TABLE[key] = _Ref(node, _forget)
        ref.key = key
        return node


@functools.cache
def _binder(cls: type) -> Callable:
    """`__init__(self, *fields)` of a node or record class, with the
    fields' defaults, returning the field values in order: Python binds a
    call's keywords and defaults and raises its own `TypeError` for a call
    that does not fit.  Compiled on the first call that needs binding."""
    names = ", ".join(cls.__match_args__)
    scope = {}
    exec("def __init__(self, %s): return [%s]" % (names, names), scope)
    init = scope["__init__"]
    init.__defaults__ = tuple(fld.default for fld in fields(cls)
                              if fld.default is not MISSING)
    init.__qualname__ = "%s.__init__" % cls.__qualname__
    return init


class _Frozen:
    """What nodes and records share: the dataclass `repr`, immutability,
    and copies and pickles rebuilt through the class's constructor."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % pair for pair in zip(self.__match_args__,
                                           self._values())))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError("cannot delete field %r" % name)


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

# Node and record classes are dataclasses for `fields` and `replace` only,
# with no generated methods: `Formula` builds every node and `Record` every
# record, and `_Frozen` prints and freezes both.  A node's equality and
# hash stay identity.
_fields_only = dataclass(init=False, repr=False, eq=False)


class Formula(_Frozen, metaclass=_Interned):
    """Base class for formula nodes.  Nodes are immutable and interned:
    equal nodes are the same object, so equality and hashing go by
    identity.  Each node caches its kernel expansion (`expand`)."""

    __slots__ = ()
    # the kernel expansion once computed; _KERNEL on a kernel node
    _kernel = None

    def __init_subclass__(cls, **kwargs):
        # (field name, role, default) of each field, in field order, read
        # off the role table once: a field with no role fails here
        super().__init_subclass__(**kwargs)
        _fields_only(cls)
        layout = []
        for fld in fields(cls):
            if fld.name not in _ROLES:
                raise FormulaError("field %s.%s has no role"
                                   % (cls.__name__, fld.name))
            layout.append((fld.name, _ROLES[fld.name], fld.default))
        cls._layout = tuple(layout)
        cls._groups = any(role is _AGENTS for _, role, _ in layout)

    def __post_init__(self):
        # every subformula and agent slot the role table names, in field
        # order; an agent tuple may be given as any iterable but a string,
        # and may be empty only if its field has a default (K's deps)
        attrs = self.__dict__
        for name, role, default in self._layout:
            value = attrs[name]
            if role is _SUB:
                if not isinstance(value, Formula):
                    raise FormulaError("bad subformula %r" % (value,))
            elif role is _AGENT:
                _check_agent(value)
            elif role is _AGENTS:
                if type(value) is not tuple:
                    # a string is not split into one agent per letter
                    if isinstance(value, str) \
                            or not hasattr(value, "__iter__"):
                        raise FormulaError("agent group must be an iterable"
                                           " of names, not %r" % (value,))
                    value = attrs[name] = tuple(value)
                if not value and default is MISSING:
                    raise FormulaError("agent group must be non-empty")
                for a in value:
                    _check_agent(a)
                if len(set(value)) != len(value):
                    raise FormulaError(_DUPLICATE[name] % (value,))

    def __str__(self) -> str:
        return print_formula(self)


# the records' binders, cached apart from the nodes' (records with defaults
# or keyword calls are built at import; nodes bind nothing there)
_record_binder = functools.cache(_binder.__wrapped__)


class Record(_Frozen):
    """Base class for the frozen records (a schema, a pointed model, a
    plan, a check result, the lab's reports and configurations): the one
    constructor, and equality and hash by field values between records of
    one class.  A call that gives every field in order binds nothing;
    any other call is bound by `_record_binder`.  A subclass may validate
    its fields in `__post_init__`, as a dataclass does."""

    __slots__ = ()
    __post_init__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _fields_only(cls)

    def __init__(self, *args, **kwargs):
        names = self.__match_args__  # the fields in order, set by dataclass
        if kwargs or len(args) != len(names):
            args = _record_binder(type(self))(None, *args, **kwargs)
        # into `__dict__` by index: `update(zip(...))` built a 2-field
        # record about 1.5 times slower, and a store per field through
        # `object.__setattr__`, which keeps later reads on the faster
        # inline-value path, about 1.3 times; a record is read only a few
        # times after it is built
        attrs, i = self.__dict__, 0
        for name in names:
            attrs[name] = args[i]
            i += 1
        check = self.__post_init__
        if check is not None:
            check()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))


class Atom(Formula):
    """Propositional atom."""

    name: str

    def __post_init__(self):
        if not _is_name(self.name):
            raise FormulaError("bad atom name %r" % (self.name,))


class Top(Formula):
    """The constant true."""


class Bot(Formula):
    """The constant false."""


class IdealAtom(Formula):
    """Holds at states that belong to some ideal pair."""


class OkAtom(Formula):
    """Holds where the agent's cell meets the ideal partners of the state."""

    agent: str


class MetaFormula(Formula):
    """Schema variable standing for an arbitrary formula."""

    name: str

    def __post_init__(self):
        if not _is_name(self.name, meta=True):
            raise FormulaError("bad schema variable %r" % (self.name,))


class Not(Formula):
    """Negation."""

    body: Formula


class And(Formula):
    """Conjunction."""

    left: Formula
    right: Formula


class Or(Formula):
    """Disjunction."""

    left: Formula
    right: Formula


class Imp(Formula):
    """Implication."""

    left: Formula
    right: Formula


class Iff(Formula):
    """Biconditional."""

    left: Formula
    right: Formula


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


class D(Formula):
    """Distributed knowledge of a group."""

    group: tuple
    body: Formula


class Share(Formula):
    """Body holds after the sender shares with the receiver."""

    sender: str
    receiver: str
    body: Formula


class ResolveInfo(Formula):
    """Body holds after the group pools raw information (cell intersection)."""

    group: tuple
    body: Formula


class Everybody(Formula):
    """Defined: conjunction of individual knowledge over the group."""

    group: tuple
    body: Formula


class Resolution(Formula):
    """Defined: round-trip share chain through the group, in listed order."""

    group: tuple
    body: Formula


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


class Permitted(Formula):
    """Defined: the agent knows the body and is in an allowed position."""

    agent: str
    body: Formula


class Obliged(Formula):
    """Defined: not permitted to have the body false."""

    agent: str
    body: Formula


class PermittedShare(Formula):
    """Defined: after sender shares with receiver, the receiver is allowed."""

    sender: str
    receiver: str


def rebuild(f: Formula, sub: Callable[[Formula], Formula],
            agent: Callable[[str], str] | None = None) -> Formula:
    """Apply `sub` to each direct subformula and `agent`, if given, to each
    agent name; return `f` itself when nothing changes."""
    args = []
    changed = False
    for name, role, _ in f._layout:
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


def rewrite(f: Formula, leaf: Callable[[Formula], Formula | None],
            agent: Callable[[str], str] | None = None) -> Formula:
    """`f` with each node that `leaf` maps to a formula replaced by it and
    every other node rebuilt (`rebuild`).  Each distinct node of the DAG is
    rewritten once, through a plain dict, so the rewrite makes no cycle."""
    return _rewrite(f, leaf, agent, {})


def _rewrite(f: Formula, leaf: Callable, agent, memo: dict) -> Formula:
    g = memo.get(f)
    if g is None:
        g = leaf(f)
        if g is None:
            g = rebuild(f, lambda h: _rewrite(h, leaf, agent, memo), agent)
        memo[f] = g
    return g


def _children(f: Formula) -> list:
    return [getattr(f, name) for name, role, _ in f._layout if role is _SUB]


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


# The words of the concrete syntax: the two arrows, ASCII identifiers, and
# every other single character but the skipped space, tab, carriage return
# and newline.  A scan keeps only the words; `_position` scans again for the
# line and column of a word when an error reports it.
_WORD_RE = re.compile(r"<->|->|[a-zA-Z][a-zA-Z0-9_]*|[^ \t\r\n]")

# the arrow and punctuation words; any other word is an identifier or an
# error, and the empty word ends the input
_SYMBOLS = frozenset(["<->", "->", "(", ")", "{", "}", "[", "]", ",", ";",
                      "&", "|", "~", ">"])


def _position(text: str, k: int) -> tuple:
    """(line, column) of the k-th word of `text`, or of its end if `text`
    has only k words."""
    word = next(itertools.islice(_WORD_RE.finditer(text), k, None), None)
    at = len(text) if word is None else word.start()
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


# ---------------------------------------------------------------------------
# concrete syntax: the one place that says how each operator is written

# binary connectives, loosest first: (word, node class, right associative)
_BINARY = (("<->", Iff, False), ("->", Imp, True), ("|", Or, False),
           ("&", And, False))

# Every other operator's head, with each agent field written as its field
# name.  A node with a body is a prefix operator whose body follows the
# head.  An agent tuple with a default (K's deps) may be left out together
# with the separator before it.  Only the two `Rk` heads share a keyword;
# the parser tells them apart by the leader form's `;` (`_Parser.node`).
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
    """The head as (word, field role, field index) steps.  An agent field's
    word is its field name; a literal word has no role and no index."""
    slots = {name: (role, at)
             for at, (name, role, _) in enumerate(cls._layout)}
    defaults = {name for name, _, default in cls._layout
                if default is not MISSING}
    words = _WORD_RE.findall(head)
    steps = []
    for word, after in zip(words, words[1:] + [""]):
        role, at = slots.get(word, (None, None))
        if role is None and after in defaults:
            role = _OPTIONAL
        steps.append((word, role, at))
    return tuple(steps)


# node class -> (head program, position of the body field or None, the
# fields' defaults in order, which a parsed node starts from)
_SYNTAX = {cls: (_program(cls, head), cls.__match_args__.index("body")
                 if "body" in cls.__match_args__ else None,
                 tuple(default for _, _, default in cls._layout))
           for cls, head in _HEADS}
# a head's first word -> the node classes whose head it starts
_STARTS = {}
for _cls, (_steps, _, _) in _SYNTAX.items():
    _STARTS.setdefault(_steps[0][0], []).append(_cls)
_KEYWORDS = frozenset(word for word in _STARTS if word[0].isalpha())
# binding strength: a binary node's position in _BINARY from 1, then heads
_LEVEL = {cls: level for level, (_, cls, _) in enumerate(_BINARY, 1)}
_PREFIX = len(_BINARY) + 1
# a connective's word -> (its position in _BINARY, node class, right
# associative), for the parser's precedence climbing
_INFIX = {word: (level, cls, right)
          for level, (word, cls, right) in enumerate(_BINARY)}


# ---------------------------------------------------------------------------
# parser


# Deepest formula `parse` accepts, in nodes from root to leaf (an atom alone
# has depth 1; parentheses count while parsing), so that the parser, printer,
# `expand` and, for small groups, the evaluator stay inside the default
# recursion limit.  Expansion deepens `E` and `Rk` by the size of the group.
MAX_DEPTH = 64


_TOO_DEEP = "formula nests deeper than %d levels" % MAX_DEPTH


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.words = words = _WORD_RE.findall(text)
        # a word that is neither a symbol nor an identifier is an error
        # before parsing starts: identifiers are ASCII and start with a letter
        bad = [w for w in set(words).difference(_SYMBOLS)
               if not (w.isascii() and w[0].isalpha())]
        if bad:
            k = min(map(words.index, bad))
            raise self.error(("stray %r" if words[k] in "-<"
                              else "unexpected character %r") % words[k], k)
        words.append("")
        self.pos = 0
        self.depth = 0

    def error(self, message: str, k: int) -> ParseError:
        """The error at the k-th word."""
        return ParseError(message, *_position(self.text, k))

    def run(self) -> Formula:
        f = self.binary(0)
        self.expect("", "end of input")
        # every node takes at least one word, so short input is shallow
        if len(self.words) > MAX_DEPTH and _nests_deeper(f, MAX_DEPTH):
            raise self.error(_TOO_DEEP, 0)
        return f

    def enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.error(_TOO_DEEP, self.pos)

    def expect(self, word: str, what: str) -> None:
        found = self.words[self.pos]
        if found != word:
            raise self.error("expected %s, found %r"
                             % (what, found or "end of input"), self.pos)
        self.pos += 1

    def binary(self, level: int) -> Formula:
        """Parse the connectives of `_BINARY[level:]` by precedence
        climbing: one loop takes each connective at least as tight as
        `level`, reading its right operand with the tighter ones only, or,
        for a right-associative connective, with its own too."""
        f = self.unary()
        while True:
            infix = _INFIX.get(self.words[self.pos])
            if infix is None or infix[0] < level:
                return f
            self.pos += 1
            at, cls, right = infix
            if right:
                self.enter()
                f = cls(f, self.binary(at))
                self.depth -= 1
            else:
                f = cls(f, self.binary(at + 1))

    def unary(self) -> Formula:
        self.enter()
        heads = _STARTS.get(self.words[self.pos])
        f = self.primary() if heads is None else self.node(heads)
        self.depth -= 1
        return f

    def node(self, heads: list) -> Formula:
        # picked before reading: only the leader `Rk` form has `;` at word 3
        cls = heads[-1] if self.words[self.pos + 3:self.pos + 4] == [";"] \
            else heads[0]
        program, body, defaults = _SYNTAX[cls]
        values = self.head(program, [*defaults])
        if body is not None:
            values[body] = self.unary()
        # every field in order: the constructor has nothing to bind
        return cls(*values)

    def head(self, program: tuple, values: list) -> list:
        """Read a head into `values`, the node's fields in order at their
        defaults, and return it; the body is left for the caller."""
        steps = iter(program)
        for word, role, at in steps:
            if role is _AGENT:
                values[at] = self.agent()
            elif role is _AGENTS:
                values[at] = self.agent_list()
            elif self.words[self.pos] == word:
                self.pos += 1
            elif role is _OPTIONAL:
                next(steps)  # the field keeps its default
            else:
                self.expect(word, "'%s'" % word)  # raises
        return values

    def primary(self) -> Formula:
        word = self.words[self.pos]
        if word == "(":
            self.pos += 1
            f = self.binary(0)
            self.expect(")", "')'")
            return f
        if word and word not in _SYMBOLS:
            self.pos += 1
            if word[0].islower():
                return Atom(word)
            return MetaFormula(word)
        raise self.error("expected a formula, found %r"
                         % (word or "end of input"), self.pos)

    def agent_list(self) -> tuple:
        names = [self.agent()]
        while self.words[self.pos] == ",":
            self.pos += 1
            names.append(self.agent())
        return tuple(names)

    def agent(self) -> str:
        word = self.words[self.pos]
        if not word or word in _SYMBOLS:
            raise self.error("expected an agent name, found %r"
                             % (word or "end of input"), self.pos)
        if word in _KEYWORDS:
            raise self.error("%r cannot be used as an agent name" % word,
                             self.pos)
        self.pos += 1
        return word


def parse(text: str) -> Formula:
    """Parse concrete syntax into a formula."""
    if not isinstance(text, str):
        raise FormulaError("formula text must be a string, got %r" % (text,))
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
        word, _, right = _BINARY[level - 1]
        inner = (level + 1, level) if right else (level, level + 1)
        s = "%s %s %s" % (_show(f.left, inner[0]), word,
                          _show(f.right, inner[1]))
    elif cls is Atom or cls is MetaFormula:
        return f.name
    elif cls in _SYNTAX:
        program, body, _ = _SYNTAX[cls]
        parts = []
        for word, role, _ in program:
            if role is _AGENT:
                parts.append(getattr(f, word))
            elif role is _AGENTS:
                names = getattr(f, word)
                if names:
                    parts.append(",".join(names))
                else:
                    parts.pop()  # an empty tuple drops its separator
            else:
                parts.append(word)
        s = "".join(parts)
        if body is None:
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


def _share_chain(body: Formula, *groups: tuple) -> Formula:
    """The forward share chain through each group in turn (each member
    shares with the next), then the body."""
    pairs = [pair for group in groups for pair in zip(group, group[1:])]
    for sender, receiver in reversed(pairs):
        body = Share(sender, receiver, body)
    return body


def _everybody(f: Everybody) -> Formula:
    body = expand(f.body)
    return functools.reduce(And, [K(a, body) for a in f.group])


# One kernel builder per defined operator; every other node keeps its type
# and expands its subformulas.  A round trip chains through the group and
# back.
_DEFINED = {
    Everybody: _everybody,
    Resolution: lambda f: _share_chain(expand(f.body), f.group,
                                       f.group[::-1]),
    LeaderResolution: lambda f: _share_chain(expand(f.body), f.group),
    Permitted: lambda f: And(K(f.agent, expand(f.body)), OkAtom(f.agent)),
    Obliged: lambda f:
        Not(And(K(f.agent, Not(expand(f.body))), OkAtom(f.agent))),
    PermittedShare: lambda f: Share(f.sender, f.receiver,
                                    OkAtom(f.receiver)),
}


# the expansion cached on a kernel node: the node itself, but a reference
# to itself would keep it out of reach of reference counting
_KERNEL = object()


def expand(f: Formula) -> Formula:
    """Rewrite defined operators into the kernel language.  Idempotent.

    The result is cached on the node, so each distinct node is expanded
    once while it lives."""
    try:
        g = f._kernel
    except AttributeError:
        raise FormulaError("not a formula: %r" % (f,)) from None
    if g is _KERNEL:
        return f
    if g is None:
        build = _DEFINED.get(type(f))
        g = rebuild(f, expand) if build is None else build(f)
        object.__setattr__(f, "_kernel", _KERNEL if g is f else g)
        if g._kernel is None:
            object.__setattr__(g, "_kernel", _KERNEL)
    return g


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

    def leaf(g: Formula) -> Formula | None:
        if isinstance(g, MetaFormula) and g.name not in fmap:
            raise FormulaError("unbound formula variable %r" % g.name)
        return fmap[g.name] if isinstance(g, MetaFormula) else None

    out = rewrite(f, leaf, sub_agent)
    if not isinstance(out, Formula):  # the placeholder was the whole formula
        raise FormulaError("bad subformula %r" % (out,))
    return out


class Schema(Record):
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
