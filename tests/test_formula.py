"""Parser, printer, expansion, and schema instantiation."""

import copy
import dataclasses
import gc
import hashlib
import itertools
import os
import pickle
import random
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from knowpool import formula
from knowpool.formula import (MAX_DEPTH, And, Atom, Bot, D, Everybody,
                              Formula, FormulaError, IdealAtom, Iff, Imp, K,
                              LeaderResolution, MetaFormula, Not, Obliged,
                              OkAtom, Or, ParseError, Permitted,
                              PermittedShare, Resolution, ResolveInfo,
                              Schema, Share, Top,
                              agents_of, atoms_of, expand, instantiate,
                              meta_agents_of, meta_formulas_of, parse,
                              print_formula, rebuild, substitute)
from knowpool.kripke import Model
from knowpool.lab import SCHEMAS, _pool_for
from knowpool.presets import service_desk_deontic
from knowpool.semantics import EvalContext, extension


class TestParse:
    def test_atoms_and_constants(self):
        assert parse("p") == Atom("p")
        assert parse("true") == Top()
        assert parse("false") == Bot()
        assert parse("O") == IdealAtom()
        assert parse("Ok{a}") == OkAtom("a")

    def test_precedence(self):
        assert parse("p & q | r") == Or(And(Atom("p"), Atom("q")), Atom("r"))
        assert parse("p | q -> r") == Imp(Or(Atom("p"), Atom("q")), Atom("r"))
        assert parse("~p & q") == And(Not(Atom("p")), Atom("q"))

    def test_implication_right_associative(self):
        assert parse("p -> q -> r") == Imp(Atom("p"),
                                           Imp(Atom("q"), Atom("r")))

    def test_iff_binds_loosest(self):
        assert parse("p -> q <-> r") == Iff(Imp(Atom("p"), Atom("q")),
                                            Atom("r"))

    def test_modalities(self):
        assert parse("K{a}p") == K("a", Atom("p"))
        assert parse("K{a|b}p") == K("a", Atom("p"), ("b",))
        assert parse("K{c|a,b}p") == K("c", Atom("p"), ("a", "b"))
        assert parse("D{a,b}p") == D(("a", "b"), Atom("p"))
        assert parse("E{a,b}p") == Everybody(("a", "b"), Atom("p"))
        assert parse("Ri{a,b}p") == ResolveInfo(("a", "b"), Atom("p"))
        assert parse("Rk{a,b}p") == Resolution(("a", "b"), Atom("p"))
        assert parse("Rk{a;a,b}p") == LeaderResolution(
            "a", ("a", "b"), Atom("p"))
        assert parse("[a>b]p") == Share("a", "b", Atom("p"))
        assert parse("P{a}p") == Permitted("a", Atom("p"))
        assert parse("Perm(a>b)") == PermittedShare("a", "b")

    def test_meta_variables(self):
        f = parse("K{A}PHI -> PHI")
        assert meta_agents_of(f) == {"A"}
        assert meta_formulas_of(f) == {"PHI"}

    def test_rejects_garbage(self):
        for text in ["", "p &", "K{a", "[a>]p", "K{}p", "p q",
                     "Rk{b;a,b}p", "D{a,a}p", "K{a|a}p", "(p"]:
            with pytest.raises(FormulaError):
                parse(text)

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("p &")
        assert err.value.line == 1


# (text, message, line, column) of malformed input, recorded before the
# parser read the syntax table; line is None for errors raised while
# building a node, which carry no position
PARSE_ERRORS = (
    ("Rk{a,b;c}p", "expected '}', found ';'", 1, 7),
    ("Rk{a;}p", "expected an agent name, found '}'", 1, 6),
    ("Rk{;a}p", "expected an agent name, found ';'", 1, 4),
    ("Rk{a;b", "expected '}', found 'end of input'", 1, 7),
    ("Rk{}p", "expected an agent name, found '}'", 1, 4),
    ("Rk{a,}p", "expected an agent name, found '}'", 1, 6),
    ("Rk{a;a,b}", "expected a formula, found 'end of input'", 1, 10),
    ("Rk{b;a,b}p", "leader 'b' must head the group ('a', 'b')", None, None),
    ("Rk{a,a}p", "duplicate agent in group ('a', 'a')", None, None),
    ("Rk p", "expected '{', found 'p'", 1, 4),
    ("Rk", "expected '{', found 'end of input'", 1, 3),
    ("Rk{a b}p", "expected '}', found 'b'", 1, 6),
    ("Rk{a;a;b}p", "expected '}', found ';'", 1, 7),
    ("Rk{a|b}p", "expected '}', found '|'", 1, 5),
    ("Rk{a", "expected '}', found 'end of input'", 1, 5),
    ("Rk{true}p", "'true' cannot be used as an agent name", 1, 4),
    ("Rk{a;Rk}p", "'Rk' cannot be used as an agent name", 1, 6),
    ("K{a|b;c}p", "expected '}', found ';'", 1, 6),
    ("K{a|}p", "expected an agent name, found '}'", 1, 5),
    ("K{|b}p", "expected an agent name, found '|'", 1, 3),
    ("K{a|a}p", "agent 'a' cannot be its own dependency", None, None),
    ("K{}p", "expected an agent name, found '}'", 1, 3),
    ("K{a", "expected '}', found 'end of input'", 1, 4),
    ("K{a|b,b}p", "duplicate dependency in ('b', 'b')", None, None),
    ("K{a,b}p", "expected '}', found ','", 1, 4),
    ("K", "expected '{', found 'end of input'", 1, 2),
    ("K{a}", "expected a formula, found 'end of input'", 1, 5),
    ("K{true}p", "'true' cannot be used as an agent name", 1, 3),
    ("K{a|false}p", "'false' cannot be used as an agent name", 1, 5),
    ("K{K}p", "'K' cannot be used as an agent name", 1, 3),
    ("K{a|Rk}p", "'Rk' cannot be used as an agent name", 1, 5),
    ("K{a|b}", "expected a formula, found 'end of input'", 1, 7),
    ("Perm(a)", "expected '>', found ')'", 1, 7),
    ("Perm(a>)", "expected an agent name, found ')'", 1, 8),
    ("Perm(>b)", "expected an agent name, found '>'", 1, 6),
    ("Perm{a>b}", "expected '(', found '{'", 1, 5),
    ("Perm(a>b", "expected ')', found 'end of input'", 1, 9),
    ("Perm", "expected '(', found 'end of input'", 1, 5),
    ("Perm(a>b)p", "expected end of input, found 'p'", 1, 10),
    ("Perm(true>b)", "'true' cannot be used as an agent name", 1, 6),
    ("Perm(a>Ok)", "'Ok' cannot be used as an agent name", 1, 8),
    ("O{a}", "expected end of input, found '{'", 1, 2),
    ("Ok", "expected '{', found 'end of input'", 1, 3),
    ("Ok{}", "expected an agent name, found '}'", 1, 4),
    ("Ok{a", "expected '}', found 'end of input'", 1, 5),
    ("Ok{a,b}", "expected '}', found ','", 1, 5),
    ("Ok(a)", "expected '{', found '('", 1, 3),
    ("Ok{Ok}", "'Ok' cannot be used as an agent name", 1, 4),
    ("Ok{false}", "'false' cannot be used as an agent name", 1, 4),
    ("P{a,b}p", "expected '}', found ','", 1, 4),
    ("Ob{}p", "expected an agent name, found '}'", 1, 4),
    ("P p", "expected '{', found 'p'", 1, 3),
    ("Ob{a}", "expected a formula, found 'end of input'", 1, 6),
    ("P{false}p", "'false' cannot be used as an agent name", 1, 3),
    ("Ob{E}p", "'E' cannot be used as an agent name", 1, 4),
    ("[a>]p", "expected an agent name, found ']'", 1, 4),
    ("[a]p", "expected '>', found ']'", 1, 3),
    ("[a>b", "expected ']', found 'end of input'", 1, 5),
    ("[a>b]", "expected a formula, found 'end of input'", 1, 6),
    ("[>b]p", "expected an agent name, found '>'", 1, 2),
    ("[a>b)p", "expected ']', found ')'", 1, 5),
    ("[true>b]p", "'true' cannot be used as an agent name", 1, 2),
    ("D{}p", "expected an agent name, found '}'", 1, 3),
    ("D{a,a}p", "duplicate agent in group ('a', 'a')", None, None),
    ("E{a b}p", "expected '}', found 'b'", 1, 5),
    ("Ri{a,}p", "expected an agent name, found '}'", 1, 6),
    ("D p", "expected '{', found 'p'", 1, 3),
    ("E{a}", "expected a formula, found 'end of input'", 1, 5),
    ("Ri", "expected '{', found 'end of input'", 1, 3),
    ("D{O}p", "'O' cannot be used as an agent name", 1, 3),
    ("", "expected a formula, found 'end of input'", 1, 1),
    ("p &", "expected a formula, found 'end of input'", 1, 4),
    ("p q", "expected end of input, found 'q'", 1, 3),
    ("(p", "expected ')', found 'end of input'", 1, 3),
    ("p)", "expected end of input, found ')'", 1, 2),
    ("~", "expected a formula, found 'end of input'", 1, 2),
    ("p -> ", "expected a formula, found 'end of input'", 1, 6),
    ("p <-> ", "expected a formula, found 'end of input'", 1, 7),
    ("p - q", "stray '-'", 1, 3),
    ("p < q", "stray '<'", 1, 3),
    ("p # q", "unexpected character '#'", 1, 3),
    ("true{a}p", "expected end of input, found '{'", 1, 5),
    ("p &\n  & q", "expected a formula, found '&'", 2, 3),
    ("p |\n\n  K{a", "expected '}', found 'end of input'", 3, 6),
    ("O p", "expected end of input, found 'p'", 1, 3),
    ("p & -> q", "expected a formula, found '->'", 1, 5),
    # names are ASCII identifiers
    ("K{é}p", "unexpected character 'é'", 1, 3),
    ("é", "unexpected character 'é'", 1, 1),
    ("p²", "unexpected character '²'", 1, 2),
    ("x١", "unexpected character '١'", 1, 2),
    ("[a>bß]p", "unexpected character 'ß'", 1, 5),
    # the scanner skips only space, tab, carriage return and newline; any
    # other character, even other whitespace, is an error at its position
    ("p \x0b q", "unexpected character '\\x0b'", 1, 3),
    ("p \x0c q", "unexpected character '\\x0c'", 1, 3),
    ("p \xa0 q", "unexpected character '\\xa0'", 1, 3),
    ("p \u2028 q", "unexpected character '\\u2028'", 1, 3),
    ("_p", "unexpected character '_'", 1, 1),
    ("1p", "unexpected character '1'", 1, 1),
    ("p &\n \x0b q", "unexpected character '\\x0b'", 2, 2),
    ("p &\n \x0c q", "unexpected character '\\x0c'", 2, 2),
    ("p &\n \xa0 q", "unexpected character '\\xa0'", 2, 2),
    ("p &\n \u2028 q", "unexpected character '\\u2028'", 2, 2),
    ("p &\n _p", "unexpected character '_'", 2, 2),
    ("p &\n 1p", "unexpected character '1'", 2, 2),
    ("p &\n - q", "stray '-'", 2, 2),
    ("p &\n < q", "stray '<'", 2, 2),
    # a tab and a carriage return are one column each; the end of input
    # after a trailing newline starts the next line
    ("p\t&\t#", "unexpected character '#'", 1, 5),
    ("p &\r\n  & q", "expected a formula, found '&'", 2, 3),
    ("p &\n", "expected a formula, found 'end of input'", 2, 1),
    # the depth bound, met while descending (at the first word past it)
    # and by a finished tree of left-nested connectives (at its first word)
    ("\n" + "~" * (MAX_DEPTH + 1) + "p",
     "formula nests deeper than %d levels" % MAX_DEPTH, 2, MAX_DEPTH + 1),
    ("\n  " + " & ".join(["p"] * (MAX_DEPTH + 1)),
     "formula nests deeper than %d levels" % MAX_DEPTH, 2, 3),
    # `Rk{group}` fails at ';', and `Rk{leader;group}` gets further
    ("Rk{a;\n b,}p", "expected an agent name, found '}'", 2, 4),
)


@pytest.mark.parametrize("text, message, line, col", PARSE_ERRORS)
def test_parse_error_text_and_position(text, message, line, col):
    with pytest.raises(FormulaError) as err:
        parse(text)
    if line is None:
        assert type(err.value) is FormulaError
        assert str(err.value) == message
    else:
        assert type(err.value) is ParseError
        assert str(err.value) == "%s (line %d, column %d)" % (message, line,
                                                              col)
        assert (err.value.line, err.value.col) == (line, col)


class TestPrint:
    def test_round_trip_fixed(self):
        texts = [
            "p", "~p", "p & q & r", "p | q -> r", "p <-> q",
            "K{a}(p -> q)", "K{c|a,b}p", "D{a,b,c}r", "E{a,b}(p & q)",
            "Ri{a,b}E{a,b}p", "Rk{a,b,c}q", "Rk{b;b,a,c}p",
            "[a>b][b>c]K{c}p", "P{a}(p | q)", "Ob{b}p", "Perm(a>c)",
            "O", "Ok{c}", "true", "false", "~(p & q)",
        ]
        for text in texts:
            f = parse(text)
            assert parse(print_formula(f)) == f

    def test_printer_minimises_parens(self):
        assert print_formula(parse("(p & q) | r")) == "p & q | r"
        assert print_formula(parse("p -> (q -> r)")) == "p -> q -> r"


PRINTED = Path(__file__).with_name("printed_formulas.txt")


def _printed() -> str:
    # each lab template, its expansion, and every fifth of its first forty
    # instances with theirs, instantiated on the deontic service desk; the
    # file was written before the printer read the syntax table
    m = service_desk_deontic()
    lines = []
    for name, spec in SCHEMAS.items():
        if spec.template is None:
            continue
        template = parse(spec.template)
        pool = _pool_for(spec, m, len(meta_formulas_of(template)))
        insts = instantiate(Schema(name, template), pool, m.agents)
        for f in itertools.chain([template],
                                 itertools.islice(insts, 0, 40, 5)):
            lines += ["%s %s" % (name, print_formula(g))
                      for g in (f, expand(f))]
    return "\n".join(lines) + "\n"


def test_printed_formulas_are_pinned():
    assert _printed().encode() == PRINTED.read_bytes()


class TestExpand:
    def test_everybody_is_conjunction_in_order(self):
        assert expand(parse("E{b,a}p")) == And(K("b", Atom("p")),
                                               K("a", Atom("p")))

    def test_round_trip_chain(self):
        f = expand(parse("Rk{a,b,c}p"))
        expected = parse("[a>b][b>c][c>b][b>a]p")
        assert f == expected

    def test_leader_chain_is_forward_only(self):
        assert expand(parse("Rk{a;a,b,c}p")) == parse("[a>b][b>c]p")

    def test_pair_round_trip(self):
        assert expand(parse("Rk{a,b}p")) == parse("[a>b][b>a]p")

    def test_permission_kernels(self):
        assert expand(parse("P{a}p")) == And(K("a", Atom("p")), OkAtom("a"))
        assert expand(parse("Ob{a}p")) == Not(And(K("a", Not(Atom("p"))),
                                                  OkAtom("a")))
        assert expand(parse("Perm(a>b)")) == Share("a", "b", OkAtom("b"))

    def test_idempotent(self):
        for text in ["Rk{a,b,c}E{a,b,c}p", "P{a}(p & q)", "Ob{c}r"]:
            once = expand(parse(text))
            assert expand(once) == once


class TestQueries:
    def test_atoms_and_agents(self):
        f = parse("[a>b]K{c|a}p & D{a,b}q")
        assert atoms_of(f) == {"p", "q"}
        assert agents_of(f) == {"a", "b", "c"}


class TestDepthBound:
    # (at the bound, one level past it) for each way of nesting
    SHAPES = {
        "negation": ("~" * (MAX_DEPTH - 1) + "p", "~" * MAX_DEPTH + "p"),
        "parentheses": ("(" * (MAX_DEPTH - 1) + "p" + ")" * (MAX_DEPTH - 1),
                        "(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH),
        "conjunction": (" & ".join(["p"] * MAX_DEPTH),
                        " & ".join(["p"] * (MAX_DEPTH + 1))),
        "implication": (" -> ".join(["p"] * MAX_DEPTH),
                        " -> ".join(["p"] * (MAX_DEPTH + 1))),
        "share": ("[a>b]" * (MAX_DEPTH - 1) + "p",
                  "[a>b]" * MAX_DEPTH + "p"),
        "mixed": ("~" * (MAX_DEPTH - 2) + "(p & q)",
                  "~" * (MAX_DEPTH - 2) + "(p & q & r)"),
        "resolution": ("Rk{a,b,c}" * (MAX_DEPTH - 1) + "p",
                       "Rk{a,b,c}" * MAX_DEPTH + "p"),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_bound_is_exact(self, shape):
        at, past = self.SHAPES[shape]
        f = parse(at)
        assert parse(print_formula(f)) == f
        extension(service_desk_deontic(), expand(f))
        with pytest.raises(ParseError, match="deeper than %d" % MAX_DEPTH):
            parse(past)

    @pytest.mark.parametrize("shape", ["share", "resolution"])
    def test_debug_rederivation_fits_at_the_bound(self, shape):
        # A debug context re-derives a hit by re-running its rule, whose
        # subformulas are hits re-derived in turn, in the frames of a first
        # evaluation.  On one state each share enters one model, so that is
        # one chain down the nesting, not states ** depth evaluations.
        m = Model(("w",), ("a", "b", "c"), ("p",),
                  {a: ({"w"},) for a in "abc"}, {"w": {"p"}}, point="w")
        f = expand(parse(self.SHAPES[shape][0]))
        ctx = EvalContext(debug=True)
        assert extension(m, f, ctx) == extension(m, f, ctx) == {"w"}
        ctx._memo[m][Atom("p")] = 0  # as if the innermost entry were lost
        with pytest.raises(AssertionError, match="diverged"):
            extension(m, f, ctx)

    @pytest.mark.parametrize("text", [
        "(" * 250 + "p" + ")" * 250,
        "~" * 5000 + "p",
        " & ".join(["p"] * 3000),
        "~(" * 30 + " & ".join(["p"] * 40) + ")" * 30,
    ])
    def test_deep_input_is_a_parse_error(self, text):
        with pytest.raises(ParseError):
            parse(text)


class TestRebuild:
    def test_every_field_has_exactly_one_role(self):
        nodes = [cls for cls in Formula.__subclasses__()
                 if cls.__module__ == formula.__name__]
        assert len(nodes) == 21
        for cls in nodes:
            layout = cls._layout
            assert [name for name, _, _ in layout] == \
                [fld.name for fld in fields(cls)]
            assert all(role in ("subformula", "agent", "agents", "payload")
                       for _, role, _ in layout)

    def test_a_field_without_a_role_raises(self):
        with pytest.raises(FormulaError, match="Odd.weight has no role"):
            class Odd(Formula):
                weight: int

    def test_agents_are_renamed_in_every_slot(self):
        f = parse("Rk{a;a,b}D{a,b}K{a|b}[b>a]Perm(a>b) & Ok{b}")
        assert substitute(f, agents={"a": "b", "b": "a"}) == \
            parse("Rk{b;b,a}D{b,a}K{b|a}[a>b]Perm(b>a) & Ok{a}")


# every (node class, field) that holds an agent or an agent tuple
_AGENT_SLOTS = [(cls, name, role)
                for cls in Formula.__subclasses__()
                if cls.__module__ == formula.__name__
                for name, role, _ in cls._layout
                if role in ("agent", "agents")]
# a valid value for each agent field, so that one slot at a time goes bad
_GOOD = {"agent": "a", "sender": "a", "receiver": "b", "leader": "a",
         "group": ("a", "b"), "deps": ("b", "c")}


def _build(cls, **changed):
    args = {name: Atom("p") if role == "subformula" else _GOOD[name]
            for name, role, _ in cls._layout}
    args.update(changed)
    return cls(**args)


def _slot_id(slot):
    return "%s.%s" % (slot[0].__name__, slot[1])


class TestAgentSlots:
    def test_every_agent_slot_is_listed(self):
        assert len(_AGENT_SLOTS) == 15

    @pytest.mark.parametrize("bad", ["1x", "K", "", 5, None])
    @pytest.mark.parametrize("slot", _AGENT_SLOTS, ids=_slot_id)
    def test_bad_name_in_every_slot(self, slot, bad):
        cls, name, role = slot
        value = bad if role == "agent" else _GOOD[name][:-1] + (bad,)
        with pytest.raises(FormulaError) as err:
            _build(cls, **{name: value})
        assert str(err.value) == "bad agent name %r" % (bad,)

    @pytest.mark.parametrize("slot", [s for s in _AGENT_SLOTS
                                      if s[2] == "agents"], ids=_slot_id)
    def test_agent_tuples(self, slot):
        cls, name, _ = slot
        f = _build(cls, **{name: list(_GOOD[name])})
        assert type(getattr(f, name)) is tuple
        assert f == _build(cls)
        dup = _GOOD[name][:1] * 2
        what = "dependency in" if name == "deps" else "agent in group"
        with pytest.raises(FormulaError) as err:
            _build(cls, **{name: dup})
        assert str(err.value) == "duplicate %s %r" % (what, dup)
        if name == "deps":
            assert _build(cls, deps=[]).deps == ()
        else:
            with pytest.raises(FormulaError) as err:
                _build(cls, **{name: []})
            assert str(err.value) == "agent group must be non-empty"

    @pytest.mark.parametrize("bad", ["ab", "a", None, 5])
    @pytest.mark.parametrize("slot", [s for s in _AGENT_SLOTS
                                      if s[2] == "agents"], ids=_slot_id)
    def test_agent_tuple_is_not_a_string(self, slot, bad):
        # a string would be split into one agent per letter
        cls, name, _ = slot
        with pytest.raises(FormulaError) as err:
            _build(cls, **{name: bad})
        assert str(err.value) == \
            "agent group must be an iterable of names, not %r" % (bad,)


# every (node class, field) that holds a subformula
_SUB_SLOTS = [(cls, name)
              for cls in Formula.__subclasses__()
              if cls.__module__ == formula.__name__
              for name, role, _ in cls._layout
              if role == "subformula"]


def test_parsing_and_instantiating_leave_no_cycle():
    # the parser keeps no error of a head it did not read, and the rewrite
    # behind `substitute` keeps its memo in a dict, not a cached closure
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        assert parse("Rk{a;a,b}p") == LeaderResolution("a", ("a", "b"),
                                                       Atom("p"))
        schema = Schema("k_share", parse(SCHEMAS["k_share"].template))
        assert len(list(instantiate(schema, [Atom("p"), Atom("q")],
                                    ("a", "b")))) == 8
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


class TestSubformulaSlots:
    def test_every_subformula_slot_is_listed(self):
        assert len(_SUB_SLOTS) == 18

    @pytest.mark.parametrize("bad", ["p", 3, None, [Atom("p")]],
                             ids=["str", "int", "none", "list"])
    @pytest.mark.parametrize("slot", _SUB_SLOTS, ids=_slot_id)
    def test_non_formula_in_every_slot(self, slot, bad):
        cls, name = slot
        with pytest.raises(FormulaError) as err:
            _build(cls, **{name: bad})
        assert str(err.value) == "bad subformula %r" % (bad,)

    def test_no_node_is_left_behind(self):
        before = len(formula._TABLE)
        for bad in ("p", 3):
            with pytest.raises(FormulaError):
                Share("a", "b", bad)
        assert len(formula._TABLE) == before


# every operator, agent tuples with and without deps, shared subformulas
_EVERY_OPERATOR = ("Rk{a;a,b}D{a,b}K{a|b,c}[b>a]Perm(a>b) & Ok{b} | O"
                   " -> E{a,b}P{a}Ob{b}(p <-> ~q) & Ri{a,c}Rk{a,b}(true"
                   " | false) & K{A}PHI & K{a}p & K{a}p")


class TestInterning:
    def test_equal_nodes_are_one_object(self):
        assert parse("K{a|b}(p & q)") is \
            K("a", And(Atom("p"), Atom("q")), ["b"])
        assert K("a", Atom("p")) is K(agent="a", body=Atom("p"), deps=())
        assert D(["a", "b"], Top()) is D(("a", "b"), body=Top())
        assert parse("p & p").left is parse("p & p").right

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, dataclasses.replace,
        lambda f: pickle.loads(pickle.dumps(f))],
        ids=["copy", "deepcopy", "replace", "pickle"])
    def test_copies_are_the_interned_node(self, clone):
        f = parse(_EVERY_OPERATOR)
        for g in formula._walk(f):
            assert clone(g) is g
        assert clone(expand(f)) is expand(f)

    def test_replace_with_changes_interns_the_result(self):
        f = K("a", Atom("p"), ("b",))
        assert dataclasses.replace(f, agent="c") is K("c", Atom("p"), ("b",))
        with pytest.raises(FormulaError) as err:
            dataclasses.replace(f, agent="b")
        assert str(err.value) == "agent 'b' cannot be its own dependency"

    def test_expansion_is_cached_on_the_node(self):
        f = parse("E{a,b,c}Rk{a,b}P{c}p")
        g = expand(f)
        assert expand(f) is g and expand(g) is g
        assert expand(parse(print_formula(f))) is g

    @pytest.mark.parametrize("text, message", [
        (text, message) for text, message, line, _ in PARSE_ERRORS
        if line is None])
    def test_node_errors_raise_while_equal_valid_nodes_live(self, text,
                                                            message):
        # valid nodes of every class with these agents stay in the table
        alive = parse("Rk{a;a,b}p & Rk{a,b}p & D{a,b}p & K{a|b}p"
                      " & K{a|b,c}p & K{a}p")
        for _ in range(2):
            with pytest.raises(FormulaError) as err:
                parse(text)
            assert type(err.value) is FormulaError
            assert str(err.value) == message
        assert parse(print_formula(alive)) is alive

    @pytest.mark.parametrize("slot", _AGENT_SLOTS, ids=_slot_id)
    def test_bad_slots_raise_while_a_valid_node_lives(self, slot):
        cls, name, role = slot
        valid = _build(cls)
        assert _build(cls) is valid
        for bad in ("1x", "K", 5):
            value = bad if role == "agent" else _GOOD[name][:-1] + (bad,)
            for _ in range(2):
                with pytest.raises(FormulaError) as err:
                    _build(cls, **{name: value})
                assert str(err.value) == "bad agent name %r" % (bad,)

    def test_unhashable_fields_raise_a_formula_error(self):
        with pytest.raises(FormulaError) as err:
            K(["a"], Atom("p"))
        assert str(err.value) == "bad agent name ['a']"
        with pytest.raises(FormulaError):
            Not([Atom("p")])

    def test_positional_hit_skips_the_constructor(self, monkeypatch):
        p, q = Atom("p"), Atom("q")
        live = [p, And(p, q), K("a", p, ("b",)), Share("a", "b", q)]

        def refuse(self):
            raise AssertionError("constructor ran for a live node")

        for node in live:
            monkeypatch.setattr(type(node), "__post_init__", refuse)
        assert Atom("p") is p
        assert And(p, q) is live[1]
        assert K("a", p, ("b",)) is live[2]
        assert Share("a", "b", q) is live[3]
        monkeypatch.undo()
        # keywords, a left-out default and an unhashable argument go
        # through the constructor and still find the live node
        assert K("a", p, deps=("b",)) is live[2]
        assert K("a", p) is K("a", p, ())
        assert K("a", p, ["b"]) is live[2]

    def test_keyword_hit_skips_the_constructor(self, monkeypatch):
        p, q = Atom("p"), Atom("q")
        live = [p, And(p, q), K("a", p, ("b",)), Share("a", "b", q),
                K("a", q)]

        def refuse(self):
            raise AssertionError("constructor ran for a live node")

        for node in live:
            monkeypatch.setattr(type(node), "__post_init__", refuse)
        assert Atom(name="p") is p
        assert And(right=q, left=p) is live[1]
        assert K("a", body=p, deps=("b",)) is live[2]
        assert dataclasses.replace(live[2]) is live[2]
        assert Share("a", receiver="b", body=q) is live[3]
        assert K("a", q) is live[4]  # the left-out default is bound first

    def test_node_classes_define_no_generated_methods(self):
        # Formula builds, prints and freezes every node, so importing the
        # module compiles no per-class __init__, __repr__ or __setattr__
        nodes = [cls for cls in Formula.__subclasses__()
                 if cls.__module__ == formula.__name__]
        assert len(nodes) == 21
        for cls in nodes:
            assert not {"__init__", "__repr__", "__setattr__",
                        "__delattr__"} & set(vars(cls)), cls.__name__

    def test_repr_names_every_field(self):
        assert repr(K("a", Atom("p"), ("b",))) == \
            "K(agent='a', body=Atom(name='p'), deps=('b',))"
        assert repr(Top()) == "Top()"

    @pytest.mark.parametrize("change, message", [
        (lambda f: setattr(f, "agent", "b"), "cannot assign to field 'agent'"),
        (lambda f: delattr(f, "agent"), "cannot delete field 'agent'"),
        (lambda f: setattr(f, "weight", 1), "cannot assign to field 'weight'"),
    ], ids=["assign", "delete", "add"])
    def test_fields_are_frozen(self, change, message):
        f = K("a", Atom("p"))
        with pytest.raises(dataclasses.FrozenInstanceError) as err:
            change(f)
        assert str(err.value) == message
        assert f.agent == "a" and not hasattr(f, "weight")

    @pytest.mark.parametrize("call, error, message", [
        (lambda p: And(p), TypeError,
         "And.__init__() missing 1 required positional argument: 'right'"),
        (lambda p: And(p, p, p), TypeError,
         "And.__init__() takes 3 positional arguments but 4 were given"),
        (lambda p: Atom("K"), FormulaError, "bad atom name 'K'"),
        (lambda p: Atom(["p"]), FormulaError, "bad atom name ['p']"),
        (lambda p: K("a", p, ("a",)), FormulaError,
         "agent 'a' cannot be its own dependency"),
        (lambda p: K(["a"], p), FormulaError, "bad agent name ['a']"),
        (lambda p: K(), TypeError, "K.__init__() missing 2 required"
         " positional arguments: 'agent' and 'body'"),
        (lambda p: Share(), TypeError, "Share.__init__() missing 3 required"
         " positional arguments: 'sender', 'receiver', and 'body'"),
        (lambda p: K("a", p, (), 1), TypeError, "K.__init__() takes from 3"
         " to 4 positional arguments but 5 were given"),
        (lambda p: Top(1), TypeError,
         "Top.__init__() takes 1 positional argument but 2 were given"),
        (lambda p: And(p, left=p), TypeError,
         "And.__init__() got multiple values for argument 'left'"),
        (lambda p: Not(p, weight=1), TypeError,
         "Not.__init__() got an unexpected keyword argument 'weight'"),
    ], ids=["missing", "extra", "keyword", "unhashable-atom", "own-dep",
            "unhashable-agent", "missing-two", "missing-three",
            "extra-over-default", "extra-no-fields", "keyword-twice",
            "unknown-keyword"])
    def test_a_miss_raises_as_the_constructor_does(self, call, error,
                                                   message):
        p = Atom("p")
        alive = (And(p, p), K("a", p, ("b",)), Atom("q"))
        with pytest.raises(error) as err:
            call(p)
        assert type(err.value) is error and str(err.value) == message
        assert And(p, p) is alive[0]

    def test_importing_the_cli_compiles_no_binder(self):
        # a call's binder is compiled on first use, never at import
        code = ("import knowpool.cli\n"
                "from knowpool import formula\n"
                "print(formula._binder.cache_info().currsize)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")

    def test_a_call_that_does_not_fit_raises_type_error(self):
        with pytest.raises(TypeError):
            K("a")
        with pytest.raises(TypeError):
            K("a", Atom("p"), agent="b")
        with pytest.raises(TypeError):
            Not(Atom("p"), weight=1)


class TestSchema:
    def test_substitute(self):
        f = parse("K{A}PHI -> PHI")
        out = substitute(f, {"PHI": Atom("p")}, {"A": "a"})
        assert out == parse("K{a}p -> p")

    def test_substitute_rewrites_each_distinct_node_once(self, monkeypatch):
        # nested E expands to a DAG of 5k+1 distinct nodes but 3^k paths
        f = expand(parse("E{A,B,C}" * 8 + "PHI"))
        real = formula.rebuild
        seen = []
        monkeypatch.setattr(formula, "rebuild",
                            lambda g, *rest: seen.append(g) or real(g, *rest))
        out = substitute(f, {"PHI": Atom("p")}, {"A": "a", "B": "b", "C": "c"})
        assert len(seen) == len(set(seen))
        assert set(seen) <= set(formula._walk(f))
        assert out is expand(parse("E{a,b,c}" * 8 + "p"))

    def test_instantiate_is_deterministic_and_injective(self):
        schema = Schema("int", parse("K{A}PHI -> K{A|B}PHI"))
        pool = [Atom("p"), Not(Atom("p"))]
        got = list(instantiate(schema, pool, ["a", "b"]))
        again = list(instantiate(schema, pool, ["a", "b"]))
        assert got == again
        assert len(got) == 4
        texts = {print_formula(f) for f in got}
        assert "K{a}p -> K{a|b}p" in texts
        assert all("K{a|a}" not in t and "K{b|b}" not in t for t in texts)

    def test_instantiate_needs_enough_agents(self):
        schema = Schema("three", parse("K{A}K{B}K{C}PHI"))
        with pytest.raises(FormulaError):
            list(instantiate(schema, [Atom("p")], ["a", "b"]))


# deterministic random formulas for the round-trip property

# "A" is a schema placeholder in agent position
_agents = st.sampled_from(["a", "b", "c", "A"])
_groups = st.lists(_agents, min_size=2, max_size=3, unique=True).map(tuple)


def _formulas():
    leaves = st.one_of(
        st.sampled_from(["p", "q", "r"]).map(Atom),
        st.sampled_from(["PHI", "Psi"]).map(MetaFormula),
        st.just(Top()), st.just(Bot()), st.just(IdealAtom()),
        _agents.map(OkAtom),
        st.tuples(_agents, _agents).filter(lambda t: t[0] != t[1])
        .map(lambda t: PermittedShare(*t)),
    )

    def build(children):
        pair = st.tuples(children, children)
        share_args = st.tuples(_agents, _agents).filter(
            lambda t: t[0] != t[1])
        return st.one_of(
            children.map(Not),
            pair.map(lambda t: And(*t)),
            pair.map(lambda t: Or(*t)),
            pair.map(lambda t: Imp(*t)),
            pair.map(lambda t: Iff(*t)),
            st.tuples(_agents, children).map(lambda t: K(t[0], t[1])),
            st.tuples(_agents, children, _groups).filter(
                lambda t: t[0] not in t[2])
            .map(lambda t: K(t[0], t[1], t[2])),
            st.tuples(_groups, children).map(lambda t: D(*t)),
            st.tuples(_groups, children).map(lambda t: Everybody(*t)),
            st.tuples(_groups, children).map(lambda t: ResolveInfo(*t)),
            st.tuples(_groups, children).map(lambda t: Resolution(*t)),
            st.tuples(_groups, children).map(
                lambda t: LeaderResolution(t[0][0], t[0], t[1])),
            st.tuples(share_args, children).map(
                lambda t: Share(t[0][0], t[0][1], t[1])),
            st.tuples(_agents, children).map(lambda t: Permitted(*t)),
            st.tuples(_agents, children).map(lambda t: Obliged(*t)),
        )

    return st.recursive(leaves, build, max_leaves=12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_formulas())
def test_print_parse_round_trip(f):
    assert parse(print_formula(f)) is f


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_formulas())
def test_expand_idempotent(f):
    once = expand(f)
    assert expand(once) == once


# fragments of the concrete syntax, a few non-ASCII letters and digits
_SYNTAX_BITS = st.sampled_from(
    ["p", "q", "a", "b", "A", "PHI", "K", "D", "E", "Ri", "Rk", "P", "Ob",
     "Perm", "Ok", "O", "true", "{", "}", "[", "]", "(", ")", ",", ";", "|",
     ">", "&", "~", "->", "<->", "-", "<", " ", "\n", "é", "²", "١", "_1"])


# pieces of the parse digest: heads, agents, atoms, punctuation, arrows,
# the skipped whitespace and characters that are no word of the syntax
_PIECES = ("K{", "D{", "E{", "Ri{", "Rk{", "P{", "Ob{", "Ok{", "Perm(", "O",
           "K", "Rk", "true", "false", "a", "b", "c", "A", "p", "q", "PHI",
           "(", ")", "{", "}", "[", "]", ",", ";", "|", "&", "~", ">", "->",
           "<->", " ", "\t", "\r", "\n", "_", "1", "\xa0", "-", "<")

# sha256 over 20,000 random inputs of the input and either its printed
# formula or its error class, message, line and column; recorded before the
# tokenizer stopped keeping positions
PARSE_DIGEST = \
    "188e919a9120fa8684f7296fceebfc8dbc5c4efc337588d05cc59030a45e617a"


def test_parse_outcomes_are_pinned():
    rng = random.Random(7)
    digest = hashlib.sha256()
    for _ in range(20000):
        text = "".join(rng.choice(_PIECES)
                       for _ in range(rng.randint(0, 14)))
        try:
            outcome = print_formula(parse(text))
        except FormulaError as err:
            outcome = "%s %s %s %s" % (type(err).__name__, err,
                                       getattr(err, "line", None),
                                       getattr(err, "col", None))
        digest.update(("%r\0%s\0" % (text, outcome)).encode())
    assert digest.hexdigest() == PARSE_DIGEST


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.text(max_size=30),
                 st.lists(_SYNTAX_BITS, max_size=20).map("".join)))
def test_parse_returns_or_raises_a_formula_error(text):
    try:
        parse(text)
    except FormulaError:
        pass


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_formulas())
def test_rebuild_with_identity_returns_the_node(f):
    assert rebuild(f, lambda g: g) is f
    assert rebuild(f, lambda g: g, lambda a: a) is f
