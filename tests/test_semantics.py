"""Formula evaluation: extensions, pointed checks, witnesses, caching."""

import gc
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from knowpool import semantics
from knowpool.formula import (And, Atom, Bot, D, Everybody, IdealAtom, Iff,
                              Imp, K, LeaderResolution, MetaFormula, Not,
                              Obliged, OkAtom, Or, Permitted, PermittedShare,
                              Resolution, ResolveInfo, Share, Top, expand,
                              parse)
from knowpool.kripke import Model, ModelError, PointedModel, load, pointed
from knowpool.lab import (GOLDEN_FACTS, GenConfig, gen_model,
                          run_reference_suite)
from knowpool.presets import PRESETS, overlap, service_desk, \
    service_desk_deontic
from knowpool.semantics import (CheckResult, EvalContext, EvalError, check,
                                extension, global_truth, holds)
from knowpool.update import share_update

from oracles import permuted, reference_extension


# table entries whose recorded verdict the evaluator provably contradicts;
# the evaluator's own output is pinned here so regressions still surface
DISPUTED = {"dep2-04": True, "resolve-03": True, "resolve-04": True}


class TestGoldenRegression:
    def test_every_fact_computes_to_its_pinned_value(self):
        for fact in GOLDEN_FACTS:
            pm = pointed(PRESETS[fact.model]())
            got = bool(check(pm, parse(fact.formula)))
            want = DISPUTED.get(fact.label, fact.expected)
            assert got == want, fact.label

    def test_disputed_labels_are_exactly_these(self):
        labels = {f.label for f in GOLDEN_FACTS}
        assert set(DISPUTED) <= labels
        for fact in GOLDEN_FACTS:
            if fact.label in DISPUTED:
                assert fact.expected != DISPUTED[fact.label]


class TestExtension:
    def test_booleans(self):
        m = service_desk()
        assert extension(m, parse("p")) == {"s0", "s1", "s3"}
        assert extension(m, parse("~p")) == {"s2", "s4"}
        assert extension(m, parse("p & q")) == {"s0", "s1"}
        assert extension(m, parse("p | q")) == {"s0", "s1", "s2", "s3"}
        assert extension(m, parse("p -> q")) == {"s0", "s1", "s2", "s4"}
        assert extension(m, parse("p <-> q")) == {"s0", "s1", "s4"}
        assert extension(m, parse("true")) == set(m.states)
        assert extension(m, parse("false")) == set()

    def test_knowledge_is_cellwise(self):
        m = service_desk()
        assert extension(m, parse("K{a}p")) == {"s3"}
        assert extension(m, parse("K{b}p")) == {"s1"}
        assert extension(m, parse("K{c}p")) == set()

    def test_dependent_knowledge_meets_the_closure(self):
        m = service_desk()
        assert extension(m, parse("K{c|a}p")) == {"s3"}
        assert extension(m, parse("K{c|a,b}p")) == set(m.states) - {"s2", "s4"}

    def test_distributed_knowledge_meets_cells(self):
        m = service_desk()
        assert extension(m, parse("D{a,b}p")) == {"s0", "s1", "s3"}
        assert extension(m, parse("D{a,b,c}p")) == {"s0", "s1", "s3"}

    def test_share_is_evaluated_statewise(self):
        # each state gets its own update: the share helps inside the
        # sender's information but reveals nothing new at s3
        m = service_desk()
        assert extension(m, parse("[a>c]K{c}(p->q)")) == \
            {"s0", "s1", "s2", "s4"}

    def test_deontic_atoms(self):
        m = service_desk_deontic()
        assert extension(m, parse("O")) == {"s0", "s1", "s3"}
        assert extension(m, parse("Ok{a}")) == {"s0", "s1"}
        assert extension(m, parse("Ok{b}")) == {"s0", "s3"}
        assert extension(m, parse("Ok{c}")) == {"s0", "s1", "s3"}

    def test_errors(self):
        m = service_desk()
        with pytest.raises(EvalError):
            extension(m, parse("zz"))
        with pytest.raises(EvalError):
            extension(m, parse("K{zz}p"))
        with pytest.raises(EvalError):
            extension(m, parse("Ok{a}"))
        with pytest.raises(EvalError):
            extension(m, parse("O"))
        with pytest.raises(EvalError):
            extension(m, MetaFormula("PHI"))

    @pytest.mark.parametrize("text", [
        "K{zz}p", "K{a|zz}p", "K{a|b,zz}p", "D{zz}p", "D{a,zz}p",
        "[zz>a]p", "[a>zz]p", "Ri{a,zz}p", "Ok{zz}", "E{a,zz}p",
        "Rk{a,zz}p", "Rk{a;a,zz}p", "Rk{zz;zz,a}p", "P{zz}p", "Ob{zz}p",
        "Perm(zz>a)", "Perm(a>zz)",
    ])
    def test_unknown_agent_in_every_slot(self, text):
        with pytest.raises(EvalError) as err:
            extension(service_desk_deontic(), parse(text))
        assert str(err.value) == "unknown agent 'zz'"

    def test_agents_are_looked_up_before_the_ideal_relation(self):
        with pytest.raises(EvalError, match="unknown agent 'zz'"):
            extension(service_desk(), parse("Ok{zz}"))
        with pytest.raises(EvalError, match="needs a model with an ideal"):
            extension(service_desk(), parse("Ok{a}"))


class TestCheck:
    def test_bool_protocol_and_state(self):
        res = check(pointed(service_desk()), parse("K{a}(p->q)"))
        assert res and res.value and res.state == "s0" and res.witness is None

    def test_false_knowledge_names_a_counterstate(self):
        res = check(pointed(service_desk()), parse("K{a}(q->r)"))
        assert not res
        assert res.witness == "s1"

    def test_false_distributed_names_a_counterstate(self):
        res = check(PointedModel(overlap(), "s1"), parse("D{a,b}q"))
        assert not res
        assert res.witness == "s1"

    def test_false_share_carries_the_updated_model(self):
        pm = pointed(service_desk())
        res = check(pm, parse("[a>c]K{c|a}((p->q) & ~K{c}(p->q))"))
        assert not res
        data, inner = res.witness
        assert load(data) == share_update(pm.model, "s0", "a", "c")
        assert isinstance(inner, CheckResult) and not inner
        assert inner.state == "s0" and inner.witness == "s0"

    def test_check_respects_the_anchor(self):
        m = service_desk()
        assert check(PointedModel(m, "s3"), parse("K{a}p")).value
        assert not check(PointedModel(m, "s0"), parse("K{a}p")).value


class TestHolds:
    def test_every_fact_agrees_with_its_extension(self):
        for fact in GOLDEN_FACTS:
            m = PRESETS[fact.model]()
            f = parse(fact.formula)
            want = extension(m, f)
            for w in m.states:
                assert holds(m, w, f) == (w in want), (fact.label, w)

    @pytest.mark.parametrize("w", ["zz", ["s0"], None])
    def test_unknown_state_is_a_model_error(self, w):
        with pytest.raises(ModelError, match="unknown state"):
            holds(service_desk(), w, parse("p"))

    def test_a_point_query_leaves_partial_entries(self):
        # the box's body is asked on b's cell of s1 alone, and the share
        # builds the updated model of s0 alone; `extension` then completes
        # every entry to a plain mask
        m = service_desk()
        ctx = EvalContext()
        body = expand(parse("q -> r"))
        assert not holds(m, "s1", K("b", body), ctx)
        known, value = ctx._memo[m][body]
        assert m._names(known) == m.cell("b", "s1") != set(m.states)
        share = parse("[a>c]K{c}(p->q)")
        assert holds(m, "s0", share, ctx)
        assert [out for out in ctx._memo[m].values()
                if isinstance(out, Model)] == [ctx.updated(m, "s0", "a", "c")]
        for f in (body, share):
            assert extension(m, f, ctx) == extension(m, f)
            assert type(ctx._memo[m][expand(f)]) is int

    @pytest.mark.parametrize("fact", GOLDEN_FACTS, ids=lambda f: f.label)
    def test_check_after_a_point_query_elsewhere(self, fact):
        # a point query at another state leaves entries known on part of
        # the point's reach; the check's value and witness must not change
        m = PRESETS[fact.model]()
        f = parse(fact.formula)
        want = check(pointed(m), f)
        for w in m.states:
            ctx = EvalContext()
            holds(m, w, f, ctx)
            assert check(pointed(m), f, ctx) == want, w

    def test_knowledge_witness_after_a_partial_body(self):
        m = service_desk()
        ctx = EvalContext()
        assert not holds(m, "s1", parse("K{b}(q->r)"), ctx)
        assert check(pointed(m), parse("K{a}(q->r)"), ctx).witness == "s1"


def test_point_queries_build_only_the_updates_they_reach(monkeypatch):
    # the reference suite asks every fact at its model's point; evaluating
    # every node at every state built 82 updated models through 241 update
    # lookups
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(semantics, "share_update",
                        counted("share_update", semantics.share_update))
    monkeypatch.setattr(EvalContext, "updated",
                        counted("updated", EvalContext.updated))
    report = run_reference_suite(include_schemas=False)
    assert [r.got for r in report.facts] == \
        [DISPUTED.get(r.fact.label, r.fact.expected) for r in report.facts]
    assert calls["share_update"] < 82 and calls["updated"] < 241
    assert calls == {"share_update": 13, "updated": 34}


class TestGlobalTruth:
    def test_tautology_and_contingency(self):
        m = service_desk()
        assert global_truth(m, parse("p | ~p"))
        assert not global_truth(m, parse("p"))
        assert global_truth(m, parse("K{a}p -> p"))


class TestContext:
    def test_update_results_are_cached(self):
        m = service_desk()
        ctx = EvalContext()
        one = ctx.updated(m, "s0", "a", "c")
        two = ctx.updated(m, "s0", "a", "c")
        assert one is two

    def test_share_anchor_distinguished_by_cell(self):
        m = service_desk()
        ctx = EvalContext()
        assert ctx.updated(m, "s0", "a", "c") is ctx.updated(m, "s1", "a", "c")
        assert ctx.updated(m, "s0", "a", "c") != ctx.updated(m, "s3", "a", "c")

    @pytest.mark.parametrize("w, sender, receiver", [
        ("zz", "a", "b"), ("s0", "zz", "b"), ("s0", "a", "zz"),
        (["s0"], "a", "b"), ("s0", None, "b"), ("s0", "a", ["b"])])
    def test_unknown_names_are_model_errors(self, w, sender, receiver):
        with pytest.raises(ModelError, match="unknown"):
            EvalContext().updated(service_desk(), w, sender, receiver)

    def test_senders_with_equal_closures_share_one_update(self):
        # a and b hold one partition, so their closures agree at every
        # state and a share from either builds the same model
        m = Model(("w0", "w1", "w2"), ("a", "b", "c"), ("p", "q"),
                  {"a": ({"w0"}, {"w1", "w2"}), "b": ({"w0"}, {"w1", "w2"}),
                   "c": ({"w0", "w1", "w2"},)},
                  {"w0": {"p"}, "w1": {"q"}}, point="w0")
        ctx = EvalContext(debug=True)
        for w in m.states:
            assert ctx.updated(m, w, "a", "c") is ctx.updated(m, w, "b", "c")
        assert ctx.updated(m, "w0", "b", "c") != m

    def test_one_object_per_model_content(self):
        # equal models reached by different update paths are one object,
        # so the memo finds each by identity
        ctx = EvalContext()
        for fact in GOLDEN_FACTS:
            m = PRESETS[fact.model]()
            f = parse(fact.formula)
            assert extension(m, f, ctx) == extension(m, f), fact.label
        held = {id(out): out for memo in ctx._memo.values()
                for out in memo.values() if isinstance(out, Model)}
        assert len(held) > 1
        assert len(set(held.values())) == len(held)

    def test_debug_context_agrees_with_fresh(self):
        facts = ["[a>c]K{c}(p->q)", "Rk{a,b,c}E{a,b,c}(p->q)", "K{c|a,b}q"]
        m = service_desk()
        shared, debug = EvalContext(), EvalContext(debug=True)
        for text in facts:
            f = parse(text)
            assert extension(m, f, shared) == extension(m, f, debug) \
                == extension(m, f)

    @pytest.mark.parametrize("text", [
        "p & ~q", "K{c|a}q", "[a>c]K{c}(p->q)", "Ri{a,b}K{a}q",
        "[b>c]Ri{a,c}K{c}(p|r)", "Rk{a,b,c}[a>b]K{b}r"])
    def test_shared_memo_keeps_each_state_order(self, text):
        # a copy listing the states in another order equals the model and
        # holds the same masks, since bits follow state names, so it may
        # share the model's memo entries
        m = service_desk()
        f = parse(text)
        want = extension(m, f)
        ctx = EvalContext()
        for order in ((0, 1, 2, 3, 4), (4, 3, 2, 1, 0), (2, 0, 4, 1, 3),
                      (0, 1, 2, 3, 4)):
            twin = permuted(m, order)
            assert twin == m and hash(twin) == hash(m)
            assert extension(twin, f, ctx) == want
            assert check(pointed(twin, "s3"), f, ctx).value == ("s3" in want)

    @pytest.mark.parametrize("preset, text, again", [
        (service_desk, "[a>c]K{c}(p->q)",
         lambda ctx, m: ctx.updated(m, "s0", "a", "c")),
        (overlap, "Ri{a,b}K{a}q", lambda ctx, m: ctx.resolved(m, ("a", "b")))],
        ids=["updated", "resolved"])
    def test_debug_rederives_update_hits(self, preset, text, again):
        m = preset()
        ctx = EvalContext(debug=True)
        extension(m, parse(text), ctx)
        updated = again(ctx, m)
        # m's memo dict holds its extensions and its updated models
        memo = ctx._memo[m]
        keys = [key for key, out in memo.items() if isinstance(out, Model)]
        assert updated != m and keys
        for key in keys:
            memo[key] = m  # as if the update had been lost
        with pytest.raises(AssertionError):
            again(ctx, m)


def test_models_die_without_the_cycle_collector():
    # neither a model nor an updated one is part of a reference cycle, so
    # both are freed as soon as the last reference goes
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        m = service_desk()
        ctx = EvalContext()
        assert extension(m, parse("[a>c]K{c|b}(p->q)"), ctx)
        updated = ctx.updated(m, "s0", "a", "c")
        assert updated != m and hash(updated) and hash(m)
        refs = [weakref.ref(m), weakref.ref(updated)]
        del m, ctx, updated
        assert [ref() for ref in refs] == [None, None]
    finally:
        if was_enabled:
            gc.enable()


# random formulas over the agents and atoms of the random deontic models
# below, using every operator; shares nest two or more deep
_AGENTS = ("a", "b", "c")
_agent = st.sampled_from(_AGENTS)
_pair = st.permutations(_AGENTS).map(lambda p: p[:2])
_group = st.lists(_agent, min_size=2, max_size=2, unique=True).map(tuple)


def _kernel_and_defined():
    leaves = st.one_of(
        st.sampled_from(("p", "q", "r")).map(Atom),
        st.sampled_from((Top(), Bot(), IdealAtom())),
        _agent.map(OkAtom),
        _pair.map(lambda p: PermittedShare(*p)),
    )

    def build(children):
        two = st.tuples(children, children)
        return st.one_of(
            children.map(Not),
            two.map(lambda t: And(*t)), two.map(lambda t: Or(*t)),
            two.map(lambda t: Imp(*t)), two.map(lambda t: Iff(*t)),
            st.tuples(_agent, children).map(lambda t: K(*t)),
            st.tuples(_pair, children).map(
                lambda t: K(t[0][0], t[1], t[0][1:])),
            st.tuples(_group, children).map(lambda t: D(*t)),
            st.tuples(_group, children).map(lambda t: Everybody(*t)),
            st.tuples(_group, children).map(lambda t: ResolveInfo(*t)),
            st.tuples(_group, children).map(lambda t: Resolution(*t)),
            st.tuples(_group, children).map(
                lambda t: LeaderResolution(t[0][0], t[0], t[1])),
            st.tuples(_pair, children).map(
                lambda t: Share(*t[0], t[1])),
            st.tuples(_pair, _pair, children).map(
                lambda t: Share(*t[0], Share(*t[1], t[2]))),
            st.tuples(_agent, children).map(lambda t: Permitted(*t)),
            st.tuples(_agent, children).map(lambda t: Obliged(*t)),
        )

    return st.recursive(leaves, build, max_leaves=6)


_DEONTIC = GenConfig(max_states=5, agents=3, atoms=3, deontic=True, seed=7)


@pytest.fixture(scope="module")
def shared_ctx():
    # one context for every example, so entries from earlier formulas and
    # from equal models built earlier are hit
    return EvalContext()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_kernel_and_defined(), st.integers(0, 199))
def test_extension_matches_the_reference_evaluator(shared_ctx, f, index):
    m = gen_model(_DEONTIC, index)
    want = reference_extension(m, f)
    assert extension(m, f) == want
    assert extension(m, f, shared_ctx) == want
    assert extension(m, f, shared_ctx) == want
    assert extension(m, f, EvalContext(debug=True)) == want


@pytest.mark.parametrize("debug", [False, True], ids=["plain", "debug"])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(f=_kernel_and_defined(), index=st.integers(0, 199), data=st.data())
def test_point_queries_extend_partial_entries(debug, f, index, data):
    # one context answers every state in a shuffled order, so each query
    # meets entries left known on other states, then the full extension
    # completes them, then every state is asked again
    m = gen_model(_DEONTIC, index)
    want = reference_extension(m, f)
    order = data.draw(st.permutations(m.states))
    ctx = EvalContext(debug=debug)
    for w in order:
        assert holds(m, w, f, ctx) == (w in want)
    assert extension(m, f, ctx) == want
    for w in order:
        assert holds(m, w, f, ctx) == (w in want)


def _distinct_nodes(f):
    """Nodes under `f` counted by identity, so that equal subformulas that
    are not one object count twice."""
    seen = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if id(g) not in seen:
            seen[id(g)] = g
            stack.extend(getattr(g, name) for name in ("body", "left", "right")
                         if hasattr(g, name))
    return len(seen)


@pytest.mark.parametrize("k", [6, 12, 20])
def test_nested_everybody_is_linear(k):
    # E{a,b,c} expands to three K's over one body; as a tree that is 3**k
    # copies of `p`, as interned nodes five new nodes per level
    f = expand(parse("E{a,b,c}" * k + "p"))
    assert _distinct_nodes(f) == 5 * k + 1
    ctx = EvalContext()
    extension(service_desk(), f, ctx)
    assert sum(map(len, ctx._memo.values())) == 5 * k + 1
