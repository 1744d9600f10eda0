"""Models, serialization, definability blocks, and fingerprints."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from knowpool.formula import parse
from knowpool.kripke import (Model, ModelError, PointedModel,
                             atoms_partition, dep_closure, dep_partition,
                             fingerprint, load, pointed, save)
from knowpool.lab import enumerate_models, gen_model, GenConfig
from knowpool.semantics import check, extension
from knowpool.update import resolve_update, share_update
from knowpool.presets import (PRESETS, overlap, service_desk,
                              service_desk_deontic)

from oracles import equiv_classes, isomorphic, naive_blocks, permuted


def disjoint_union(models):
    """One model holding a renamed copy of each model, with no relation
    linking two copies; the models must share their agents and atoms."""
    states, rel, val = [], {}, {}
    for k, m in enumerate(models):
        name = ("m%d_" % k).__add__
        states += map(name, m.states)
        for a in m.agents:
            rel.setdefault(a, []).extend(set(map(name, c)) for c in m.cells(a))
        val.update((name(s), m.val[s]) for s in m.states)
    return Model(states, m.agents, m.atoms, rel, val)


def tiny(rel_a=({"u", "v"},), ideal=None, point=None):
    return Model(("u", "v"), ("a",), ("p",), {"a": rel_a},
                 {"u": {"p"}, "v": set()}, ideal=ideal, point=point)


class TestValidation:
    def test_accepts_presets(self):
        for build in (service_desk, service_desk_deontic, overlap):
            m = build()
            assert m.point == "s0"

    @pytest.mark.parametrize("states, rel, val, ideal, point, message", [
        ((), {}, {}, None, None, "model needs at least one state"),
        (("u", "u"), {}, {}, None, None, "duplicate state id"),
        (("u",), {"a": [()]}, {}, None, None, "bad cell [] for agent 'a'"),
        (("u",), {"a": [("zz",)]}, {}, None, None,
         "bad cell ['zz'] for agent 'a'"),
        (("u", "v"), {"a": [("u",), ("u",), ("v",)]}, {}, None, None,
         "overlapping cells for agent 'a'"),
        (("u", "v"), {"a": [("u",)]}, {}, None, None,
         "cells for agent 'a' do not cover all states"),
        (("u",), {"b": [("u",)]}, {}, None, None,
         "relation for unknown agent 'b'"),
        (("u",), {}, {"u": {"zz"}}, None, None,
         "valuation uses unknown atoms ['zz']"),
        (("u",), {}, {}, (), None, "ideal relation must be non-empty"),
        (("u", "v", "w"), {}, {}, [("u", "v", "w")], None,
         "bad ideal pair ['u', 'v', 'w']"),
        (("u",), {}, {}, [("u", "zz")], None, "bad ideal pair ['u', 'zz']"),
        (("u",), {}, {}, None, "nowhere", "point 'nowhere' is not a state"),
    ], ids=["no_state", "duplicate_state", "empty_cell", "unknown_cell_state",
            "overlap", "gap", "unknown_agent", "unknown_atom", "empty_ideal",
            "three_state_ideal_pair", "unknown_ideal_state", "unknown_point"])
    def test_rejects_bad_shapes(self, states, rel, val, ideal, point,
                                message):
        with pytest.raises(ModelError) as err:
            Model(states, ("a",), ("p",), rel, val, ideal=ideal, point=point)
        assert str(err.value) == message

    def test_bad_cell_message_does_not_depend_on_the_hash_seed(self):
        # a set of four strings iterates in a different order under most
        # pairs of hash seeds; the message lists the states sorted
        code = ("from knowpool.kripke import Model\n"
                "try:\n"
                "    Model(('u', 'v', 'w'), ('a',), ('p',),"
                " {'a': [('u', 'v', 'w', 'zz')]}, {})\n"
                "except ValueError as e:\n"
                "    print(e)\n")
        root = Path(__file__).resolve().parent.parent
        out = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [
                           str(root / "src"), os.environ.get("PYTHONPATH")])))
            done = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=60)
            out.add(done.stdout)
        assert out == {"bad cell ['u', 'v', 'w', 'zz'] for agent 'a'\n"}

    @pytest.mark.parametrize("agents, atoms, message", [
        (("a",), ("true",), "bad atom name 'true'"),
        (("false",), ("p",), "bad agent name 'false'"),
    ], ids=["atom_true", "agent_false"])
    def test_rejects_keyword_names(self, agents, atoms, message):
        # a formula could not name them: `true` and `false` are constants
        with pytest.raises(ModelError) as err:
            Model(("u",), agents, atoms, {}, {})
        assert str(err.value) == message

    @pytest.mark.parametrize("states, agents, atoms, point, message", [
        ([["u"]], ("a",), ("p",), None,
         "state ids must be non-empty strings"),
        (("u",), [["a"]], ("p",), None,
         "malformed model data: agent names must be strings, got ['a']"),
        (("u",), ("a",), [["p"]], None,
         "malformed model data: atom names must be strings, got ['p']"),
        (("u",), ("a",), ("p",), ["u"], "point ['u'] is not a state"),
    ], ids=["state", "agent", "atom", "point"])
    def test_rejects_unhashable_names(self, states, agents, atoms, point,
                                      message):
        # checked before anything puts them in a set or a dict
        with pytest.raises(ModelError) as err:
            Model(states, agents, atoms, {}, {}, point=point)
        assert str(err.value) == message

    @pytest.mark.parametrize("rel, val, ideal, message", [
        ({}, {"u": [1, "x"]}, None, "valuation atoms must be strings, got 1"),
        ({}, {"u": [["p"]]}, None,
         "valuation atoms must be strings, got ['p']"),
        ({}, {"u": 5}, None, "valuation atoms must be a collection, got 5"),
        ({}, {"u": "pq"}, None,
         "valuation atoms must be a collection, got 'pq'"),
        ({"a": [[["u"]]]}, {}, None,
         "cell states must be strings, got ['u']"),
        ({"a": 5}, {}, None, "relation cells must be a collection, got 5"),
        ({}, {}, [[["u"], "u"]],
         "ideal pair states must be strings, got ['u']"),
        ({}, {}, [5], "ideal pair states must be a collection, got 5"),
        ({}, {}, 5, "ideal pairs must be a collection, got 5"),
        ([], {}, None, "relations must be a mapping, got []"),
    ], ids=["mixed_atoms", "list_atom", "atoms_number", "atoms_string",
            "list_in_cell", "cells_number", "list_in_ideal_pair",
            "ideal_pair_number", "ideal_number", "relations_list"])
    def test_rejects_malformed_elements(self, rel, val, ideal, message):
        # checked before anything hashes or sorts them
        with pytest.raises(ModelError) as err:
            Model(("u",), ("a",), ("p",), rel, val, ideal=ideal)
        assert str(err.value) == "malformed model data: " + message

    def test_rejects_valuation_of_unknown_state(self):
        with pytest.raises(ModelError) as err:
            Model(("u",), ("a",), ("p",), {}, {"zz": {"p"}})
        assert str(err.value) == "valuation for unknown state 'zz'"

    def test_rejects_bad_ideal(self):
        with pytest.raises(ModelError):
            tiny(ideal=())
        # an ideal pair outside every agent's cell is accepted: no rule
        # reads that condition, and a share update can produce it
        apart = tiny(rel_a=({"u"}, {"v"}), ideal=(("u", "v"),))
        assert load(save(apart)) == apart
        ok = tiny(ideal=(("u", "v"),))
        assert ok.ideal_partners("u") == {"v"}
        assert ok.ideal_partners("v") == {"u"}

    def test_missing_relation_defaults_to_identity(self):
        m = Model(("u", "v"), ("a", "b"), ("p",), {"a": ({"u", "v"},)},
                  {"u": {"p"}})
        assert m.cells("b") == (frozenset({"u"}), frozenset({"v"}))

    def test_equality_is_structural(self):
        assert tiny() == tiny()
        assert tiny() != tiny(rel_a=({"u"}, {"v"}))
        assert hash(tiny()) == hash(tiny())
        m = service_desk()
        same = (
            # agents and atoms listed in another order
            Model(m.states, m.agents[::-1], m.atoms[::-1], m.rel, m.val,
                  point=m.point),
            Model(m.states, m.agents, m.atoms[::-1], m.rel, m.val,
                  point=m.point),
        )
        for other in same:
            assert other == m and hash(other) == hash(m)
        val = dict(m.val)
        val["s1"] = m.val["s1"] ^ {"p"}
        for other in (
                Model(m.states, m.agents, m.atoms, m.rel, m.val, point="s1"),
                Model(m.states, m.agents, m.atoms, m.rel, val,
                      point=m.point)):
            assert other != m
        # a copy of a share-updated model listing its states in another
        # order
        after = share_update(m, "s0", "a", "c")
        assert after != m
        for order in ([4, 3, 2, 1, 0], [1, 0, 3, 2, 4], [2, 4, 0, 1, 3]):
            twin = permuted(after, order)
            assert twin.states != after.states
            assert twin == after and hash(twin) == hash(after)
            assert twin != m


class TestPointed:
    def test_pointed_defaults_to_model_point(self):
        assert pointed(service_desk()).point == "s0"
        assert pointed(service_desk(), "s3").point == "s3"
        with pytest.raises(ModelError):
            pointed(tiny())
        with pytest.raises(ModelError):
            PointedModel(tiny(), "zz")

    def test_rejects_an_unhashable_state(self):
        m = Model(("u",), ("a",), ("p",), {}, {})
        with pytest.raises(ModelError) as err:
            pointed(m, ["u"])
        assert str(err.value) == "point ['u'] is not a state"


class TestReaders:
    @pytest.mark.parametrize("read", [
        lambda m, name: m.cell(name, "s0"),
        lambda m, name: m.cell("a", name),
        lambda m, name: m.cells(name),
        lambda m, name: m.ideal_partners(name),
    ], ids=["cell-agent", "cell-state", "cells", "ideal_partners"])
    @pytest.mark.parametrize("name", ["zz", ["a"], None])
    def test_unknown_names_are_model_errors(self, read, name):
        with pytest.raises(ModelError, match="unknown"):
            read(service_desk_deontic(), name)


class TestSerialization:
    def test_round_trip(self):
        for build in (service_desk, service_desk_deontic, overlap):
            m = build()
            assert load(save(m)) == m

    def test_a_shared_model_round_trips(self):
        # a share can leave an ideal pair outside every agent's cell; the
        # saved model must still load back equal
        cfg = GenConfig(deontic=True, samples=20, seed=7)
        for index in range(cfg.samples):
            m = gen_model(cfg, index)
            for w, a, b in itertools.product(m.states, m.agents, m.agents):
                if a != b:
                    after = share_update(m, w, a, b)
                    assert load(save(after)) == after, (index, w, a, b)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_bundled_file_is_the_saved_preset(self, name):
        models = Path(__file__).parent.parent / "models"
        assert save(PRESETS[name]()) == \
            (models / ("%s.json" % name)).read_bytes()

    def test_save_loads_back_and_is_deterministic(self):
        m = service_desk_deontic()
        data = save(m)
        assert load(data) == m
        assert save(load(data)) == data

    def test_pairs_are_closed(self):
        text = json.dumps({
            "states": ["u", "v", "w"], "agents": ["a"], "atoms": ["p"],
            "relations": {"a": [["u", "v"], ["v", "w"]]},
            "valuation": {"u": ["p"]},
        })
        m = load(text)
        assert m.cell("a", "u") == {"u", "v", "w"}

    def test_rejects_unknown_keys_and_bad_data(self):
        good = json.loads(save(service_desk()))
        for mutate in (
            lambda d: d.update(color="blue"),
            lambda d: d.pop("states"),
            lambda d: d.update(relations={"zz": []}),
            lambda d: d.update(ideal=[]),
            lambda d: d.update(ideal=[["s0"]]),
            lambda d: d.update(point="zz"),
            lambda d: d["relations"].update(a=[["s0", "zz"]]),
            lambda d: d.update(agents=5),
            lambda d: d.update(agents="abc"),
            lambda d: d.update(atoms="pqr"),
            lambda d: d.update(states="s0"),
            lambda d: d["states"].append(["s9"]),
            lambda d: d.update(ideal=[[["s0"], "s0"]]),
            lambda d: d["relations"].update(a=[["s0", ["s1"]]]),
            lambda d: d["relations"].update(a=5),
            lambda d: d["valuation"].update(zz=[]),
        ):
            data = json.loads(save(service_desk()))
            mutate(data)
            with pytest.raises(ModelError):
                load(json.dumps(data))
        assert load(json.dumps(good)) == service_desk()

    def test_valuation_of_unknown_state_is_named(self):
        data = json.loads(save(service_desk()))
        data["valuation"].update(zz=[])
        with pytest.raises(ModelError) as err:
            load(json.dumps(data))
        assert str(err.value) == "valuation for unknown state 'zz'"

    def test_not_json(self):
        with pytest.raises(ModelError):
            load(b"{nope")
        with pytest.raises(ModelError):
            load(b"[1, 2]")

    @pytest.mark.parametrize("text", [
        b"[" * 200_000, b"\xff{}",
        {"states": ["u"], "agents": [], "atoms": [], "relations": {},
         "valuation": {}},
    ], ids=["too_deep", "undecodable", "decoded"])
    def test_unreadable_json_is_a_model_error(self, text):
        with pytest.raises(ModelError, match="^invalid JSON: "):
            load(text)

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(agents=[["a"]], relations={}),
        lambda d: d["valuation"].update(s0=[1, "x"]),
    ], ids=["list_agent", "mixed_atoms"])
    def test_malformed_model_data_is_a_model_error(self, mutate):
        # shapes that pass the key checks but break the model's own
        data = json.loads(save(service_desk()))
        mutate(data)
        with pytest.raises(ModelError, match="^malformed model data: "):
            load(json.dumps(data))

    @staticmethod
    def shuffled():
        # states out of name order, cells given out of state order, a
        # three-state cell, an ideal loop and a two-state ideal pair
        return Model(("w2", "w0", "w3", "w1"), ("a", "b"), ("p", "q"),
                     {"a": ({"w1"}, {"w3", "w0", "w2"}),
                      "b": ({"w1", "w3"}, {"w0"}, {"w2"})},
                     {"w2": {"p"}, "w3": {"p", "q"}, "w1": {"q"}},
                     ideal=(("w1", "w1"), ("w3", "w0")), point="w0")

    def test_cells_come_in_state_order(self):
        m = self.shuffled()
        assert m.cells("a") == ({"w2", "w0", "w3"}, {"w1"})
        assert m.cells("b") == ({"w2"}, {"w0"}, {"w3", "w1"})
        after = share_update(m, "w0", "b", "a")
        assert after.cells("a") == ({"w2"}, {"w0"}, {"w3"}, {"w1"})

    # sha256 of `save` output, recorded before each partition was stored
    # as one per-state cell array
    SAVED = {
        "shuffled":
            "7063ba177453e1c2483d29c805311410767216b7e6ac5e1b61db677be6960152",
        "shared":
            "5e020d013ebc55cb6fae8d873a83ee813e65ab537858bbca0394720243d9ae8f",
    }

    def test_save_bytes_are_pinned(self):
        m = self.shuffled()
        data = save(m)
        assert json.loads(data)["relations"]["b"] == [
            ["w2", "w2"], ["w0", "w0"], ["w3", "w3"], ["w3", "w1"],
            ["w1", "w3"], ["w1", "w1"]]
        assert json.loads(data)["ideal"] == [["w0", "w3"], ["w1", "w1"]]
        shared = save(share_update(m, "w0", "b", "a"))
        got = {"shuffled": data, "shared": shared}
        assert {k: hashlib.sha256(v).hexdigest() for k, v in got.items()} \
            == self.SAVED


def twelve():
    # twelve states listed w0..w11, so name order puts w10 and w11 before
    # w2; the map w0<->w8, w1<->w9, w2<->w10 is an automorphism, so those
    # pairs share blocks
    val = {"w0": {"p"}, "w1": {"q"}, "w2": {"p"}, "w4": {"p", "q"},
           "w5": {"q"}, "w7": {"p"}, "w8": {"p"}, "w9": {"q"}, "w10": {"p"},
           "w11": {"p", "q"}}
    return Model(["w%d" % i for i in range(12)], ("a", "b"), ("p", "q"),
                 {"a": ({"w0", "w1"}, {"w8", "w9"}, {"w2", "w3", "w10"},
                        {"w4", "w5"}, {"w6"}, {"w7"}, {"w11"}),
                  "b": ({"w1", "w2"}, {"w9", "w10"}, {"w0", "w8"},
                        {"w3", "w11", "w4"}, {"w5", "w6", "w7"})},
                 val, point="w2")


class TestListingOrder:
    """What the public functions list follows the order the model lists
    its states in, whatever order its masks number them in."""

    # save bytes as sha256, blocks, the dependence partition of b at w1,
    # each agent's cells, the witness of K{a}q at the point, and the
    # extension of K{a}q; recorded before the mask bits followed state
    # names
    PINNED = {
        "shuffled": (
            "7063ba177453e1c2483d29c805311410767216b7e6ac5e1b61db677be6960152",
            [{"w2"}, {"w0"}, {"w3"}, {"w1"}],
            [{"w2"}, {"w0"}, {"w1", "w3"}],
            {"a": [{"w0", "w2", "w3"}, {"w1"}],
             "b": [{"w2"}, {"w0"}, {"w1", "w3"}]},
            "w2", {"w1"}),
        "twelve": (
            "7060468ae94f18718670a3349718c1aae70a6605f3cae90165364d665d3f5158",
            [{"w0", "w8"}, {"w1", "w9"}, {"w2", "w10"}, {"w3"}, {"w4"},
             {"w5"}, {"w6"}, {"w7"}, {"w11"}],
            [{"w0", "w8"}, {"w1", "w2", "w9", "w10"}, {"w3"}, {"w4"},
             {"w5"}, {"w6"}, {"w7"}, {"w11"}],
            {"a": [{"w0", "w1"}, {"w2", "w3", "w10"}, {"w4", "w5"}, {"w6"},
                   {"w7"}, {"w8", "w9"}, {"w11"}],
             "b": [{"w0", "w8"}, {"w1", "w2"}, {"w3", "w4", "w11"},
                   {"w5", "w6", "w7"}, {"w9", "w10"}]},
            "w2", {"w4", "w5", "w11"}),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_outputs_follow_the_listing(self, name):
        m = TestSerialization.shuffled() if name == "shuffled" else twelve()
        f = parse("K{a}q")
        got = (hashlib.sha256(save(m)).hexdigest(),
               list(atoms_partition(m)),
               list(dep_partition(m, "b", "w1")),
               {a: list(m.cells(a)) for a in m.agents},
               check(pointed(m), f).witness,
               extension(m, f))
        assert got == self.PINNED[name]


class TestBlocks:
    def test_all_states_distinguishable(self):
        m = service_desk()
        assert set(atoms_partition(m)) == {frozenset({s}) for s in m.states}

    def test_duplicate_valuations_can_share_a_block(self):
        m = Model(("u", "v"), ("a",), ("p",), {"a": ({"u", "v"},)},
                  {"u": set(), "v": set()})
        assert set(atoms_partition(m)) == {frozenset({"u", "v"})}

    def test_relations_can_split_equal_valuations(self):
        m = Model(("u", "v", "w"), ("a",), ("p",),
                  {"a": ({"u"}, {"v", "w"})},
                  {"u": set(), "v": set(), "w": {"p"}})
        # u and v agree on p but a's uncertainty separates them
        assert frozenset({"u"}) in set(atoms_partition(m))
        assert frozenset({"v"}) in set(atoms_partition(m))

    def test_matches_naive_oracle_on_samples(self):
        # the bank models have at most 5 states; their disjoint union has
        # hundreds, many blocks, and blocks that span its parts
        cfg = GenConfig(samples=60)
        models = [gen_model(cfg, i) for i in range(60)]
        for m in models + [disjoint_union(gen_model(GenConfig(), i)
                                          for i in range(100))]:
            blocks = naive_blocks(m)
            assert set(atoms_partition(m)) == set(blocks)
            for a in m.agents:
                for w in m.states:
                    met = [b for b in blocks if b & m.cell(a, w)]
                    assert dep_closure(m, a, w) == frozenset().union(*met)

    def test_updated_models_match_naive_oracle(self):
        # a share can make blocks finer or coarser, so each updated model
        # is refined on its own
        cfg = GenConfig(samples=60)
        models = itertools.chain(enumerate_models(3, 2, 1),
                                 (gen_model(cfg, i) for i in range(60)))
        for m in models:
            updated = [share_update(m, w, a, b) for w in m.states
                       for a, b in itertools.product(m.agents, repeat=2)]
            updated += [resolve_update(m, group) for group
                        in itertools.combinations(m.agents, 2)]
            for after in updated:
                assert set(atoms_partition(after)) == set(naive_blocks(after))

    def test_a_share_can_merge_blocks(self):
        # only a's cell {w1, w2} tells w1 from w0; the share cuts it
        m = Model(("w0", "w1", "w2"), ("a", "b"), ("p",),
                  {"a": ({"w0"}, {"w1", "w2"}), "b": ({"w0", "w1"}, {"w2"})},
                  {"w2": {"p"}})
        assert set(atoms_partition(m)) == {frozenset({s}) for s in m.states}
        after = share_update(m, "w1", "b", "a")
        assert set(atoms_partition(after)) == {frozenset({"w0", "w1"}),
                                               frozenset({"w2"})}


class TestDepClosure:
    def test_closure_is_union_of_blocks_meeting_cell(self):
        m = service_desk()
        assert dep_closure(m, "a", "s0") == {"s0", "s1", "s2"}
        assert dep_closure(m, "b", "s0") == {"s0", "s3", "s4"}
        assert dep_closure(m, "c", "s0") == set(m.states)

    def test_stability_inside_the_closure(self):
        cfg = GenConfig(samples=40)
        for i in range(40):
            m = gen_model(cfg, i)
            for a in m.agents:
                for w in m.states:
                    cl = dep_closure(m, a, w)
                    for u in m.cell(a, w):
                        assert dep_closure(m, a, u) == cl

    @pytest.mark.parametrize("lookup", [dep_closure, dep_partition])
    @pytest.mark.parametrize("agent, state", [
        ("z", "s0"), ("a", "zz"), (["a"], "s0"), ("a", ["s0"]),
        (None, "s0"), ("a", 0)])
    def test_unknown_names_are_model_errors(self, lookup, agent, state):
        with pytest.raises(ModelError, match="unknown"):
            lookup(service_desk(), agent, state)

    def test_partition_shape(self):
        m = service_desk()
        part = dep_partition(m, "a", "s0")
        assert set(part) == {frozenset({"s0", "s1", "s2"}),
                             frozenset({"s3"}), frozenset({"s4"})}

    def test_agrees_with_union_quantification(self):
        cfg = GenConfig(samples=40)
        for i in range(40):
            m = gen_model(cfg, i)
            for a in m.agents:
                for w in m.states:
                    assert set(dep_partition(m, a, w)) == \
                        set(equiv_classes(m, a, w))


class TestFingerprint:
    def test_separates_non_isomorphic(self):
        seen = {}
        for m in enumerate_models(2, 2, 1):
            pm = PointedModel(m, "w0")
            fp = fingerprint(pm)
            for other, ofp in seen.items():
                same = isomorphic(m, other)
                assert same == (fp == ofp)
            seen[m] = fp

    def test_point_matters(self):
        m = overlap()
        assert fingerprint(PointedModel(m, "s0")) != \
            fingerprint(PointedModel(m, "s1"))

    def test_ideal_matters(self):
        plain, deontic = service_desk(), service_desk_deontic()
        assert fingerprint(pointed(plain)) != fingerprint(pointed(deontic))

    # sha256 of the fingerprint bytes, recorded before the colour
    # refinement of `fingerprint` and `atoms_partition` became one loop
    PINNED = {
        "service_desk":
            "aa7539676b25471786d36ba7b0603d9aea82fa410774acf8a0f786a56605f099",
        "service_desk_deontic":
            "b085f754bda67da9de7fc0ad53c2debfa46993072c35cea7b7a60f100a8f2ed3",
        "overlap":
            "12f77206c83004f176405d69e7cd2d456e970b5971f8e88aa750717f5f41db25",
        # one atom leaves ties that only the ideal relation splits
        "random_deontic":
            "55fcc8d4591649b657ef7a49b9c9a8397169fc8b09e061942f5856c88fbffb79",
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_bytes_are_pinned(self, name):
        if name in PRESETS:
            data = fingerprint(pointed(PRESETS[name]()))
        else:
            cfg = GenConfig(deontic=True, atoms=1)
            data = b"".join(fingerprint(pointed(gen_model(cfg, i))) + b"\n"
                            for i in range(200))
        assert hashlib.sha256(data).hexdigest() == self.PINNED[name]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6),
       # one-atom deontic models tie on valuations, so only the ideal
       # relation can separate their states
       st.sampled_from([GenConfig(), GenConfig(deontic=True, atoms=1)]),
       st.randoms(use_true_random=False))
def test_fingerprint_permutation_invariant(index, cfg, rng):
    m = gen_model(cfg, index)
    names = list(m.states)
    shuffled = list(names)
    rng.shuffle(shuffled)
    rename = dict(zip(names, shuffled))
    twin = Model(
        tuple(sorted(shuffled)), m.agents, m.atoms,
        {a: tuple(frozenset(rename[s] for s in c) for c in m.cells(a))
         for a in m.agents},
        {rename[s]: set(m.val[s]) for s in m.states},
        ideal=None if m.ideal is None else
        tuple(tuple(rename[s] for s in sorted(pair)) for pair in m.ideal),
        point=rename[m.point])
    assert fingerprint(pointed(m)) == fingerprint(pointed(twin))


# what no model may hold as a name, a cell, a pair or a collection
_ODD = st.sampled_from(["zz", "", "true", "uv", 0, None, ["u"], ("u", "v", "w"),
                        frozenset()])
_ODD_KEY = st.sampled_from(["zz", "", 0, None, ("u",)])


@st.composite
def _model_args(draw):
    """The arguments of a valid model, in which each part at any depth is
    sometimes replaced by an odd value, and each list sometimes loses its
    last element or repeats its first."""
    def pick(items, min_size=0):
        return draw(st.lists(st.sampled_from(items), min_size=min_size,
                             unique=True)) if items else []

    states = pick("uvwx", 1)
    agents, atoms = pick("abc"), pick("pqr")
    rel = {}
    for a in pick(agents):
        cells = {}
        for s in states:
            cells.setdefault(draw(st.integers(0, len(states))), []).append(s)
        rel[a] = list(cells.values())
    val = {s: pick(atoms) for s in pick(states)}
    ideal = draw(st.none() | st.lists(
        st.lists(st.sampled_from(states), min_size=1, max_size=2),
        min_size=1, max_size=3))
    point = draw(st.none() | st.sampled_from(states))

    def spoil(x, odd=_ODD):
        roll = draw(st.integers(1, 25))  # shrinking heads for 1: unspoiled
        if roll == 25:
            return draw(odd)
        if isinstance(x, dict):
            return {spoil(k, _ODD_KEY): spoil(v) for k, v in x.items()}
        if isinstance(x, list):
            x = [spoil(y) for y in x]
            return x[:-1] if roll == 24 else x + x[:1] if roll == 23 else x
        return x

    return [spoil(x) for x in (states, agents, atoms, rel, val, ideal,
                               point)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_model_args())
def test_any_input_builds_a_model_or_raises_model_error(args):
    try:
        m = Model(*args)
    except ModelError:
        return
    assert load(save(m)) == m
