"""Finite multi-agent S5 models.

Relations are stored as partitions into cells, so reflexivity, symmetry, and
transitivity hold by construction.  A model optionally carries an ideal
relation (a non-empty symmetric set of state pairs inside the union of the
agent relations) and a designated evaluation point.

`atoms_partition` computes the modal-equivalence blocks of the static
language by partition refinement against the valuation and every agent's
relation.  `dep_closure(m, a, w)` returns cl_a(w), the union of blocks
meeting the cell of w under a's relation; the induced dependence relation at
w is then "same block, or both inside cl_a(w)".
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

_NAME_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


class ModelError(ValueError):
    """Malformed model data or a failed validation invariant."""


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks covering a state set."""

    blocks: tuple

    def __iter__(self) -> Iterator[frozenset]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def block_of(self, state: str) -> frozenset:
        for b in self.blocks:
            if state in b:
                return b
        raise KeyError(state)


class Model:
    """Immutable by convention: operations return fresh models."""

    def __init__(self, states: Iterable, agents: Iterable, atoms: Iterable,
                 rel: Mapping, val: Mapping, ideal=None, point=None,
                 validate: bool = True):
        self.states = tuple(states)
        self.agents = tuple(agents)
        self.atoms = tuple(atoms)
        self._index = {s: i for i, s in enumerate(self.states)}
        order = self._index
        self.rel = {
            a: tuple(sorted((frozenset(c) for c in cells),
                            key=lambda c: min(order[s] for s in c)))
            for a, cells in rel.items()
        }
        for a in self.agents:
            if a not in self.rel:
                self.rel[a] = tuple(frozenset({s}) for s in self.states)
        self.val = {s: frozenset(val.get(s, ())) for s in self.states}
        self.ideal = None if ideal is None else \
            frozenset(frozenset(p) for p in ideal)
        self.point = point
        self._cell = {}
        self._blocks = None
        self._dep = {}
        self._hash = None
        if validate:
            self._validate()

    def _validate(self) -> None:
        if not self.states:
            raise ModelError("model needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise ModelError("duplicate state id")
        for s in self.states:
            if not isinstance(s, str) or not s:
                raise ModelError("state ids must be non-empty strings")
        for name, what in ((self.agents, "agent"), (self.atoms, "atom")):
            if len(set(name)) != len(name):
                raise ModelError("duplicate %s name" % what)
            for n in name:
                if not isinstance(n, str) or not _NAME_RE.match(n):
                    raise ModelError("bad %s name %r" % (what, n))
        universe = frozenset(self.states)
        for a, cells in self.rel.items():
            if a not in self.agents:
                raise ModelError("relation for unknown agent %r" % a)
            seen = set()
            for c in cells:
                if not c or not c <= universe:
                    raise ModelError("bad cell %r for agent %r" % (set(c), a))
                if seen & c:
                    raise ModelError("overlapping cells for agent %r" % a)
                seen |= c
            if seen != universe:
                raise ModelError("cells for agent %r do not cover all states" % a)
        for s, atoms in self.val.items():
            if s not in self._index:
                raise ModelError("valuation for unknown state %r" % s)
            extra = atoms - frozenset(self.atoms)
            if extra:
                raise ModelError("valuation uses unknown atoms %r" % sorted(extra))
        if self.ideal is not None:
            if not self.ideal:
                raise ModelError("ideal relation must be non-empty")
            for pair in self.ideal:
                if not 1 <= len(pair) <= 2 or not pair <= universe:
                    raise ModelError("bad ideal pair %r" % sorted(pair))
                if not any(pair <= self.cell(a, min(pair, key=self._index.get))
                           for a in self.agents):
                    raise ModelError("ideal pair %r outside every agent relation"
                                     % sorted(pair))
        if self.point is not None and self.point not in self._index:
            raise ModelError("point %r is not a state" % (self.point,))

    def cell(self, agent: str, state: str) -> frozenset:
        try:
            lookup = self._cell[agent]
        except KeyError:
            lookup = {s: c for c in self.rel[agent] for s in c}
            self._cell[agent] = lookup
        return lookup[state]

    def cells(self, agent: str) -> tuple:
        return self.rel[agent]

    def ideal_partners(self, state: str) -> frozenset:
        """O[state]: the states ideally related to this one."""
        if self.ideal is None:
            return frozenset()
        out = set()
        for pair in self.ideal:
            if state in pair:
                other = pair - {state}
                out.add(next(iter(other)) if other else state)
        return frozenset(out)

    def replace_relations(self, new_rel: Mapping) -> "Model":
        """Fresh model with some agents' partitions swapped out."""
        rel = dict(self.rel)
        rel.update(new_rel)
        return Model(self.states, self.agents, self.atoms, rel, self.val,
                     self.ideal, self.point, validate=False)

    def _key(self):
        return (frozenset(self.states), frozenset(self.agents),
                frozenset(self.atoms),
                frozenset((a, frozenset(cells)) for a, cells in self.rel.items()),
                frozenset(self.val.items()), self.ideal, self.point)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self) -> str:
        return "Model(states=%r, agents=%r, point=%r)" % (
            list(self.states), list(self.agents), self.point)


@dataclass(frozen=True)
class PointedModel:
    model: Model
    point: str

    def __post_init__(self):
        if self.point not in self.model._index:
            raise ModelError("point %r is not a state" % (self.point,))


def pointed(m: Model, state=None) -> PointedModel:
    """Pair a model with an evaluation point, defaulting to the model's own."""
    at = state if state is not None else m.point
    if at is None:
        raise ModelError("no evaluation point given and the model has none")
    return PointedModel(m, at)


# ---------------------------------------------------------------------------
# definability blocks and the dependence closure


def atoms_partition(m: Model) -> Partition:
    """Coarsest partition stable under the valuation and every relation.

    Two states end up in the same block iff they satisfy the same formulas
    of the static language, so blocks are the definable building bricks.
    """
    if m._blocks is not None:
        return m._blocks
    block_id = {}
    groups = {}
    for s in m.states:
        groups.setdefault(m.val[s], []).append(s)
    for i, (_, members) in enumerate(sorted(groups.items(),
                                            key=lambda kv: sorted(kv[0]))):
        for s in members:
            block_id[s] = i
    while True:
        sigs = {}
        for s in m.states:
            sig = (block_id[s],
                   tuple(tuple(sorted({block_id[u] for u in m.cell(a, s)}))
                         for a in m.agents))
            sigs.setdefault(sig, []).append(s)
        if len(sigs) == len(set(block_id.values())):
            break
        for i, (_, members) in enumerate(sorted(sigs.items(),
                                                key=lambda kv: kv[0])):
            for s in members:
                block_id[s] = i
    blocks = {}
    for s in m.states:
        blocks.setdefault(block_id[s], set()).add(s)
    part = Partition(tuple(sorted((frozenset(b) for b in blocks.values()),
                                  key=lambda b: min(m._index[s] for s in b))))
    m._blocks = part
    return part


def dep_closure(m: Model, agent: str, state: str) -> frozenset:
    """cl_a(w): union of definability blocks meeting the cell of w under a."""
    key = (agent, state)
    cached = m._dep.get(key)
    if cached is not None:
        return cached
    cell = m.cell(agent, state)
    out = set()
    for b in atoms_partition(m):
        if b & cell:
            out |= b
    result = frozenset(out)
    for s in cell:
        m._dep[(agent, s)] = result
    return result


def dep_partition(m: Model, agent: str, state: str) -> Partition:
    """The dependence relation at `state` as a partition: cl_a(w) is one
    class, and every block outside it stays its own class."""
    cl = dep_closure(m, agent, state)
    pieces = [cl] + [b for b in atoms_partition(m) if not b & cl]
    return Partition(tuple(sorted(pieces,
                                  key=lambda b: min(m._index[s] for s in b))))


# ---------------------------------------------------------------------------
# serialization


_REQUIRED_KEYS = ("states", "agents", "atoms", "relations", "valuation")
_ALLOWED_KEYS = _REQUIRED_KEYS + ("ideal", "point")


def _closure_cells(states, pairs, label, strict):
    parent = {s: s for s in states}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    listed = set()
    for p in pairs:
        if not (isinstance(p, (list, tuple)) and len(p) == 2):
            raise ModelError("%s: pairs must be 2-element lists" % label)
        u, v = p
        for s in (u, v):
            if s not in parent:
                raise ModelError("%s: unknown state %r" % (label, s))
        listed.add((u, v))
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    cells = {}
    for s in states:
        cells.setdefault(find(s), set()).add(s)
    result = tuple(frozenset(c) for c in cells.values())
    if strict:
        full = {(u, v) for c in result for u in c for v in c}
        missing = full - listed
        extra = listed - full
        if missing or extra:
            example = sorted(missing or extra)[0]
            raise ModelError(
                "%s: strict mode requires the exact closure; pair %r is %s"
                % (label, list(example), "missing" if missing else "extra"))
    return result


def load(text, strict: bool = False) -> Model:
    """Read a model from JSON bytes/text.

    Relation pair lists are closed under reflexivity, symmetry, and
    transitivity; in strict mode the listed pairs must already be the full
    closure (loops included).  Ideal pairs are closed under symmetry.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if isinstance(text, str):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ModelError("invalid JSON: %s" % e) from None
    else:
        data = text
    if not isinstance(data, dict):
        raise ModelError("model file must be a JSON object")
    unknown = sorted(set(data) - set(_ALLOWED_KEYS))
    if unknown:
        raise ModelError("unknown keys %r" % unknown)
    for key in _REQUIRED_KEYS:
        if key not in data:
            raise ModelError("missing key %r" % key)
    states = data["states"]
    if not isinstance(states, list):
        raise ModelError("states must be a list")
    relations = data["relations"]
    if not isinstance(relations, dict):
        raise ModelError("relations must be an object")
    for a in relations:
        if a not in data["agents"]:
            raise ModelError("relations: unknown agent %r" % a)
    rel = {a: _closure_cells(states, pairs, "relations[%s]" % a, strict)
           for a, pairs in relations.items()}
    valuation = data["valuation"]
    if not isinstance(valuation, dict):
        raise ModelError("valuation must be an object")
    for s, atoms in valuation.items():
        if not isinstance(atoms, list):
            raise ModelError("valuation[%s] must be a list of atoms" % s)
    ideal = None
    if "ideal" in data:
        raw = data["ideal"]
        if not isinstance(raw, list) or not raw:
            raise ModelError("ideal must be a non-empty list of pairs")
        ideal = []
        for p in raw:
            if not (isinstance(p, (list, tuple)) and len(p) == 2):
                raise ModelError("ideal: pairs must be 2-element lists")
            ideal.append(frozenset(p))
    try:
        return Model(states, data["agents"], data["atoms"], rel, valuation,
                     ideal, data.get("point"))
    except ModelError:
        raise
    except (TypeError, AttributeError) as e:
        raise ModelError("malformed model data: %s" % e) from None


def save(m: Model) -> bytes:
    """Serialize deterministically; `load(save(m))` equals `m`.

    Relation pair lists are written as the full closure (loops included),
    so the output also loads in strict mode.
    """
    order = m._index
    relations = {}
    for a in m.agents:
        pairs = [[u, v] for c in m.cells(a)
                 for u in sorted(c, key=order.get)
                 for v in sorted(c, key=order.get)]
        pairs.sort(key=lambda p: (order[p[0]], order[p[1]]))
        relations[a] = pairs
    data = {
        "states": list(m.states),
        "agents": list(m.agents),
        "atoms": list(m.atoms),
        "relations": relations,
        "valuation": {s: sorted(m.val[s]) for s in m.states},
    }
    if m.ideal is not None:
        pairs = []
        for pair in m.ideal:
            two = sorted(pair, key=order.get)
            pairs.append([two[0], two[-1]])
        data["ideal"] = sorted(pairs, key=lambda p: (order[p[0]], order[p[1]]))
    if m.point is not None:
        data["point"] = m.point
    return (json.dumps(data, indent=2) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# canonical fingerprints


def _refine_colors(m: Model, color: dict) -> dict:
    while True:
        sigs = {}
        for s in m.states:
            sig = (color[s],
                   tuple(tuple(sorted({color[u] for u in m.cell(a, s)}))
                         for a in sorted(m.agents)),
                   tuple(sorted({color[u] for u in m.ideal_partners(s)})))
            sigs.setdefault(sig, []).append(s)
        if len(sigs) == len(set(color.values())):
            return color
        color = {}
        for i, (_, members) in enumerate(sorted(sigs.items(),
                                                key=lambda kv: kv[0])):
            for s in members:
                color[s] = i


def _canonical_bytes(m: Model, point: str, color: dict) -> bytes:
    color = _refine_colors(m, color)
    classes = {}
    for s in m.states:
        classes.setdefault(color[s], []).append(s)
    ambiguous = [c for c, members in sorted(classes.items())
                 if len(members) > 1]
    if ambiguous:
        target = classes[ambiguous[0]]
        fresh = max(color.values()) + 1
        best = None
        for s in sorted(target, key=m._index.get):
            branched = dict(color)
            branched[s] = fresh
            cand = _canonical_bytes(m, point, branched)
            if best is None or cand < best:
                best = cand
        return best
    # colors are all distinct: read off the canonical ordering
    position = {s: color[s] for s in m.states}
    rank = {s: i for i, s in
            enumerate(sorted(m.states, key=lambda s: position[s]))}
    data = {
        "n": len(m.states),
        "atoms": {p: sorted(rank[s] for s in m.states if p in m.val[s])
                  for p in sorted(m.atoms)},
        "agents": {a: sorted(sorted(rank[s] for s in c)
                             for c in m.cells(a))
                   for a in sorted(m.agents)},
        "ideal": None if m.ideal is None else
                 sorted(sorted(rank[s] for s in pair) for pair in m.ideal),
        "point": rank[point],
    }
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def fingerprint(pm: PointedModel) -> bytes:
    """Canonical byte string, equal exactly for isomorphic pointed models.

    Isomorphism: a state bijection preserving the valuation, every named
    agent relation, the ideal relation, and the point.  Computed by color
    refinement with individualization branching on ties.

    There is no automorphism pruning, so the cost is factorial in the size
    of the colour classes refinement cannot split: on a model whose states
    are interchangeable within two valuation classes it took 0.1 s at 9
    states and 0.6 s at 10 (2.1 GHz Xeon).  This stays a public API; the
    planner no longer calls it, since it deduplicates on exact models.
    """
    m = pm.model
    base = {}
    groups = {}
    for s in m.states:
        groups.setdefault((s == pm.point, tuple(sorted(m.val[s]))),
                          []).append(s)
    for i, (_, members) in enumerate(sorted(groups.items(),
                                            key=lambda kv: kv[0])):
        for s in members:
            base[s] = i
    # the stored default point is presentation metadata, not structure
    return _canonical_bytes(m, pm.point, base)
