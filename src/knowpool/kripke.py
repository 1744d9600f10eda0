"""Finite multi-agent S5 models.

Relations are stored as partitions into cells, so reflexivity, symmetry, and
transitivity hold by construction.  A model optionally carries an ideal
relation (a non-empty symmetric set of state pairs) and a designated
evaluation point.

Inside, a set of states is an int mask whose bit i stands for the i-th
state in name order, the explicit-state bitset representation of epistemic
model checkers; the order of `m.states` is presentation.  Equal models
therefore hold equal masks.  A model holds each agent's partition once, as
the cell mask of every state by bit, and each atom's valuation mask and
each state's ideal partners; the definability block and the dependence
closures of each state are derived from these on first use, and kept by bit
as the cells are.  An updated model (`replace_relations`) shares the
states, valuation and ideal masks, and the valuation classes, of the model
it came from.  A model is checked once, in the pass that builds its masks:
a cell state with no bit is a bad cell, a bit claimed twice an overlap, a
bit left unclaimed a gap, and a valuation or ideal state with no bit is
unknown.  No constructor skips the checks; `replace_relations` alone, which
swaps the cell masks of a model already checked, builds a model without
them.  The public functions read state names off the masks and list
them in the order of `m.states`; a name a caller gives reaches the masks
through `_relation` (agents) or `_state_bit` (states), which raise
`ModelError` for a name the model lacks.

`atoms_partition` computes the modal-equivalence blocks of the static
language by signature refinement, the hashing form of naive refinement
(Kanellakis and Smolka 1990): starting from the valuation classes, each
round gives every state the signature (its block, its closure under each
agent), the closure being the union of the blocks its cell meets, and the
states with equal signatures form the next blocks, until a round adds no
block.  A round costs O(states x agents) dictionary operations, and there
are at most as many rounds as states; the last round's closures are the
model's.  Each model is refined from its valuation classes, never from the
blocks of the model it was updated from, since a share can merge blocks as
well as split them.
`dep_closure(m, a, w)` returns cl_a(w), the union of blocks meeting the
cell of w under a's relation; the induced dependence relation at w is then
"same block, or both inside cl_a(w)".  `fingerprint` needs colours that
compare across models, so it refines ranked colours (`_refine`) instead.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping

from .formula import Record, _is_name


class ModelError(ValueError):
    """Malformed model data or a failed validation invariant."""


def _members(mask: int) -> list:
    """The bit positions of a mask, lowest first: bit i is the i-th state
    in name order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _meet(arrays: list) -> tuple:
    """The state-wise meet of per-state mask arrays (cells or closures)."""
    out = arrays[0]
    for more in arrays[1:]:
        out = tuple(map(int.__and__, out, more))
    return out


class _Frame:
    """What a model shares with every model updated from it: the state
    names in bit order (name order), the bit of each and the mask of all,
    each atom's valuation mask, each state's valuation class and ideal
    partners as masks by bit, and the hash of the name-level content.
    Building the valuation and ideal masks checks their atoms and states."""

    __slots__ = ("names", "index", "full", "val", "class_at", "partners",
                 "hash")

    def __init__(self, states: tuple, agents: tuple, atoms: tuple,
                 val: dict, ideal):
        self.names = tuple(sorted(states))
        self.index = index = {s: i for i, s in enumerate(self.names)}
        self.full = (1 << len(states)) - 1
        self.val = masks = {}
        classes = {}
        for s, i in index.items():
            for p in val[s]:
                masks[p] = masks.get(p, 0) | 1 << i
            classes[val[s]] = classes.get(val[s], 0) | 1 << i
        unknown = masks.keys() - set(atoms)
        if unknown:  # those of the first listed state that uses one
            s = next(s for s in states if val[s] & unknown)
            raise ModelError("valuation uses unknown atoms %r"
                             % sorted(val[s] & unknown))
        self.class_at = tuple([classes[val[s]] for s in self.names])
        if ideal is not None and not ideal:
            raise ModelError("ideal relation must be non-empty")
        partners = [0] * len(states)
        for pair in ideal or ():
            ends = [index.get(s) for s in pair]  # one state for a loop
            if not 1 <= len(ends) <= 2 or None in ends:
                raise ModelError("bad ideal pair %r" % sorted(pair))
            u, v = ends[0], ends[-1]
            partners[u] |= 1 << v
            partners[v] |= 1 << u
        self.partners = tuple(partners)
        self.hash = hash((frozenset(states), frozenset(agents),
                          frozenset(atoms), frozenset(val.items()), ideal))


def _collection(items, what: str) -> tuple:
    """`items` as a tuple, if it is a collection other than a string."""
    if isinstance(items, str) or not hasattr(items, "__iter__"):
        raise ModelError("malformed model data: %s must be a collection,"
                         " got %r" % (what, items))
    return tuple(items)


def _strings(items, what: str) -> tuple:
    """`items` as a tuple of strings, each checked before anything hashes
    or sorts it."""
    items = _collection(items, what)
    for x in items:
        if not isinstance(x, str):
            raise ModelError("malformed model data: %s must be strings,"
                             " got %r" % (what, x))
    return items


class Model:
    """Immutable by convention: operations return fresh models."""

    __slots__ = ("states", "agents", "atoms", "val", "ideal", "point",
                 "_frame", "_cell_at", "_block_at", "_closure",
                 "_hash", "__weakref__")

    def __init__(self, states: Iterable, agents: Iterable, atoms: Iterable,
                 rel: Mapping, val: Mapping, ideal=None, point=None):
        # types first: only strings may reach a set, a dict or sorted()
        self.states = states = _collection(states, "states")
        self.agents = agents = _strings(agents, "agent names")
        self.atoms = _strings(atoms, "atom names")
        for given, what in ((rel, "relations"), (val, "valuation")):
            if not isinstance(given, Mapping):
                raise ModelError("malformed model data: %s must be a"
                                 " mapping, got %r" % (what, given))
        rel = {a: [_strings(c, "cell states")
                   for c in _collection(cells, "relation cells")]
               for a, cells in rel.items()}
        val = {s: _strings(v, "valuation atoms") for s, v in val.items()}
        if ideal is not None:
            ideal = [_strings(pair, "ideal pair states")
                     for pair in _collection(ideal, "ideal pairs")]
        self._check_names()
        self.val = {s: frozenset(val.get(s, ())) for s in states}
        for s in val:  # as given: self.val keeps only known states
            if s not in self.val:
                raise ModelError("valuation for unknown state %r" % (s,))
        self.ideal = None if ideal is None else \
            frozenset(frozenset(p) for p in ideal)
        self._frame = _Frame(states, agents, self.atoms, self.val, self.ideal)
        index = self._frame.index
        self._cell_at = {}
        for a, cells in rel.items():
            if a not in agents:
                raise ModelError("relation for unknown agent %r" % (a,))
            at, claimed = [0] * len(states), 0
            for c in cells:
                bits = {index.get(s) for s in c}
                if not bits or None in bits:
                    raise ModelError("bad cell %r for agent %r"
                                     % (sorted(set(c)), a))
                mask = sum([1 << i for i in bits])
                if claimed & mask:
                    raise ModelError("overlapping cells for agent %r" % (a,))
                claimed |= mask
                for i in bits:
                    at[i] = mask
            if 0 in at:
                raise ModelError("cells for agent %r do not cover all states"
                                 % (a,))
            self._cell_at[a] = tuple(at)
        for a in agents:
            if a not in self._cell_at:  # no relation: every state apart
                self._cell_at[a] = tuple(1 << i for i in range(len(states)))
        # a tuple scan, as the point may be unhashable
        if point is not None and point not in states:
            raise ModelError("point %r is not a state" % (point,))
        self.point = point
        self._block_at = self._closure = self._hash = None

    def _check_names(self) -> None:
        # types first: a list given as a name must not reach set() or dict
        if not self.states:
            raise ModelError("model needs at least one state")
        for s in self.states:
            if not isinstance(s, str) or not s:
                raise ModelError("state ids must be non-empty strings")
        if len(set(self.states)) != len(self.states):
            raise ModelError("duplicate state id")
        for names, what in ((self.agents, "agent"), (self.atoms, "atom")):
            if len(set(names)) != len(names):
                raise ModelError("duplicate %s name" % what)
            for n in names:
                if not _is_name(n):
                    raise ModelError("bad %s name %r" % (what, n))

    # -- names read off the masks

    def _names(self, mask: int) -> frozenset:
        names = self._frame.names
        return frozenset([names[i] for i in _members(mask)])

    def _classes(self, class_of) -> tuple:
        """The classes `class_of` maps each state's bit to, as name sets
        ordered by their first state."""
        bits = map(self._frame.index.__getitem__, self.states)
        return tuple(map(self._names, dict.fromkeys(map(class_of, bits))))

    @property
    def rel(self) -> dict:
        """Each agent's cells, as `cells` gives them."""
        return {a: self.cells(a) for a in self._cell_at}

    def cell(self, agent: str, state: str) -> frozenset:
        return self._names(_relation(self, agent)[_state_bit(self, state)])

    def cells(self, agent: str) -> tuple:
        """The agent's cells, ordered by their first state."""
        return self._classes(_relation(self, agent).__getitem__)

    def ideal_partners(self, state: str) -> frozenset:
        """O[state]: the states ideally related to this one."""
        return self._names(self._frame.partners[_state_bit(self, state)])

    # -- masks derived on first use

    def _blocks(self) -> tuple:
        """The definability block of each state, by bit."""
        if self._block_at is None:
            self._definability()
        return self._block_at

    def _closure_at(self, agent: str) -> tuple:
        """cl_agent(w) of each state w, by bit."""
        if self._closure is None:
            self._definability()
        return self._closure[agent]

    def _definability(self) -> None:
        # A state's signature is its block and its closure under each
        # agent; equal signatures make the next blocks, which refine the
        # current ones, so a round that adds no block leaves them stable.
        block_at = self._frame.class_at
        while True:
            closure = {}
            for a, at in self._cell_at.items():
                cl = {}  # each cell's closure: the blocks of its states
                for cell, block in zip(at, block_at):
                    cl[cell] = cl.get(cell, 0) | block
                closure[a] = tuple([cl[cell] for cell in at])
            sigs = list(zip(block_at, *closure.values()))
            blocks = {}
            for i, sig in enumerate(sigs):
                blocks[sig] = blocks.get(sig, 0) | 1 << i
            if len(blocks) == len(set(block_at)):
                break
            block_at = tuple([blocks[sig] for sig in sigs])
        self._block_at = block_at
        self._closure = closure

    def replace_relations(self, cells: Mapping) -> "Model":
        """Fresh model with some agents' cells swapped out.

        `cells` maps an agent to its new partition as a tuple of the cell
        mask of each state, by bit.  Everything else is shared with
        this model and not validated again."""
        new = object.__new__(Model)
        new.states, new.agents, new.atoms = self.states, self.agents, self.atoms
        new.val, new.ideal, new.point = self.val, self.ideal, self.point
        new._frame = self._frame
        new._cell_at = {**self._cell_at, **cells}
        new._block_at = new._closure = new._hash = None
        return new

    # -- equality by content: states and atoms as sets, agents as the keys
    # of `_cell_at`, which has one per agent; bits follow state names, so
    # equal partitions hold equal masks

    def __eq__(self, other) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return (self._frame.names == other._frame.names
                and self._cell_at == other._cell_at
                and self.point == other.point
                and self.val == other.val and self.ideal == other.ideal
                and set(self.atoms) == set(other.atoms))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._frame.hash, self.point,
                               frozenset(self._cell_at.items())))
        return self._hash

    def __repr__(self) -> str:
        return "Model(states=%r, agents=%r, point=%r)" % (
            list(self.states), list(self.agents), self.point)


class PointedModel(Record):
    model: Model
    point: str

    def __post_init__(self):
        if not isinstance(self.point, str) \
                or self.point not in self.model._frame.index:
            raise ModelError("point %r is not a state" % (self.point,))


def pointed(m: Model, state=None) -> PointedModel:
    """Pair a model with an evaluation point, defaulting to the model's own."""
    at = state if state is not None else m.point
    if at is None:
        raise ModelError("no evaluation point given and the model has none")
    return PointedModel(m, at)


# ---------------------------------------------------------------------------
# definability blocks and the dependence closure


def atoms_partition(m: Model) -> tuple:
    """Coarsest partition stable under the valuation and every relation, as
    a tuple of blocks ordered by their first state.

    Two states end up in the same block iff they satisfy the same formulas
    of the static language, so blocks are the definable building bricks.
    """
    return m._classes(m._blocks().__getitem__)


def _relation(m: Model, a) -> tuple:
    """Agent `a`'s cell of each state, by bit, if `m` has that agent."""
    try:
        return m._cell_at[a]
    except (KeyError, TypeError):  # not a name, or not the model's
        raise ModelError("unknown agent %r" % (a,)) from None


def _state_bit(m: Model, w) -> int:
    """The bit of state `w` in `m`'s masks."""
    try:
        return m._frame.index[w]
    except (KeyError, TypeError):
        raise ModelError("unknown state %r" % (w,)) from None


def dep_closure(m: Model, agent: str, state: str) -> frozenset:
    """cl_a(w): union of definability blocks meeting the cell of w under a."""
    _relation(m, agent)
    return m._names(m._closure_at(agent)[_state_bit(m, state)])


def dep_partition(m: Model, agent: str, state: str) -> tuple:
    """The dependence relation at `state` as a tuple of classes: cl_a(w) is
    one class, and every block outside it stays its own class."""
    _relation(m, agent)
    cl = m._closure_at(agent)[_state_bit(m, state)]
    blocks = m._blocks()
    # cl is a union of blocks, so it takes the place of its first block
    return m._classes(lambda i: cl if cl >> i & 1 else blocks[i])


# ---------------------------------------------------------------------------
# serialization


_REQUIRED_KEYS = ("states", "agents", "atoms", "relations", "valuation")
_ALLOWED_KEYS = _REQUIRED_KEYS + ("ideal", "point")


def _check_pair(p, label) -> None:
    if not (isinstance(p, (list, tuple)) and len(p) == 2
            and all(isinstance(s, str) for s in p)):
        raise ModelError("%s: pairs must be 2-element lists of state ids"
                         % label)


def _closure_cells(states, pairs, label):
    if not isinstance(pairs, list):
        raise ModelError("%s must be a list of pairs" % label)
    parent = {s: s for s in states}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in pairs:
        _check_pair(p, label)
        u, v = p
        for s in (u, v):
            if s not in parent:
                raise ModelError("%s: unknown state %r" % (label, s))
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    cells = {}
    for s in states:
        cells.setdefault(find(s), set()).add(s)
    return tuple(frozenset(c) for c in cells.values())


def load(text) -> Model:
    """Read a model from JSON text or UTF-8 bytes.

    Relation pair lists are closed under reflexivity, symmetry, and
    transitivity.  Ideal pairs are closed under symmetry.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        data = json.loads(text)
    except (TypeError, UnicodeDecodeError, json.JSONDecodeError,
            RecursionError) as e:  # nesting past the recursion limit
        raise ModelError("invalid JSON: %s" % e) from None
    if not isinstance(data, dict):
        raise ModelError("model file must be a JSON object")
    unknown = sorted(set(data) - set(_ALLOWED_KEYS))
    if unknown:
        raise ModelError("unknown keys %r" % unknown)
    for key in _REQUIRED_KEYS:
        if key not in data:
            raise ModelError("missing key %r" % key)
    for key in ("states", "agents", "atoms"):
        if not isinstance(data[key], list):
            raise ModelError("%s must be a list" % key)
    states = data["states"]
    if not all(isinstance(s, str) for s in states):
        raise ModelError("state ids must be strings")
    relations = data["relations"]
    if not isinstance(relations, dict):
        raise ModelError("relations must be an object")
    rel = {a: _closure_cells(states, pairs, "relations[%s]" % a)
           for a, pairs in relations.items()}
    valuation = data["valuation"]
    if not isinstance(valuation, dict):
        raise ModelError("valuation must be an object")
    for s, atoms in valuation.items():  # Model checks the states
        if not isinstance(atoms, list):
            raise ModelError("valuation[%s] must be a list of atoms" % s)
    ideal = None
    if "ideal" in data:
        raw = data["ideal"]
        if not isinstance(raw, list) or not raw:
            raise ModelError("ideal must be a non-empty list of pairs")
        ideal = []
        for p in raw:
            _check_pair(p, "ideal")
            ideal.append(frozenset(p))
    return Model(states, data["agents"], data["atoms"], rel, valuation,
                 ideal, data.get("point"))


def save(m: Model) -> bytes:
    """Serialize deterministically; `load(save(m))` equals `m`.

    Relation pair lists are written as the full closure, loops included.
    """
    states, index = m.states, m._frame.index

    def pairs(masks, once=False):
        # each state in order with every state of its mask, in order; with
        # `once`, only those not before it, so a symmetric pair comes once
        return [[s, t] for k, s in enumerate(states)
                for t in states[k if once else 0:]
                if masks[index[s]] >> index[t] & 1]

    data = {
        "states": list(states),
        "agents": list(m.agents),
        "atoms": list(m.atoms),
        "relations": {a: pairs(m._cell_at[a]) for a in m.agents},
        "valuation": {s: sorted(m.val[s]) for s in states},
    }
    if m.ideal is not None:
        data["ideal"] = pairs(m._frame.partners, once=True)
    if m.point is not None:
        data["point"] = m.point
    return (json.dumps(data, indent=2) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# canonical fingerprints


def _rank(keys: list) -> list:
    """Colour each state by the rank of its key among the sorted keys."""
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [rank[key] for key in keys]


def _refine(m: Model, color: list) -> list:
    """Split colour classes by the colours each agent's cell meets and the
    colours of the ideal partners until none splits.  Colours are listed
    by bit, ranked so that `fingerprint` can compare them."""
    groups = [_members(c) for a in sorted(m.agents)
              for c in dict.fromkeys(m._cell_at[a])]
    partners = [_members(p) for p in m._frame.partners]
    while True:
        sigs = [[c] for c in color]
        for states in groups:
            met = tuple(sorted({color[i] for i in states}))
            for i in states:
                sigs[i].append(met)
        for sig, states in zip(sigs, partners):
            sig.append(tuple(sorted({color[i] for i in states})))
        # a signature starts with the colour, so classes only split, and
        # an unchanged colouring is stable
        new = _rank([tuple(sig) for sig in sigs])
        if new == color:
            return color
        color = new


def _canonical_bytes(m: Model, point: int, color: list) -> bytes:
    color = _refine(m, color)
    classes = {}
    for i, c in enumerate(color):
        classes.setdefault(c, []).append(i)
    ambiguous = [c for c, members in sorted(classes.items())
                 if len(members) > 1]
    if ambiguous:
        fresh = max(color) + 1
        best = None
        for i in classes[ambiguous[0]]:
            branched = list(color)
            branched[i] = fresh
            cand = _canonical_bytes(m, point, branched)
            if best is None or cand < best:
                best = cand
        return best
    # colors are all distinct: read off the canonical ordering
    rank = [0] * len(color)
    for r, i in enumerate(sorted(range(len(color)), key=color.__getitem__)):
        rank[i] = r
    index = m._frame.index
    data = {
        "n": len(m.states),
        "atoms": {p: sorted(rank[i] for i in _members(m._frame.val.get(p, 0)))
                  for p in sorted(m.atoms)},
        "agents": {a: sorted(sorted(rank[i] for i in _members(c))
                             for c in dict.fromkeys(m._cell_at[a]))
                   for a in sorted(m.agents)},
        "ideal": None if m.ideal is None else
                 sorted(sorted(rank[index[s]] for s in pair)
                        for pair in m.ideal),
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
    base = _rank([(s == pm.point, tuple(sorted(m.val[s])))
                  for s in m._frame.names])
    # the stored default point is presentation metadata, not structure
    return _canonical_bytes(m, m._frame.index[pm.point], base)
