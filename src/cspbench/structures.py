"""Finite relational structures with constants.

Elements of an n-element structure are the dense integers 0..n-1; relation
tuples are fixed-length integer tuples.  Products, powers and one-tolerant
powers encode element tuples in row-major order: the k-tuple
(t_0, ..., t_{k-1}) over a domain of size n is the element

    t_0 * n**(k-1) + t_1 * n**(k-2) + ... + t_{k-1}

so that ``power(a, k)`` coincides with the k-fold iterated binary product
and every certificate derived from a power is reproducible bit for bit.
Powers are built by that arithmetic, level by level: each tuple of
level j + 1 is a tuple of level j times n plus one base row, position by
position, as in (x*n + u, y*n + v) for a binary relation.  A one-tolerant
power joins the encoded rows before and after its free row the same way.

Homomorphism search is backtracking over source elements in ascending
order, trying target values in ascending order.  The first map found is
therefore the lexicographically least homomorphism, and enumeration yields
maps in lexicographic order.  Assigning source element x checks every
source tuple containing x against the target: the projection of the tuple
onto its already assigned positions must lie in the projection of the
target relation onto the same positions, so a fully assigned tuple must be
a target tuple and a partly assigned one must extend to one.

A search first compiles a plan in one pass over the source tuples.  A
tuple t checks nothing more once its greatest element is assigned, so it
gives at most one check per distinct element: its least element may only
take values v whose constant tuple (v, ..., v) lies in the target
projection onto its positions, which the target keeps; its greatest
element looks t up in the target relation; and each element in between
(arity 3 and up) looks up the projection of t onto the positions
assigned so far, once per distinct projection.  The loop then walks the
search tree with an explicit stack, so its depth is not bounded by the
recursion limit.  An image question (which tuples the homomorphisms
send some elements to) is one search that resumes after each map at the
last of those elements, numbered first (_images).

Every value a search assigns is one step against a budget (default
5_000_000, one per search or image question); beyond it the search
raises BudgetExceededError.  Values that the plan or a pin rules out are
never tried, so never counted.  An enumeration also fails when it finds
a map while the maps it keeps hold more than budget entries.

canonical_form gives a key that is equal for two structures exactly when
they are isomorphic: the lex-least (relation bitmasks, constant elements)
tuple over a set of relabellings that isomorphic structures share.  Up to
3 elements that set is every permutation.  Beyond, colour refinement
splits the domain by the relations, positions and colours each element
occurs with, iterated to stability; each member of the first cell left
with two or more elements is individualized in turn and the colours
refined again, and the discrete colourings at the leaves of that tree are
the relabellings.  More than 8! leaves raise BudgetExceededError.

Structure file format (JSON, strict -- unknown fields are rejected)::

    {
      "signature": {"relations": {"E": 2}, "constants": ["c0"]},
      "domain": 2,
      "relations": {"E": [[0, 1], [1, 0]]},
      "constants": {"c0": 0}
    }

"domain" is the number n of elements; every relation listed in the
signature must appear under "relations" (possibly with an empty tuple
list) and every constant under "constants".
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from operator import itemgetter

DEFAULT_BUDGET = 5_000_000

# canonical_form tries every relabelling of structures with at most this
# many elements (at most 3! = 6 of them), which is faster there than
# refinement; larger structures are canonized by individualization and
# refinement, which visits at most 8! leaves, as many as exhaustive
# relabelling tries at 8 elements.
_EXHAUSTIVE_DOMAIN = 3
_MAX_LEAVES = 40_320


def is_int(v) -> bool:
    """An int proper: JSON true/false load as bools, which Python counts as
    ints, and are rejected wherever a number is expected."""
    return type(v) is int


class BudgetExceededError(RuntimeError):
    """A search or construction exceeded its candidate-assignment budget."""


def budget_meter(budget: int, message: str):
    """A step function: each call counts one step, and the call beyond
    budget raises BudgetExceededError(message)."""
    steps = itertools.count(1)

    def step():
        if next(steps) > budget:
            raise BudgetExceededError(message)

    return step


class SignatureMismatchError(ValueError):
    """Two structures that must share a signature do not."""


@dataclass(frozen=True)
class Signature:
    """Relation symbols with arities, plus constant symbols.

    Stored sorted by name so that equal signatures compare equal regardless
    of construction order.
    """

    relations: tuple[tuple[str, int], ...]
    constants: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "relations", tuple(sorted(self.relations)))
        object.__setattr__(self, "constants", tuple(sorted(self.constants)))
        names = [r for r, _ in self.relations] + list(self.constants)
        if len(set(names)) != len(names):
            raise ValueError("symbol names must be unique across relations and constants")
        for r, ar in self.relations:
            if not is_int(ar) or ar < 1:
                raise ValueError(f"relation {r!r} must have arity >= 1, got {ar!r}")

    @staticmethod
    def make(relations=None, constants=()) -> "Signature":
        return Signature(tuple((relations or {}).items()), tuple(constants))

    def arity(self, name: str) -> int:
        for r, ar in self.relations:
            if r == name:
                return ar
        raise KeyError(f"unknown relation symbol {name!r}")

    @property
    def relation_names(self):
        return tuple(r for r, _ in self.relations)

    def relational_part(self) -> "Signature":
        return Signature(self.relations, ())


class FiniteStructure:
    """A finite relational structure over a Signature.

    Treated as immutable after construction; all operations in this package
    return new structures.  Equality and hashing ignore the optional name
    and the caches (canonical form, relation projections).
    """

    __slots__ = ("sig", "n", "rel", "const", "name", "_canon", "_projections")

    def __init__(self, sig: Signature, n: int, relations=None, constants=None, name=None):
        if not is_int(n) or n < 1:
            raise ValueError(f"domain size must be a positive integer, got {n!r}")
        relations = dict(relations or {})
        constants = dict(constants or {})
        rel = {}
        for rname, ar in sig.relations:
            tuples = frozenset(tuple(t) for t in relations.pop(rname, ()))
            for t in tuples:
                if len(t) != ar:
                    raise ValueError(f"tuple {t} has wrong length for {rname} (arity {ar})")
                if not all(type(v) is int and 0 <= v < n for v in t):
                    raise ValueError(f"tuple {t} of {rname} out of domain 0..{n - 1}")
            rel[rname] = tuples
        if relations:
            raise ValueError(f"relations not in signature: {sorted(relations)}")
        const = {}
        for cname in sig.constants:
            if cname not in constants:
                raise ValueError(f"missing interpretation for constant {cname!r}")
            v = constants.pop(cname)
            if not is_int(v) or not 0 <= v < n:
                raise ValueError(f"constant {cname!r} value {v!r} out of domain")
            const[cname] = v
        if constants:
            raise ValueError(f"constants not in signature: {sorted(constants)}")
        self.sig = sig
        self.n = n
        self.rel = rel
        self.const = const
        self.name = name
        self._canon = None
        self._projections = None

    @classmethod
    def _from_checked(cls, sig: Signature, n: int, rel: dict, const: dict) -> "FiniteStructure":
        """A structure built without re-checking its parts, for callers that
        derive them from a checked structure: rel maps each relation of sig
        to a frozenset of tuples of the right length over range(n), and
        const each constant to an element."""
        s = cls.__new__(cls)
        s.sig, s.n, s.rel, s.const, s.name = sig, n, rel, const, None
        s._canon = s._projections = None
        return s

    def _projection(self, rname: str, positions: tuple):
        """(tuples of rname projected onto positions, values v whose constant
        tuple (v, ..., v) is in that projection); computed once and kept."""
        cache = self._projections
        if cache is None:
            cache = self._projections = {}
        entry = cache.get((rname, positions))
        if entry is None:
            tuples = self.rel[rname]
            if positions != tuple(range(self.sig.arity(rname))):
                tuples = frozenset(tuple(t[p] for p in positions) for t in tuples)
            diagonal = frozenset(t[0] for t in tuples if t.count(t[0]) == len(t))
            entry = cache[(rname, positions)] = (tuples, diagonal)
        return entry

    def total_tuples(self) -> int:
        return sum(len(ts) for ts in self.rel.values())

    def key(self):
        return (
            self.sig,
            self.n,
            tuple((r, tuple(sorted(self.rel[r]))) for r, _ in self.sig.relations),
            tuple(sorted(self.const.items())),
        )

    def __eq__(self, other):
        return isinstance(other, FiniteStructure) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        label = self.name or "structure"
        return f"<{label}: n={self.n}, {self.total_tuples()} tuples>"

    def relational_reduct(self) -> "FiniteStructure":
        return FiniteStructure(self.sig.relational_part(), self.n, self.rel, {}, self.name)

    # -- JSON structure file format (shared; owned here) --

    def to_json_dict(self) -> dict:
        return {
            "signature": {
                "relations": {r: ar for r, ar in self.sig.relations},
                "constants": list(self.sig.constants),
            },
            "domain": self.n,
            "relations": {r: sorted(list(t) for t in self.rel[r]) for r, _ in self.sig.relations},
            "constants": dict(sorted(self.const.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json_dict(doc: dict, name=None) -> "FiniteStructure":
        if not isinstance(doc, dict):
            raise ValueError("structure document must be a JSON object")
        extra = set(doc) - {"signature", "domain", "relations", "constants"}
        if extra:
            raise ValueError(f"unknown fields in structure document: {sorted(extra)}")
        for field in ("signature", "domain", "relations", "constants"):
            if field not in doc:
                raise ValueError(f"structure document missing field {field!r}")
        sig_doc = doc["signature"]
        if not isinstance(sig_doc, dict) or set(sig_doc) != {"relations", "constants"}:
            raise ValueError('"signature" must be an object with exactly "relations" and "constants"')
        if not isinstance(sig_doc["relations"], dict):
            raise ValueError('"signature"."relations" must be an object of relation arities')
        sig_consts = sig_doc["constants"]
        if not isinstance(sig_consts, list) or not all(isinstance(c, str) for c in sig_consts):
            raise ValueError('"signature"."constants" must be a list of constant names')
        relations = doc["relations"]
        if not isinstance(relations, dict):
            raise ValueError('"relations" must be an object of tuple lists')
        for rname, tuples in relations.items():
            if not isinstance(tuples, list) or not all(isinstance(t, list) for t in tuples):
                raise ValueError(f'"relations"."{rname}" must be a list of tuples (lists)')
        if not isinstance(doc["constants"], dict):
            raise ValueError('"constants" must be an object of constant values')
        sig = Signature.make(sig_doc["relations"], sig_consts)
        return FiniteStructure(sig, doc["domain"], relations, doc["constants"], name)

    @staticmethod
    def from_json(text: str, name=None) -> "FiniteStructure":
        return FiniteStructure.from_json_dict(json.loads(text), name)


@dataclass(frozen=True)
class Homomorphism:
    """A verified-checkable map between structures with equal signature."""

    source: FiniteStructure
    target: FiniteStructure
    map: tuple[int, ...]

    def verify(self) -> bool:
        """Exhaustively check preservation of every tuple and constant."""
        a, b, h = self.source, self.target, self.map
        if a.sig != b.sig or len(h) != a.n:
            return False
        if not all(0 <= v < b.n for v in h):
            return False
        for rname, _ in a.sig.relations:
            bt = b.rel[rname]
            for t in a.rel[rname]:
                if tuple(h[x] for x in t) not in bt:
                    return False
        return all(h[a.const[c]] == b.const[c] for c in a.const)


def encode_tuple(t, n: int) -> int:
    """Row-major encoding of a tuple over domain 0..n-1."""
    idx = 0
    for v in t:
        idx = idx * n + v
    return idx


def _shifted_sums(heads, tails, scale: int, ar: int) -> list:
    """Every tuple h * scale + t, position by position, for h in heads and
    t in tails (tuples of length ar)."""
    if ar == 1:
        return [(x * scale + u,) for (x,) in heads for (u,) in tails]
    if ar == 2:
        return [(x * scale + u, y * scale + v) for x, y in heads for u, v in tails]
    return [tuple([x * scale + u for x, u in zip(h, t)]) for h in heads for t in tails]


def product(a: FiniteStructure, b: FiniteStructure, budget: int = DEFAULT_BUDGET) -> FiniteStructure:
    """Direct (categorical) product; pair (i, j) is element i*|B| + j."""
    if a.sig != b.sig:
        raise SignatureMismatchError("product requires equal signatures")
    rels = {}
    for rname, ar in a.sig.relations:
        size = len(a.rel[rname]) * len(b.rel[rname])
        if size > budget:
            raise BudgetExceededError(f"product relation {rname} of {size} tuples "
                                      f"exceeds budget {budget}")
        rels[rname] = frozenset(_shifted_sums(a.rel[rname], b.rel[rname], b.n, ar))
    consts = {c: a.const[c] * b.n + b.const[c] for c in a.const}
    return FiniteStructure._from_checked(a.sig, a.n * b.n, rels, consts)


def power(a: FiniteStructure, k: int, budget: int = DEFAULT_BUDGET) -> FiniteStructure:
    """k-fold power with row-major tuple encoding; power(a, 1) equals a."""
    if not is_int(k) or k < 1:
        raise ValueError("power exponent must be a positive integer")
    if a.n ** k > budget:
        raise BudgetExceededError(f"power domain size {a.n}^{k} exceeds budget {budget}")
    rels = {}
    for rname, ar in a.sig.relations:
        base = sorted(a.rel[rname])
        if len(base) ** k > budget:
            raise BudgetExceededError(f"power relation {rname} of {len(base)}^{k} tuples "
                                      f"exceeds budget {budget}")
        level = [(0,) * ar]
        for _ in range(k):
            level = _shifted_sums(level, base, a.n, ar)
        rels[rname] = frozenset(level)
    consts = {c: encode_tuple((v,) * k, a.n) for c, v in a.const.items()}
    return FiniteStructure._from_checked(a.sig, a.n ** k, rels, consts)


def one_tolerant_power(a: FiniteStructure, k: int, budget: int = DEFAULT_BUDGET) -> FiniteStructure:
    """k-th power where a relation tuple may fail in at most one coordinate.

    A tuple of encoded elements is in R iff its coordinate projections lie
    in R^a for at least k-1 of the k coordinates.  Constants (when present)
    are interpreted as diagonal tuples, matching power().
    """
    if not is_int(k) or k < 3:
        raise ValueError("one-tolerant power requires exponent >= 3")
    if a.n ** k > budget:
        raise BudgetExceededError(f"one-tolerant power domain size {a.n}^{k} exceeds budget")
    n = a.n
    rels = {}
    for rname, ar in a.sig.relations:
        base = sorted(a.rel[rname])
        work = len(base) ** k + k * (len(base) ** (k - 1)) * (n ** ar)
        if work > budget:
            raise BudgetExceededError(f"one-tolerant power relation {rname}: work {work} "
                                      f"exceeds budget {budget}")
        levels = [[(0,) * ar]]
        for _ in range(k - 1):
            levels.append(_shifted_sums(levels[-1], base, n, ar))
        free = list(itertools.product(range(n), repeat=ar))
        out = set()
        # coordinate j free: j base rows, any row, then k - 1 - j base rows;
        # the tuples with every coordinate in R^a are among them
        for j in range(k):
            heads = _shifted_sums(levels[j], free, n, ar)
            out.update(_shifted_sums(heads, levels[k - 1 - j], n ** (k - 1 - j), ar))
        rels[rname] = frozenset(out)
    consts = {c: encode_tuple((v,) * k, n) for c, v in a.const.items()}
    return FiniteStructure._from_checked(a.sig, n ** k, rels, consts)


def _compile_plan(a, b):
    """(values, checks) per source element x: the values x may take,
    ascending, and the (getter, support) checks run when x is assigned,
    which pass when getter(h) is in support.  A tuple t gives x at most one
    check, on the positions p with t[p] <= x, as the module docstring
    describes; checks that every target assignment passes are left out.
    None when some relation is nonempty in a but empty in b, so that no
    homomorphism exists."""
    allowed = [None] * a.n
    checks = [[] for _ in range(a.n)]
    for rname, ar in a.sig.relations:
        tuples = a.rel[rname]
        if not tuples:
            continue
        target = b.rel[rname]
        if not target:
            return None
        partial = len(target) < b.n ** ar  # whole-tuple checks can fail
        projections = {}  # positions -> (support, diagonal) of b's rname
        seen = set()  # (x, t masked beyond x) of the checks on middle elements
        everywhere = tuple(range(ar))
        for t in tuples:
            low, top = min(t), max(t)
            if low == top:
                positions = everywhere
            elif ar == 2:
                positions = (0,) if t[0] == low else (1,)
            else:
                positions = tuple([p for p, e in enumerate(t) if e == low])
            entry = projections.get(positions)
            if entry is None:
                entry = projections[positions] = b._projection(rname, positions)
            diagonal = entry[1]
            if len(diagonal) < b.n:
                allowed[low] = diagonal if allowed[low] is None else allowed[low] & diagonal
            if top == low:
                continue
            if partial:
                checks[top].append((itemgetter(*t), target))
            if ar < 3:
                continue
            for x in set(t):
                if x == low or x == top:
                    continue
                masked = tuple([e if e <= x else -1 for e in t])
                if (x, masked) in seen:
                    continue
                seen.add((x, masked))
                positions = tuple([p for p, e in enumerate(t) if e <= x])
                entry = projections.get(positions)
                if entry is None:
                    entry = projections[positions] = b._projection(rname, positions)
                if len(entry[0]) < b.n ** len(positions):
                    checks[x].append((itemgetter(*[t[p] for p in positions]), entry[0]))
    every = tuple(range(b.n))  # shared by unrestricted elements
    values = [every if ok is None else tuple(sorted(ok)) for ok in allowed]
    return values, [tuple(c) for c in checks]


def _hom_maps(a, b, pinned=None, budget: int = DEFAULT_BUDGET, prefix=None):
    """Yield homomorphism maps a -> b in lexicographic order, by
    backtracking; pinned forces values (constants are pinned too).  After a
    map the search resumes at element prefix - 1, yielding the least map
    extending each assignment of the elements below prefix: prefix=0 the
    least map, the default a.n every map.  The budget counts values assigned."""
    if a.sig != b.sig:
        raise SignatureMismatchError("homomorphism search requires equal signatures")
    pin = {}
    for c, va in a.const.items():
        if pin.setdefault(va, b.const[c]) != b.const[c]:
            return
    for x, v in (pinned or {}).items():
        if not (0 <= x < a.n and 0 <= v < b.n):
            raise ValueError(f"pin {x}->{v} out of range")
        if pin.setdefault(x, v) != v:
            return
    plan = _compile_plan(a, b)
    if plan is None:
        return
    values, checks = plan
    if pin:
        values = list(values)
        for x, v in pin.items():
            values[x] = (v,) if v in values[x] else ()

    n = a.n
    resume = n - 1 if prefix is None else prefix - 1
    h = [0] * n
    nxt = [0] * n  # index of the next value to try, per level
    steps = 0
    x = 0
    while True:
        vs, chk = values[x], checks[x]
        i = nxt[x]
        while i < len(vs):
            steps += 1
            if steps > budget:
                raise BudgetExceededError(
                    f"homomorphism search exceeded budget of {budget} candidate assignments")
            h[x] = vs[i]
            i += 1
            for getter, support in chk:
                if getter(h) not in support:
                    break
            else:
                break  # every check passed
        else:  # no value left at this level
            if x == 0:
                return
            x -= 1
            continue
        nxt[x] = i
        if x + 1 < n:
            x += 1
            nxt[x] = 0
            continue
        yield tuple(h)
        if resume < 0:
            return
        x = resume


def find_homomorphism(a, b, pinned=None, budget: int = DEFAULT_BUDGET):
    """Lexicographically least homomorphism a -> b, or None."""
    m = next(_hom_maps(a, b, pinned, budget, prefix=0), None)
    return None if m is None else Homomorphism(a, b, m)


def enumerate_homomorphisms(a, b, pinned=None, budget: int = DEFAULT_BUDGET):
    """All homomorphisms a -> b in lexicographic (canonical) order."""
    out = []
    for m in _hom_maps(a, b, pinned, budget):
        if len(out) * a.n > budget:
            raise BudgetExceededError(
                f"homomorphism search holds {len(out)} maps of {a.n} entries each, "
                f"more than the budget of {budget} entries")
        out.append(Homomorphism(a, b, m))
    return out


def _images(source, target, elements, budget: int = DEFAULT_BUDGET):
    """Yield (image, least) for each tuple image, in lexicographic order, that
    a homomorphism source -> target sends elements to; least() maps the least
    such map back, on request only.  One search: the source is relabelled with
    the distinct elements first, in order of first occurrence, the rest
    ascending, so each image's first completion is the least map with it."""
    head = list(dict.fromkeys(elements))
    label = [0] * source.n
    for new, old in enumerate(head + [x for x in range(source.n) if x not in head]):
        label[old] = new
    rel = {r: frozenset(zip(*[map(label.__getitem__, col) for col in zip(*ts)]))  # by columns
           for r, ts in source.rel.items()}
    relabelled = FiniteStructure._from_checked(source.sig, source.n, rel,
                                               {c: label[x] for c, x in source.const.items()})
    at = [label[x] for x in elements]
    for m in _hom_maps(relabelled, target, None, budget, prefix=len(head)):
        yield tuple([m[x] for x in at]), lambda m=m: tuple([m[x] for x in label])


def _refine(occurrences, colour, k):
    """Colour refinement to stability.  colour is a dense ranking 0..k-1 of
    the elements; an element's next colour ranks (its colour, the sorted
    list of (position, relation, equality pattern, colours of the tuple)
    over the tuples it occurs in).  Returns the stable (colour, k)."""
    n = len(colour)
    while k < n:
        signatures = [
            (colour[v], tuple(sorted([(p, r, pattern, tuple([colour[u] for u in t]))
                                      for p, r, pattern, t in occ])))
            for v, occ in enumerate(occurrences)
        ]
        ranks = {s: i for i, s in enumerate(sorted(set(signatures)))}
        if len(ranks) == k:
            break
        colour = [ranks[s] for s in signatures]
        k = len(ranks)
    return colour, k


def _refinement_leaves(a: FiniteStructure):
    """The labellings at the leaves of the individualization-refinement
    tree of a: refine the colouring by constants to stability, then
    individualize each member of the first cell of two or more elements
    in turn (it takes the cell's least colour, the rest of the cell the
    next) and refine again, until every cell is a singleton.  Every step
    depends on a only up to isomorphism, so isomorphic structures have
    the same set of relabelled structures at their leaves."""
    n = a.n
    occurrences = [[] for _ in range(n)]
    for r, (rname, _) in enumerate(a.sig.relations):
        for t in a.rel[rname]:
            pattern = tuple([t.index(u) for u in t])
            for p, v in enumerate(t):
                occurrences[v].append((p, r, pattern, t))
    names = [tuple([i for i, c in enumerate(a.sig.constants) if a.const[c] == v])
             for v in range(n)]
    ranks = {s: i for i, s in enumerate(sorted(set(names)))}
    stack = [([ranks[s] for s in names], len(ranks))]
    leaves = 0
    while stack:
        colour, k = _refine(occurrences, *stack.pop())
        if k == n:
            leaves += 1
            if leaves > _MAX_LEAVES:
                raise BudgetExceededError(
                    f"canonical form exceeds {_MAX_LEAVES} leaves of individualization-refinement")
            yield colour
            continue
        cell = min(c for c in range(k) if colour.count(c) > 1)
        for v in reversed([v for v in range(n) if colour[v] == cell]):
            child = [c + (c >= cell) for c in colour]
            child[v] = cell
            stack.append((child, k + 1))


def canonical_form(a: FiniteStructure):
    """Canonical key; equal iff isomorphic.

    (signature, n, the lex-least tuple of relation bitmasks over row-major
    tuple indices and constant elements over the relabellings): every
    permutation up to _EXHAUSTIVE_DOMAIN elements, beyond that the leaves
    of individualization-refinement (McKay and Piperno, "Practical graph
    isomorphism, II", J. Symb. Comp. 2014) without automorphism pruning;
    more than _MAX_LEAVES leaves raise BudgetExceededError.
    """
    if a._canon is not None:
        return a._canon
    n = a.n
    rel_tuples = [tuple(a.rel[r]) for r, _ in a.sig.relations]
    const_elems = tuple(a.const[c] for c in a.sig.constants)
    if n <= _EXHAUSTIVE_DOMAIN:
        labellings = itertools.permutations(range(n))
    else:
        labellings = _refinement_leaves(a)
    best = None
    for perm in labellings:
        key = []
        for tuples in rel_tuples:
            mask = 0
            for t in tuples:
                idx = 0
                for v in t:
                    idx = idx * n + perm[v]
                mask |= 1 << idx
            key.append(mask)
        key.append(tuple(perm[v] for v in const_elems))
        key = tuple(key)
        if best is None or key < best:
            best = key
    a._canon = (a.sig, a.n, best)
    return a._canon


def is_isomorphic(a: FiniteStructure, b: FiniteStructure) -> bool:
    if a.sig != b.sig or a.n != b.n:
        return False
    if any(len(a.rel[r]) != len(b.rel[r]) for r, _ in a.sig.relations):
        return False
    return canonical_form(a) == canonical_form(b)
