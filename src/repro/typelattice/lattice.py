"""The instantiated type lattice and its partial order.

A :class:`Lattice` holds a *finite* set of type instances (templates
instantiated at the size parameters that actually occurred during fault
injection) and provides the subtype relation as the reflexive-transitive
closure of the direct rules — the concrete form of the paper's
``(T, <=)``.

The closure is computed once, as one int bitmask of strict supertypes
per instance index (bit ``j`` of ``mask[i]`` set iff instance ``j`` is
reachable from instance ``i`` along direct-rule edges), so a subtype
query is one bit test and the robust-type search can intersect whole
supertype sets with ``&``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from repro.typelattice import registry
from repro.typelattice.instances import TypeInstance
from repro.typelattice.rules import DIRECT_RULES

#: Templates that take a size parameter.
PARAMETERIZED_TEMPLATES = {
    "RONLY_FIXED": True,
    "RW_FIXED": True,
    "WONLY_FIXED": True,
    "R_ARRAY": False,
    "W_ARRAY": False,
    "RW_ARRAY": False,
    "R_ARRAY_NULL": False,
    "W_ARRAY_NULL": False,
    "RW_ARRAY_NULL": False,
}

#: Every non-parameterized instance in the registry.
_FIXED_INSTANCES: tuple[TypeInstance, ...] = (
    registry.NULL,
    registry.INVALID,
    registry.UNCONSTRAINED,
    registry.RONLY_FILE,
    registry.RW_FILE,
    registry.WONLY_FILE,
    registry.CORRUPT_FILE,
    registry.STALE_FILE,
    registry.R_FILE,
    registry.W_FILE,
    registry.OPEN_FILE,
    registry.OPEN_FILE_NULL,
    registry.OPEN_DIR,
    registry.CORRUPT_DIR,
    registry.STALE_DIR,
    registry.OPEN_DIR_NULL,
    registry.STRING_RO,
    registry.STRING_RW,
    registry.VALID_MODE,
    registry.VALID_FORMAT,
    registry.CSTRING,
    registry.CSTRING_NULL,
    registry.WRITABLE_STRING,
    registry.WRITABLE_STRING_NULL,
    registry.MODE_STRING,
    registry.FORMAT_STRING,
    registry.FD_RONLY,
    registry.FD_RW,
    registry.FD_WONLY,
    registry.FD_CLOSED,
    registry.FD_NEGATIVE,
    registry.FD_HUGE,
    registry.READABLE_FD,
    registry.WRITABLE_FD,
    registry.OPEN_FD,
    registry.ANY_FD,
    registry.INT_BIG_NEG,
    registry.INT_SMALL_NEG,
    registry.INT_ZERO,
    registry.INT_SMALL_POS,
    registry.INT_BIG_POS,
    registry.CHAR_RANGE,
    registry.INT_NONNEG,
    registry.INT_NONPOS,
    registry.ANY_INT,
    registry.SIZE_ZERO,
    registry.SIZE_SMALL,
    registry.SIZE_HUGE,
    registry.REASONABLE_SIZE,
    registry.ANY_SIZE,
    registry.REAL_NEG,
    registry.REAL_ZERO,
    registry.REAL_POS,
    registry.REAL_NAN,
    registry.REAL_INF,
    registry.FINITE_REAL,
    registry.ANY_REAL,
    registry.VALID_FUNCPTR,
    registry.FUNCPTR,
    registry.FUNCPTR_NULL,
)


def build_instances(size_pool: Iterable[int]) -> list[TypeInstance]:
    """All registry instances, with parameterized templates
    instantiated at every size in ``size_pool``.

    The pool normally contains the buffer sizes observed during fault
    injection for one argument; the lattice over these instances is
    what the robust-type computation searches.
    """
    sizes = sorted(set(size_pool))
    instances: list[TypeInstance] = list(_FIXED_INSTANCES)
    instances.extend(registry.EXTENSION_INSTANCES)
    for name, fundamental in PARAMETERIZED_TEMPLATES.items():
        for size in sizes:
            instances.append(
                TypeInstance(name, size, fundamental=fundamental, family="ptr")
            )
    return instances


#: Memo for :meth:`Lattice.for_sizes`; bounded so pathological size
#: diversity cannot grow memory without limit.
_LATTICE_CACHE: dict[tuple, "Lattice"] = {}
_LATTICE_CACHE_LIMIT = 64


class Lattice:
    """Finite instantiation of ``(T, <=)`` with precomputed closure."""

    def __init__(self, instances: Iterable[TypeInstance]) -> None:
        self.instances: list[TypeInstance] = list(dict.fromkeys(instances))
        self._index: dict[TypeInstance, int] = {
            t: i for i, t in enumerate(self.instances)
        }
        #: Every instance's bit set (the identity for AND).
        self.full_mask = (1 << len(self.instances)) - 1
        #: ``_strict_up[i]``: mask of the strict supertypes of instance i.
        self._strict_up = _close(_direct_edges(self.instances))

    @classmethod
    def for_sizes(cls, size_pool: Iterable[int]) -> "Lattice":
        """Memoized constructor.

        A lattice is a pure function of the observed sizes, the
        registered extension instances, and the direct-rule table;
        consecutive injector runs overwhelmingly share size pools, so
        one campaign would otherwise build dozens of identical
        transitive closures.  The key captures every input that can
        change (extensibility tests register/unregister instances and
        rules at runtime), and the cache is bounded.  The key holds the
        rule objects themselves, not their ids: a replaced rule that
        was freed could hand its id to its replacement.
        """
        sizes = tuple(sorted(set(size_pool)))
        key = (
            sizes,
            tuple(registry.EXTENSION_INSTANCES),
            tuple(sorted(DIRECT_RULES.items())),
        )
        cached = _LATTICE_CACHE.get(key)
        if cached is None:
            if len(_LATTICE_CACHE) >= _LATTICE_CACHE_LIMIT:
                _LATTICE_CACHE.clear()
            cached = cls(build_instances(sizes))
            _LATTICE_CACHE[key] = cached
        return cached

    # -- order queries ---------------------------------------------------
    def is_subtype(self, sub: TypeInstance, sup: TypeInstance) -> bool:
        """Non-strict: ``sub <= sup``."""
        return sub == sup or self.is_strict_subtype(sub, sup)

    def is_strict_subtype(self, sub: TypeInstance, sup: TypeInstance) -> bool:
        j = self._index.get(sup)
        return j is not None and self._strict_up_of(sub) >> j & 1 == 1

    def supertypes(self, instance: TypeInstance) -> frozenset[TypeInstance]:
        """All strict supertypes of ``instance`` within the lattice."""
        return frozenset(self.instances_in(self._strict_up_of(instance)))

    def subtypes(self, instance: TypeInstance) -> frozenset[TypeInstance]:
        j = self._index.get(instance)
        if j is None:
            return frozenset()
        return frozenset(
            t for t, up in zip(self.instances, self._strict_up) if up >> j & 1
        )

    def contains(self, instance: TypeInstance) -> bool:
        return instance in self._index

    def fundamentals(self) -> list[TypeInstance]:
        return [t for t in self.instances if t.fundamental]

    def unified(self) -> list[TypeInstance]:
        return [t for t in self.instances if not t.fundamental]

    def weakest(self, candidates: Iterable[TypeInstance]) -> list[TypeInstance]:
        """Maximal elements (weakest = largest value sets) among
        ``candidates``; on a cycle, its whole equivalence class (see
        :meth:`beaten_at`)."""
        pool = list(candidates)
        pool_mask = self.mask_of(pool)
        return [
            t for t in pool
            if t not in self._index or not self.beaten_at(self._index[t], pool_mask)
        ]

    # -- mask view ---------------------------------------------------------
    def index(self, instance: TypeInstance) -> int:
        """Bit position of ``instance`` (KeyError when absent)."""
        return self._index[instance]

    def mask_of(self, instances: Iterable[TypeInstance]) -> int:
        """Mask of the given instances that lie in the lattice."""
        mask = 0
        for t in instances:
            i = self._index.get(t)
            if i is not None:
                mask |= 1 << i
        return mask

    def up_mask(self, instance: TypeInstance) -> int:
        """Mask of every ``t`` with ``instance <= t`` (0 when absent)."""
        i = self._index.get(instance)
        return 0 if i is None else self._strict_up[i] | 1 << i

    def beaten_at(self, index: int, pool: int) -> bool:
        """Whether a member of the ``pool`` mask lies strictly above the
        instance at ``index`` without also lying below it.  An extension
        rule may close a cycle; its members are then equivalent and beat
        none of each other, so a topmost cycle keeps weakest members."""
        bit = 1 << index
        return any(
            not self._strict_up[j] & bit
            for j in iter_bits(self._strict_up[index] & pool)
        )

    def _strict_up_of(self, instance: TypeInstance) -> int:
        i = self._index.get(instance)
        return 0 if i is None else self._strict_up[i]

    def instances_in(self, mask: int) -> list[TypeInstance]:
        """The instances whose bits are set, in lattice order."""
        return [self.instances[i] for i in iter_bits(mask)]


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _direct_edges(instances: list[TypeInstance]) -> list[list[int]]:
    """Direct-rule successors of each instance index.

    Each rule ``DIRECT_RULES[(sub, sup)]`` is applied only to the
    instances named ``sub`` and ``sup``; an instance is never its own
    direct supertype (reflexivity is the order's, not a rule's).
    """
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, t in enumerate(instances):
        by_name[t.name].append(i)
    successors: list[list[int]] = [[] for _ in instances]
    for (sub_name, sup_name), rule in DIRECT_RULES.items():
        subs = by_name.get(sub_name)
        sups = by_name.get(sup_name)
        if not subs or not sups:
            continue
        same_template = sub_name == sup_name
        sup_params = [(j, instances[j].param) for j in sups]
        for i in subs:
            param = instances[i].param
            out = successors[i]
            for j, sup_param in sup_params:
                if same_template and sup_param == param:
                    continue
                if rule(param, sup_param):
                    out.append(j)
    return successors


def _close(successors: list[list[int]]) -> list[int]:
    """Reachability masks: bit ``j`` of the result's entry ``i`` is set
    iff ``j`` is reachable from ``i`` by a path of one or more edges,
    with ``i`` itself left out even when it lies on a cycle.

    One iterative DFS visits the nodes in post-order, so on an acyclic
    graph every successor's mask is final when its predecessors read
    it.  A back edge (an extension rule may close a cycle) means some
    masks were read early; the post-order pass then repeats until no
    mask changes — the least fixpoint, which is plain reachability.
    """
    n = len(successors)
    reach = [0] * n
    state = [0] * n  # 0 unseen, 1 on the DFS stack, 2 finished
    order: list[int] = []
    cyclic = False
    for root in range(n):
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(successors[root]))]
        while stack:
            node, pending = stack[-1]
            for nxt in pending:
                if state[nxt] == 0:
                    state[nxt] = 1
                    stack.append((nxt, iter(successors[nxt])))
                    break
                if state[nxt] == 1:
                    cyclic = True
            else:
                stack.pop()
                state[node] = 2
                order.append(node)
                mask = 0
                for nxt in successors[node]:
                    mask |= reach[nxt] | 1 << nxt
                reach[node] = mask
    while cyclic:
        cyclic = False
        for node in order:
            mask = reach[node]
            for nxt in successors[node]:
                mask |= reach[nxt]
            if mask != reach[node]:
                reach[node] = mask
                cyclic = True
    return [mask & ~(1 << i) for i, mask in enumerate(reach)]
