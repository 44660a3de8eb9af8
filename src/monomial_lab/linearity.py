"""Linear-presentation machinery for pure-degree squarefree ideals: the
generator graph, the connectivity criterion, the Betti-table criterion,
and the constructive gcd witness search.

For an ideal generated in degree d, two generators are adjacent when their
lcm has degree d+1.  The ideal is linearly presented (property N_2) exactly
when, for every generator pair (u, v), the subgraph induced on the
generators dividing lcm(u, v) is connected.  The Betti route checks the
same property (and the higher N_k) directly from vanishing of table rows;
its scan, `betti.nk_betti_masks`, lives with the other table scans.
"""

from __future__ import annotations

from dataclasses import dataclass

from .betti import nk_betti_masks
from .complexes import RATIONALS, FieldSpec
from .core import (
    Ideal,
    InputError,
    MaskIndex,
    Monomial,
    PreconditionError,
    TheoremViolationError,
    _check_ideal,
    _check_int,
    _is_int,
    _same_ambient,
    squarefree_multiples,
)


def _pure_degree_checked(I: Ideal) -> int:
    _check_ideal(I)
    if I.is_zero:
        raise InputError("the zero ideal has no generator degree")
    d = I.pure_degree()
    if d is None:
        raise InputError("generators have mixed degrees")
    return d


def _adjacency(gens: tuple[int, ...], d: int) -> list[int]:
    r = len(gens)
    adj = [0] * r
    for a in range(r):
        ga = gens[a]
        for b in range(a + 1, r):
            if (ga | gens[b]).bit_count() == d + 1:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return adj


def _reach(adj, members: int, seen: int, target: int) -> int:
    """Grow the vertex bitmask `seen` breadth first along `adj` (row
    bitmasks) inside `members`, until it meets `target` or stops growing;
    return it."""
    frontier = seen
    while frontier and not seen & target:
        nxt = 0
        x = frontier
        while x:
            low = x & -x
            x ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & members & ~seen
        seen |= frontier
    return seen


def _spans(adj, members: int) -> bool:
    """Whether the vertex bitmask `members` is connected along `adj`."""
    return _reach(adj, members, members & -members, 0) == members


def n2_verdict_masks(gens: tuple[int, ...], d: int):
    """Connectivity criterion on raw generator bitmasks.

    Returns (True, None) or (False, (a, b)) with the canonically first
    disconnected generator index pair.  Many pairs share an lcm, so each
    lcm keeps the whole component of the first start a in its subgraph,
    and later pairs with that lcm read it.  A later start a2 lies in that
    component: a and a2 both divide the lcm, and the pair (a, a2), checked
    before a2's pairs, is adjacent or was connected inside lcm(a, a2),
    which divides the lcm.  The members of each subgraph are found with a
    `MaskIndex` over the generators, one OR per vertex outside the lcm.
    """
    r = len(gens)
    if r <= 1:
        return True, None
    adj = _adjacency(gens, d)
    index = None  # built when the first subgraph is needed
    components: dict[int, int] = {}
    for a in range(r):
        adj_a = adj[a]
        ga = gens[a]
        for b in range(a + 1, r):
            if adj_a >> b & 1:
                continue  # direct edge, trivially connected
            big = ga | gens[b]
            comp = components.get(big)
            if comp is None:
                if index is None:
                    index = MaskIndex(gens)
                comp = components[big] = _reach(adj, index.inside(big), 1 << a, 0)
            if not comp >> b & 1:
                return False, (a, b)
    return True, None


@dataclass(frozen=True)
class GenGraph:
    """Generator graph: vertices are generator indices, edges where the
    pairwise lcm has degree one more than the generator degree."""

    ideal: Ideal
    degree: int
    adjacency: tuple[int, ...]  # row bitmasks over generator indices

    def has_edge(self, a: int, b: int) -> bool:
        _check_indices(self, a, b)
        return bool(self.adjacency[a] >> b & 1)

    def edges(self) -> list[tuple[int, int]]:
        adj = self.adjacency
        return [(a, b) for a in range(len(adj)) for b in range(a + 1, len(adj)) if adj[a] >> b & 1]


def _check_indices(G: GenGraph, *indices) -> None:
    """Each index is an int (`_is_int`) naming a generator of G."""
    r = len(G.adjacency)
    if not all(_is_int(i) and 0 <= i < r for i in indices):
        raise InputError(f"generator index out of range 0..{r - 1}")


@dataclass(frozen=True)
class LcmSubgraph:
    """Induced subgraph on the generators dividing lcm(u, v)."""

    graph: GenGraph
    u: int
    v: int
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def is_connected(self) -> bool:
        # induced: the edges are the graph's edges among `vertices`
        return _spans(self.graph.adjacency, sum(1 << x for x in self.vertices))


def generator_graph(I: Ideal) -> GenGraph:
    d = _pure_degree_checked(I)
    return GenGraph(I, d, tuple(_adjacency(I.gen_masks, d)))


def lcm_induced_subgraph(G: GenGraph, u: int, v: int) -> LcmSubgraph:
    _check_indices(G, u, v)
    gens = G.ideal.gen_masks
    big = gens[u] | gens[v]
    vertices = tuple(i for i, g in enumerate(gens) if g & ~big == 0)
    edges = tuple(
        (a, b)
        for ai, a in enumerate(vertices)
        for b in vertices[ai + 1:]
        if G.adjacency[a] >> b & 1
    )
    return LcmSubgraph(G, u, v, vertices, edges)


def is_N2_graph(I: Ideal):
    """Connectivity criterion for linear presentation.

    Returns (verdict, witness): witness is None on success, otherwise the
    canonically first generator pair whose induced lcm subgraph is
    disconnected.
    """
    d = _pure_degree_checked(I)
    ok, pair = n2_verdict_masks(I.gen_masks, d)
    if ok:
        return True, None
    return False, (I.gens[pair[0]], I.gens[pair[1]])


def is_Nk_betti(I: Ideal, k: int, field: FieldSpec = RATIONALS) -> bool:
    """Betti criterion: rows 0..k-1 of the ideal's table live only in the
    linear degrees j = i + d."""
    _check_int("k", k, 1)
    d = _pure_degree_checked(I)
    return nk_betti_masks(I.gen_masks, d, k, field)


def _linear_after(gens: tuple[int, ...], extra: int, n: int, d: int) -> bool:
    """Whether gens together with the degree-d multiples of `extra` on n
    variables are linearly presented."""
    truncated = set(gens).union(squarefree_multiples(extra, n, d))
    return n2_verdict_masks(tuple(sorted(truncated)), d)[0]


def gcd_witness(I: Ideal, f: Monomial) -> tuple[Monomial, Monomial]:
    """Find a generator f1 with deg gcd(f1, f) = deg f - 1 such that adding
    that gcd keeps the degree-d truncation linearly presented.

    Hypotheses: I pure of degree d, 2 <= deg f <= d, I not contained in
    (f), and the truncation of I + (f) linearly presented.  A scan failure
    raises TheoremViolationError: it would contradict a verified statement
    and is treated as a bug or a falsification.
    """
    d = _pure_degree_checked(I)
    _same_ambient(f, I)
    if not 2 <= f.degree <= d:
        raise PreconditionError(f"need 2 <= deg f <= {d}, got {f.degree}")
    if all(f.mask & ~g.mask == 0 for g in I.gens):
        raise PreconditionError("I is contained in (f)")
    gens, n = I.gen_masks, I.ambient
    if not _linear_after(gens, f.mask, n, d):
        raise PreconditionError("truncation of I + (f) is not linearly presented")
    for f1 in gens:
        g = f1 & f.mask
        if g.bit_count() == f.degree - 1 and _linear_after(gens, g, n, d):
            return Monomial(n, f1), Monomial(n, g)
    raise TheoremViolationError(
        f"no gcd witness for I={I} and f={f}: hypotheses hold but every candidate fails"
    )
