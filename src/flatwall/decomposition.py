"""Tree decompositions: validation, width, bag closures, small
decompositions and exact treewidth.

Exact treewidth raises a threshold from a minor-min-width bound and, for
each one, walks to the lexicographically smallest elimination order in it.
One depth-first search over elimination graphs, which eliminates almost
simplicial vertices without branching, decides "treewidth <= k": it settles
the thresholds the first walk cannot (see exact_treewidth) and, as
has_treewidth_at_most, answers the question for other callers.  No 2^n
table is built.
"""

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .common import SizeCapExceeded, Verdict
from .graph import Graph, adjacency_masks, induced_subgraph, is_connected

TREEWIDTH_CAP = 18


def _is_tree(g: Graph) -> bool:
    return g.n > 0 and g.m == g.n - 1 and is_connected(g)


class TreeDecomposition:
    """A tree whose nodes carry bags of host vertices."""

    __slots__ = ("host", "tree", "bags")

    def __init__(self, host: Graph, tree: Graph, bags: Mapping[int, Iterable[int]]):
        self.host = host
        self.tree = tree
        self.bags = {i: frozenset(b) for i, b in bags.items()}
        for i in tree.vertices:
            if i not in self.bags:
                raise ValueError("tree node %r has no bag" % (i,))
        for i in self.bags:
            if not tree.has_vertex(i):
                raise ValueError("bag id %r is not a tree node" % (i,))
        for i, bag in self.bags.items():
            for v in bag:
                if not host.has_vertex(v):
                    raise ValueError("bag %r contains unknown vertex %r" % (i, v))
        if not _is_tree(tree):
            raise ValueError("decomposition tree is not a tree")

    @classmethod
    def _trusted(cls, host: Graph, tree: Graph, bags: Mapping[int, Iterable[int]]) -> "TreeDecomposition":
        """The decomposition of host with this tree and these bags, checked
        for nothing: for producers whose construction guarantees what
        __init__ checks (one bag per tree node, bags of host vertices, a
        tree).  validate still checks the tree."""
        td = cls.__new__(cls)
        td.host = host
        td.tree = tree
        td.bags = {i: frozenset(b) for i, b in bags.items()}
        return td

    def __repr__(self) -> str:
        return "TreeDecomposition(%d bags, host n=%d)" % (len(self.bags), self.host.n)


def validate(td: TreeDecomposition) -> Verdict:
    """Check the three decomposition conditions; report the first failure.

    Conditions, in order: every host vertex is covered by some bag, every
    host edge lies inside some bag, and each vertex's trace (the set of
    tree nodes whose bags contain it) is connected in the tree.

    One pass over the bags lists each vertex's trace.  An edge is inside
    some bag iff a bag of the shorter trace of its ends holds the other
    end.  A trace spans a forest of the tree, so it holds at most
    |trace| - 1 tree edges, and exactly that many iff it is connected;
    tree edge ij is held by every vertex of bags[i] & bags[j].  That count
    is exact only on a forest, so the tree is checked first, and a tree
    that is not one raises the constructor's ValueError.
    """
    if not _is_tree(td.tree):
        raise ValueError("decomposition tree is not a tree")
    bags = td.bags
    trace: Dict[int, List[int]] = {v: [] for v in td.host.vertices}
    for i, bag in bags.items():
        for v in bag:
            trace[v].append(i)
    for v, t in trace.items():
        if not t:
            return Verdict.reject("uncovered-vertex", witness=v,
                                  detail="vertex %r is in no bag" % (v,))
    for e in td.host.edges:
        a, b = e
        t = trace[a]
        if len(trace[b]) < len(t):
            t, b = trace[b], a
        for i in t:
            if b in bags[i]:
                break
        else:
            return Verdict.reject("uncovered-edge", witness=e,
                                  detail="edge %r-%r is inside no bag" % e)
    # summed over vertices, the tree edges held number sum |bags[i] & bags[j]|
    # and their bounds sum |bag| - n: equal sums mean every trace holds its
    # bound; the count per vertex only finds the first that does not
    if (sum(len(bags[i] & bags[j]) for i, j in td.tree.edges)
            == sum(map(len, bags.values())) - len(trace)):
        return Verdict.accept()
    held = dict.fromkeys(trace, 0)
    for i, j in td.tree.edges:
        for v in bags[i] & bags[j]:
            held[v] += 1
    v = next(v for v, t in trace.items() if held[v] != len(t) - 1)
    return Verdict.reject("disconnected-trace", witness=v,
                          detail="trace of vertex %r spans a disconnected set of bags" % (v,))


def _width(td: TreeDecomposition) -> int:
    # The width of a decomposition that validate has accepted.
    return max(len(bag) for bag in td.bags.values()) - 1


def width(td: TreeDecomposition) -> int:
    v = validate(td)
    if not v:
        raise ValueError("invalid decomposition: %s" % v.condition)
    return _width(td)


def closure_bag(td: TreeDecomposition, i: int) -> Graph:
    """Induced subgraph on bag i plus a clique on each neighbor intersection."""
    if i not in td.bags:
        raise ValueError("unknown bag id %r" % (i,))
    bag = td.bags[i]
    g = induced_subgraph(td.host, bag)
    extra = []
    for j in td.tree.neighbors(i):
        shared = sorted(bag & td.bags[j])
        extra.extend((shared[a], shared[b])
                     for a in range(len(shared)) for b in range(a + 1, len(shared)))
    return g.add_edges(extra)


def make_small(td: TreeDecomposition) -> TreeDecomposition:
    """Contract tree edges with nested bags until no bag contains another.

    Keeps the node of the larger bag.  In a valid decomposition a nested
    pair at any distance forces a nested adjacent pair (traces of the
    smaller bag's vertices run along the whole tree path), so the adjacent
    fixpoint is small outright.
    """
    tree = td.tree
    bags = dict(td.bags)
    while True:
        hit = None
        for i, j in tree.edges:
            if bags[i] <= bags[j]:
                hit = (i, j)
                break
            if bags[j] <= bags[i]:
                hit = (j, i)
                break
        if hit is None:
            break
        gone, keep = hit
        attach = [(keep, w) for w in tree.neighbors(gone) if w != keep]
        tree = Graph([v for v in tree.vertices if v != gone],
                     [e for e in tree.edges if gone not in e] + attach)
        del bags[gone]
    return TreeDecomposition(td.host, tree, bags)


def _eliminate(h: List[int], v: int) -> List[int]:
    # The elimination graph after v: its neighbours become a clique, v leaves.
    h = list(h)
    nb = h[v]
    m = nb
    while m:
        low = m & -m
        u = low.bit_length() - 1
        h[u] = (h[u] | nb) & ~(low | 1 << v)
        m ^= low
    return h


def _almost_simplicial(h: List[int], nb: int) -> bool:
    # Whether one vertex w of nb meets every non-adjacent pair inside nb
    # (true as well when nb is a clique).  The first vertex u with a
    # non-neighbour x in nb leaves w = u or w = x to try.
    m = nb
    while m:
        low = m & -m
        miss = nb & ~h[low.bit_length() - 1] & ~low
        if miss:
            break
        m ^= low
    else:
        return True
    for w in (low, miss & -miss):
        m = nb & ~w
        while m:
            bit = m & -m
            if nb & ~h[bit.bit_length() - 1] & ~bit & ~w:
                break
            m ^= bit
        else:
            return True
    return False


def _moves(h: List[int], alive: int, k: int) -> List[int]:
    # Vertices worth eliminating next, last to be tried first: one of degree
    # <= k that is simplicial or almost simplicial, if any, else all of
    # degree <= k.
    moves = []
    m = alive
    while m:
        low = m & -m
        m ^= low
        v = low.bit_length() - 1
        nb = h[v]
        if nb.bit_count() <= k:
            if _almost_simplicial(h, nb):
                return [v]
            moves.append(v)
    moves.reverse()
    return moves


def _fits(h: List[int], alive: int, k: int, memo: Dict[int, bool]) -> bool:
    # Whether the elimination graph h on the vertex set alive has treewidth
    # <= k, by a depth-first search over elimination orders; memo maps
    # vertex sets already decided at this k to their answer.
    #
    # An almost simplicial vertex v of degree <= k (all non-adjacent pairs
    # of its neighbours share one neighbour w) is eliminated without
    # branching: eliminating v yields the contraction of the edge vw, a
    # minor, so its treewidth is no larger, and v's own step costs <= k.
    if alive.bit_count() <= k + 1:
        return True
    known = memo.get(alive)
    if known is not None:
        return known
    stack = [(alive, h, _moves(h, alive, k))]
    while stack:
        alive, h, todo = stack[-1]
        if not todo:
            memo[alive] = False
            stack.pop()
            continue
        v = todo.pop()
        rest = alive & ~(1 << v)
        ok = rest.bit_count() <= k + 1 or memo.get(rest)
        if ok:
            for frame in stack:
                memo[frame[0]] = True
            return True
        if ok is None:
            g = _eliminate(h, v)
            stack.append((rest, g, _moves(g, rest, k)))
    return False


def treewidth_at_most(adj: List[int], mask: int, k: int) -> bool:
    """Whether the subgraph that mask induces in the adjacency masks adj
    has treewidth at most k (decided by _fits)."""
    return _fits([a & mask for a in adj], mask, k, {})


def _capped_masks(g: Graph) -> Tuple[List[int], List[int]]:
    if g.n > TREEWIDTH_CAP:
        raise SizeCapExceeded("treewidth DP capped at %d vertices, got %d" % (TREEWIDTH_CAP, g.n))
    return adjacency_masks(g)


def has_treewidth_at_most(g: Graph, k: int) -> bool:
    """Whether g has treewidth at most k; over TREEWIDTH_CAP vertices it raises SizeCapExceeded."""
    return treewidth_at_most(_capped_masks(g)[1], (1 << g.n) - 1, k)


def _walk(adj: List[int], k: int, memo: Optional[Dict[int, bool]]
          ) -> Optional[List[Tuple[int, int]]]:
    # After each prefix the smallest vertex of degree <= k (with memo, whose
    # elimination keeps the rest within k), as pairs (v, the neighbour mask
    # of v in the elimination graph just before v goes); None at a dead end.
    h, alive, order = adj, (1 << len(adj)) - 1, []
    while alive:
        m = alive
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if h[v].bit_count() <= k:
                g = _eliminate(h, v)
                if memo is None or _fits(g, alive & ~low, k, memo):
                    break
        else:
            return None
        order.append((v, h[v]))
        h, alive = g, alive & ~low
    return order


def _first_feasible_order(adj: List[int], k: int) -> Optional[List[Tuple[int, int]]]:
    # The lexicographically smallest elimination order of width <= k, as
    # _walk's pairs, or None.  The unchecked walk is right whenever it gets
    # through; at a dead end, _fits decides k, and the checked walk after
    # an accepting _fits never ends dead, since _fits is exact.
    order = _walk(adj, k, None)
    if order is None:
        memo: Dict[int, bool] = {}
        if _fits(adj, (1 << len(adj)) - 1, k, memo):
            order = _walk(adj, k, memo)
    return order


def _contraction_bound(adj: List[int]) -> int:
    # Minor-min-width (Gogate and Dechter, UAI 2004) with least-c
    # contraction: raise the bound to the degree of a least-degree vertex
    # v, then contract v into the neighbour sharing the fewest neighbours
    # with it (smallest index on each tie), until no degree can raise it.
    # deg holds each live vertex's degree and, for a contracted one, n.
    h = list(adj)
    deg = [a.bit_count() for a in h]
    gone = left = len(h)
    best = 0
    while left > best + 1:
        d = min(deg)
        v = deg.index(d)
        best = max(best, d)
        nb = h[v]
        deg[v] = gone
        left -= 1
        if not nb:
            continue
        least, m = d, nb
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            c = (h[u] & nb).bit_count()
            if c < least:
                w, least = u, c
        here = 1 << w
        h[w] = (h[w] | nb) & ~(1 << v | here)
        deg[w] = h[w].bit_count()
        m = nb & ~here
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            h[u] = h[u] & ~(1 << v) | here
            deg[u] = h[u].bit_count()
    return best


def exact_treewidth(g: Graph) -> Tuple[int, TreeDecomposition]:
    """Exact treewidth with a witnessing decomposition of that width.

    Tries k upward from _contraction_bound, the largest minimum degree of
    the minors it contracts, a lower bound since a vertex of a leaf bag has
    all its neighbours in that bag and no minor has larger treewidth; the
    first k with an elimination order of width <= k is the treewidth.
    Taking the smallest feasible vertex after every prefix yields the
    lexicographically smallest optimal order, so the bags (read off the
    masks of the walk that finds it) and the tree are reproducible.  Each
    k first gets a walk that takes the smallest vertex of degree <= k
    unchecked; only where that walk meets a dead end does _fits decide k,
    and then check every step of a second walk.  A graph over
    TREEWIDTH_CAP vertices raises SizeCapExceeded.
    """
    order, adj = _capped_masks(g)
    n = len(order)
    if n == 0:
        return -1, TreeDecomposition(g, Graph([0]), {0: ()})
    tw = _contraction_bound(adj)
    elim = _first_feasible_order(adj, tw)
    while elim is None:
        tw += 1
        elim = _first_feasible_order(adj, tw)

    # Bag of the i-th eliminated vertex: itself plus its neighbours in the
    # elimination graph just before it goes (those joined to it in g by a
    # path through vertices eliminated earlier); its parent is the
    # first-eliminated of them.  Parent-less bags (one per component) are
    # chained.
    pos = {v: i for i, (v, _) in enumerate(elim)}
    bags, tree_edges, roots = {}, [], []
    for i, (v, nb) in enumerate(elim):
        bag = [order[v]]
        parent = n
        while nb:
            low = nb & -nb
            nb ^= low
            u = low.bit_length() - 1
            bag.append(order[u])
            if pos[u] < parent:
                parent = pos[u]
        bags[i] = bag
        if parent < n:
            tree_edges.append((i, parent))
        else:
            roots.append(i)
    # A parent comes later in the order, and roots are chained ascending,
    # so every tree edge is already normalised (smaller node first).  The
    # order covers every vertex and edge and gives one bag per node, so
    # neither the tree nor the decomposition is checked again.
    tree_edges.extend(zip(roots, roots[1:]))
    tree = Graph._trusted(range(n), sorted(tree_edges))
    return tw, TreeDecomposition._trusted(g, tree, bags)
