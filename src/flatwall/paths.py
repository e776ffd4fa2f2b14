"""Vertex-disjoint path machinery.

Two search problems live here: the exhaustive two-disjoint-paths decision
(exact, exponential, fine at the scales we run) and the maximum number of
vertex-disjoint paths between two terminal sets (Menger by augmenting
paths, polynomial).  The two-paths search re-runs its second-pair
breadth-first search only when the first path steps onto the last route
found, or reaches its end.
"""

from bisect import bisect
from collections import deque
from typing import Iterable, List, Optional, Tuple

from .graph import Graph, bfs, path_to

# states two_disjoint_paths may enter before it answers "unknown": over 1,400 times
# the 701 of the largest not-flat verdict in the tests and flat-verify seeds 1-20
TWO_PATHS_BUDGET = 1_000_000


class DisjointPathsResult:
    """Outcome of a two-disjoint-paths search.

    verdict is "found", "none" or "unknown" (budget spent).  For "found",
    paths holds the two vertex sequences; for "none" the search was
    exhaustive.  explored counts the partial first paths visited.
    """

    __slots__ = ("verdict", "paths", "explored")

    def __init__(self, verdict: str, paths, explored: int):
        self.verdict = verdict
        self.paths = paths
        self.explored = explored

    def __repr__(self) -> str:
        return "DisjointPathsResult(%r, explored=%d)" % (self.verdict, self.explored)


def two_disjoint_paths(g: Graph, first: Tuple[int, int],
                       second: Tuple[int, int]) -> DisjointPathsResult:
    """Search for vertex-disjoint paths first[0]..first[1] and second[0]..second[1].

    Depth-first enumeration of candidate first paths, abandoning a branch as
    soon as the rest of the graph disconnects the second pair.  Endpoints
    count: the paths must be disjoint including their ends.

    The cut check reuses the last s2-t2 route a breadth-first search found:
    while the vertex just added to the first path is off that route, the
    route is still free and the check cannot fail, so no search runs.  A
    fresh search runs when the added vertex is on the route, and always at
    t1, so a "found" second path is the breadth-first one.  Backtracking
    only frees vertices, so a route stays free until the path enters it;
    the visited states and explored are those of a search at every state.

    TWO_PATHS_BUDGET caps the states entered: with that many entered and
    another to enter, the answer is "unknown" with explored equal to it.
    """
    s1, t1 = first
    s2, t2 = second
    for v in (s1, t1, s2, t2):
        if not g.has_vertex(v):
            raise ValueError("vertex %r is not in the graph" % (v,))
    if len({s1, t1, s2, t2}) != 4:
        raise ValueError("need four distinct endpoints")
    explored = 0

    path = [s1]
    free = set(g.vertices) - {s1}  # vertices off the first path
    banned = {s2, t2}  # the first path may never touch the second pair
    goal = (t2,)
    todo = []  # one neighbour iterator per path vertex still being expanded
    route = None  # vertex set of the last s2-t2 route found; free until the path enters it

    def enter() -> Optional[DisjointPathsResult]:
        # Visit the partial first path; queue its last vertex for expansion
        # unless it ends at t1 or already cuts the second pair apart.  The
        # result once the search is decided, else None.
        nonlocal explored, route
        if explored >= TWO_PATHS_BUDGET:
            return DisjointPathsResult("unknown", None, explored)
        explored += 1
        u = path[-1]
        if u != t1 and route is not None and u not in route:
            # the path took no route vertex since the route was found: still free
            todo.append(iter(g.neighbors(u)))
            return None
        parent, hit = bfs(g, s2, free, goal)
        if hit is None:
            return None
        second_path = path_to(parent, hit)
        route = set(second_path)
        if u == t1:
            return DisjointPathsResult("found", (list(path), second_path), explored)
        todo.append(iter(g.neighbors(u)))
        return None

    result = enter()
    while result is None and todo:
        for w in todo[-1]:
            if w in free and w not in banned:
                path.append(w)
                free.discard(w)
                result = enter()
                break
        else:
            todo.pop()
        if len(todo) < len(path):
            free.add(path.pop())
    return result or DisjointPathsResult("none", None, explored)


def max_vertex_disjoint_paths(g: Graph, sources: Iterable[int],
                              sinks: Iterable[int]) -> Tuple[int, List[List[int]]]:
    """Maximum set of pairwise vertex-disjoint paths from sources to sinks.

    Unit vertex capacities, so disjointness includes endpoints; a vertex in
    both sets contributes a zero-length path.  Returns (count, paths).

    The flow is kept as the paths themselves: prv[v] and nxt[v] are v's
    neighbours on its path, None past its ends.  Each augmenting path is a
    breadth-first search over the states "arrived at v" and "left v", whose
    moves are the residual arcs of a split-vertex flow network taken in
    that network's node order, so the paths found are the network's.
    """
    src = sorted(set(sources))
    snk = set(sinks)
    for v in src + sorted(snk):
        if not g.has_vertex(v):
            raise ValueError("terminal %r is not in the graph" % (v,))
    prv, nxt = {}, {}
    while True:
        # arrived[w] = v: the search left v for w (w itself for a step back,
        # None at a source); left[u] = w: it left u from arriving at w
        arrived, left = {}, {}
        queue = deque()

        def arrive(w, v):
            # an arrival has one move: leave w if it is free, else step back
            # to leaving its predecessor (none if w starts its path)
            arrived[w] = v
            u = prv[w] if w in prv else w
            if u is not None and u not in left:
                left[u] = w
                queue.append(u)

        for s in src:
            if s not in prv or prv[s] is not None:
                arrive(s, None)
        while queue:
            v = queue.popleft()
            if v in snk and (v not in nxt or nxt[v] is not None):
                break
            # every neighbour but nxt[v], and back into v if it is used
            moves = g.neighbors(v)
            if v in prv:
                i = bisect(moves, v)
                moves = moves[:i] + (v,) + moves[i:]
            for w in moves:
                if w not in arrived and w != nxt.get(v):
                    arrive(w, v)
        else:
            break
        # reroute the paths along the search path, back from its end at v
        nxt[v] = None
        while v is not None:
            u = left[v]
            v = arrived[u]
            if v == u:  # stepped back through u: it is free again
                del prv[u], nxt[u]
            else:
                prv[u] = v
                if v is not None:
                    nxt[v] = u

    paths = []
    for s in src:
        if s in prv and prv[s] is None:
            path = [s]
            while nxt[path[-1]] is not None:
                path.append(nxt[path[-1]])
            paths.append(path)
    return len(paths), paths
