"""Apex machinery and the weak-structure trichotomy checker.

The centerpiece is trichotomy_check: given a host graph, an excluded
graph, a wall height and a width threshold, it certifies one of three
mutually acceptable outcomes -- an excluded-graph minor, a small tree
decomposition, or an apex set plus a flat wall with a rural division --
or reports "undetermined" when none is certifiable at desk scale.  Every
certificate is re-checkable from scratch by verify_certificate.
"""

from itertools import combinations
from math import isqrt
from typing import Dict, Iterable, List, Optional, Tuple

from .common import SizeCapExceeded, Verdict
from .decomposition import (TreeDecomposition, _width, exact_treewidth, has_treewidth_at_most,
                            validate as validate_td)
from .generators import grid, pyramid, wall
from .graph import Graph, delete
from .minors import MinorModel, find_minor, iter_topological_embeddings, verify_minor_model
from .planarity import apex_number
from .rural import RuralDivision, _internal_flaps, trivial_division, validate_rural
from .wall import SubdividedWall, _compass, disjoint_subwalls, is_flat, verify_wall

TRICHOTOMY_HOST_CAP = 16


def _ceil_sqrt(x: int) -> int:
    return 0 if x == 0 else isqrt(x - 1) + 1


def pyramid_minor_model(k: int, h: int) -> MinorModel:
    """Explicit pyramid(k, h) minor inside pyramid(k + ceil(sqrt(h)), h).

    The pattern grid maps identically onto the host's top-left k x k
    block; each pattern apex absorbs one host apex plus a share of a
    disjoint alpha x alpha block, realizing the complete contraction onto
    the apices.
    """
    if k < 2 or h < 1:
        raise ValueError("need grid side >= 2 and at least one apex, got (%d, %d)" % (k, h))
    alpha = _ceil_sqrt(h)
    side = k + alpha
    host = pyramid(side, h)
    _, hostc = grid(side, side)
    pattern = pyramid(k, h)
    _, patc = grid(k, k)

    branch: Dict[int, List[int]] = {}
    for y in range(1, k + 1):
        for x in range(1, k + 1):
            branch[patc.id(x, y)] = [hostc.id(x, y)]
    cells = [hostc.id(k + x, y) for y in range(1, alpha + 1) for x in range(1, alpha + 1)]
    q, r = divmod(len(cells), h)
    at = 0
    for i in range(h):
        take = q + (1 if i < r else 0)
        branch[k * k + i] = [side * side + i] + cells[at:at + take]
        at += take
    model = MinorModel(host, pattern, branch)
    ok = verify_minor_model(model)
    if not ok:
        raise AssertionError("pyramid model construction broke: %s" % ok.condition)
    return model


class HMinorFound(Exception):
    """Raised when apex reduction finds every apex seeing every window compass.

    In the paper's argument, with its f5^2 windows, that evidence yields a
    pyramid minor and so the excluded minor; no model of it is built yet,
    so the CLI reports this as undetermined.
    """


def _f5(h_graph: Graph, an_h: int) -> int:
    """Side of the default window grid: 14(h - a_H) + ceil(sqrt(a_H)) - 24."""
    return 14 * (h_graph.n - an_h) + _ceil_sqrt(an_h) - 24


def apex_reduce(g: Graph, h_graph: Graph, a: Iterable[int], w: SubdividedWall,
                k: int, window_count: Optional[int] = None
                ) -> Tuple[Tuple[int, ...], SubdividedWall]:
    """Drop one apex that misses some window compass.

    Windows `window_count` (default f5^2, from the order and apex number
    of h_graph) disjoint height-k subwalls out of w and computes each
    compass in g minus the apex set.  The apices are scanned in order, each
    against the windows in order: the first apex with no edge into a
    window's compass is removed and that window's subwall returned; its
    compass then avoids the entire original apex set, since the removed
    apex has no neighbour in it and the others stay deleted.  If every apex
    sees every compass, HMinorFound is raised.  The precondition that
    h_graph is not already a minor of g is checked only within find_minor's
    caps; past them it is assumed without a warning.
    """
    apexes = tuple(sorted(set(a)))
    if not apexes:
        raise ValueError("no apex to drop")
    an_h, _ = apex_number(h_graph)
    if len(apexes) < an_h:
        raise ValueError("apex set of %d is below the apex parameter %d"
                         % (len(apexes), an_h))
    try:
        if find_minor(g, h_graph) is not None:
            raise ValueError("the excluded graph is already a minor of the host")
    except SizeCapExceeded:
        pass  # over find_minor's caps: not checked
    count = _f5(h_graph, an_h) ** 2 if window_count is None else window_count
    if count < 1:
        raise ValueError("window count %d is not positive" % count)

    ga = delete(g, apexes)
    wa = SubdividedWall(ga, w.height, w.original, w.paths)
    ok = verify_wall(wa)
    if not ok:
        raise ValueError("wall is not valid in the host minus the apex set: %s" % ok.condition)

    subs = disjoint_subwalls(wa, count, k)
    comps = [_compass(s).graph.vertices for s in subs]  # a window of a verified wall is valid
    for aj in apexes:
        sees = set(g.neighbors(aj))
        for sub, c in zip(subs, comps):
            if sees.isdisjoint(c):
                reduced = tuple(x for x in apexes if x != aj)
                # valid in ga, a subgraph of g minus the reduced set
                return reduced, SubdividedWall(delete(g, reduced), k, sub.original, sub.paths)
    raise HMinorFound("every apex sees every window compass (apices %d, windows %d)"
                      % (len(apexes), count))


class WeakStructureCertificate:
    """Tagged union over the three clauses, or an explicit undetermined."""

    __slots__ = ("clause", "minor", "decomposition", "width_bound",
                 "apex_set", "wall", "division", "flap_width_bound")

    def __init__(self, clause, minor: Optional[MinorModel] = None,
                 decomposition: Optional[TreeDecomposition] = None,
                 width_bound: Optional[int] = None,
                 apex_set: Optional[Tuple[int, ...]] = None,
                 wall: Optional[SubdividedWall] = None,
                 division: Optional[RuralDivision] = None,
                 flap_width_bound: Optional[int] = None):
        if clause not in (1, 2, 3, "undetermined"):
            raise ValueError("unknown clause %r" % (clause,))
        parts = {
            1: (minor,),
            2: (decomposition, width_bound),
            3: (apex_set, wall, division, flap_width_bound),
        }
        given = {c: [x is not None for x in p] for c, p in parts.items()}
        if clause == "undetermined":
            if any(map(any, given.values())):
                raise ValueError("undetermined certificate carries a payload")
        else:
            if not all(given[clause]):
                raise ValueError("clause %r certificate is missing its payload" % clause)
            for other, present in given.items():
                if other != clause and any(present):
                    raise ValueError("certificate populates clauses %r and %r" % (clause, other))
        self.clause = clause
        self.minor = minor
        self.decomposition = decomposition
        self.width_bound = width_bound
        self.apex_set = tuple(apex_set) if apex_set is not None else None
        self.wall = wall
        self.division = division
        self.flap_width_bound = flap_width_bound

    def __repr__(self) -> str:
        return "WeakStructureCertificate(clause=%r)" % (self.clause,)


def _find_flat_wall_certificate(g: Graph, apexes: Tuple[int, ...], k: int):
    """First flat height-k wall in g minus apexes whose per-edge division
    validates, with the division and internal-flap width bound; or None.

    Candidates are subdivision embeddings of the wall pattern, so each is
    a valid wall and its compass cannot fail.  A wall with more vertices
    (2k(k+2)) than g minus apexes is not built.  The division has one edge
    per flap, so n - 1 is each internal flap's exact width (1); the
    verifier passes flaps of at most bound + 1 vertices without measuring
    them either."""
    ga = delete(g, apexes)
    if 2 * k * (k + 2) > ga.n:
        return None
    for original, paths in iter_topological_embeddings(ga, wall(k).graph):
        cand = SubdividedWall(ga, k, original, paths)
        c = _compass(cand)
        # only a crossing skips a candidate: a division that validates proves flatness
        if is_flat(c).flat is False:
            continue
        rd = trivial_division(c)
        if not validate_rural(rd):
            continue
        return cand, rd, max((d.n - 1 for d in _internal_flaps(rd, 0)), default=0)
    return None


def trichotomy_check(g: Graph, h_graph: Graph, k: int,
                     width_threshold: int) -> WeakStructureCertificate:
    """Certify the first holding clause: excluded minor, small treewidth,
    or apex set plus flat wall plus rural division; else undetermined.

    Clause order is fixed (minor first) and every search is exhaustive
    and lexicographic, so the outcome is deterministic.
    """
    if k < 1:
        raise ValueError("wall height must be positive, got %r" % (k,))
    if g.n > TRICHOTOMY_HOST_CAP:
        raise SizeCapExceeded("host capped at %d vertices, got %d"
                              % (TRICHOTOMY_HOST_CAP, g.n))

    model = find_minor(g, h_graph)
    if model is not None:
        return WeakStructureCertificate(1, minor=model)

    # decided first: the decomposition is computed only when it certifies
    if has_treewidth_at_most(g, width_threshold):
        _, td = exact_treewidth(g)
        return WeakStructureCertificate(2, decomposition=td, width_bound=width_threshold)

    an, _ = apex_number(h_graph)
    for size in range(0, an):
        for apexes in combinations(g.vertices, size):
            found = _find_flat_wall_certificate(g, apexes, k)
            if found is not None:
                cand, rd, bound = found
                return WeakStructureCertificate(3, apex_set=apexes, wall=cand,
                                                division=rd, flap_width_bound=bound)
    return WeakStructureCertificate("undetermined")


def verify_certificate(g: Graph, h_graph: Graph, k: int,
                       cert: WeakStructureCertificate) -> Verdict:
    """Re-validate every part of the claimed clause from scratch.

    Clause 3 checks, in order: apex set, wall, wall height, compass, rural
    division, flatness, internal flap widths.  The division comes before
    flatness because a valid one proves the wall flat.  Lemma: if a
    division passes properties 1, 2 and 4 and the disk part of 5, no
    disjoint c1-c3 and c2-c4 paths exist.  Such paths would split at flap
    changes into paths of the boundary incidence graph (a vertex shared by
    two flaps lies on both boundaries); no flap carries both, as its
    boundary would need 4 vertices; so with the corner 4-cycle and the hub
    that the disk test adds they would form a K5 minor, and the gadget
    (that graph with its two-vertex boundary nodes smoothed) would not be
    planar.

    A crossing outranks division-invalid, so once the division rejects,
    is_flat decides.  Within its state budget every verdict is what checking
    flatness first gives; past it the division still failed, so the verdict
    is division-invalid.
    """
    if not isinstance(cert, WeakStructureCertificate):
        raise ValueError("not a certificate: %r" % (cert,))
    if cert.clause == "undetermined":
        return Verdict.reject("undetermined", detail="an undetermined outcome certifies nothing")

    if cert.clause == 1:
        m = cert.minor
        if m.host != g:
            return Verdict.reject("wrong-host", detail="minor model host differs from g")
        if m.pattern != h_graph:
            return Verdict.reject("wrong-pattern", detail="minor model pattern differs from the excluded graph")
        ok = verify_minor_model(m)
        if not ok:
            return Verdict.reject("minor-invalid", witness=ok.witness, detail=ok.detail)
        return Verdict.accept()

    if cert.clause == 2:
        td = cert.decomposition
        if td.host != g:
            return Verdict.reject("wrong-host", detail="decomposition host differs from g")
        ok = validate_td(td)
        if not ok:
            return Verdict.reject("decomposition-invalid", witness=ok.witness, detail=ok.detail)
        w = _width(td)
        if w > cert.width_bound:
            return Verdict.reject("width-exceeded", witness=w,
                                  detail="width %d exceeds bound %d" % (w, cert.width_bound))
        return Verdict.accept()

    an, _ = apex_number(h_graph)
    if len(cert.apex_set) > an - 1:
        return Verdict.reject("apex-set-too-large", witness=cert.apex_set,
                              detail="apex set of %d exceeds %d" % (len(cert.apex_set), an - 1))
    for v in cert.apex_set:
        if not g.has_vertex(v):
            return Verdict.reject("apex-outside-host", witness=v)
    ga = delete(g, cert.apex_set)
    w = SubdividedWall(ga, cert.wall.height, cert.wall.original, cert.wall.paths)
    ok = verify_wall(w)
    if not ok:
        return Verdict.reject("wall-invalid", witness=ok.witness, detail=ok.detail)
    if w.height != k:
        return Verdict.reject("wall-height", witness=w.height,
                              detail="wall height %d, expected %d" % (w.height, k))
    c = _compass(w)
    rd = RuralDivision(c, cert.division.flaps)
    ok = validate_rural(rd)
    if not ok:
        flat = is_flat(c)
        if flat.flat is False:
            return Verdict.reject("not-flat", witness=flat.witness)
        return Verdict.reject("division-invalid", witness=ok.witness,
                              detail="%s: %s" % (ok.condition, ok.detail))
    bound = cert.flap_width_bound
    # tw(d) <= |V(d)| - 1 clears flaps of at most bound + 1 vertices; the others are
    # decided first, and their exact width is computed only for a rejection
    for d in _internal_flaps(rd, bound + 1):
        if not has_treewidth_at_most(d, bound):
            return Verdict.reject("flap-width", witness=d.vertices,
                                  detail="internal flap width %d exceeds %d"
                                  % (exact_treewidth(d)[0], bound))
    return Verdict.accept()
