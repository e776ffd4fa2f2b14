"""JSON interchange for graphs, decompositions and certificates.

One function pair per object kind.  Readers validate shape strictly and
raise ValueError on malformed documents; semantic validity (does the
minor model hold, is the wall really a wall) stays with the verifiers.
Vertex ids in the graph format run 0..n-1; every other document
references vertices of a host graph supplied separately, with the host
pinned by a content hash where a certificate would otherwise be portable
to the wrong graph.
"""

from typing import List, Tuple

from .decomposition import TreeDecomposition
from .graph import Graph, graph_hash
from .minors import MinorModel
from .rural import RuralDivision, division_from_edge_lists
from .structure import WeakStructureCertificate
from .wall import Compass, SubdividedWall

SCHEMA_VERSION = 1


def _require(cond: bool, what: str, *args):
    """Raise unless cond; the message what % args is formatted only then."""
    if not cond:
        raise ValueError("malformed document: " + what % args)


def _is_int(obj) -> bool:
    """A JSON integer; true and false load as bool, a subclass of int."""
    return type(obj) is int


def _is_int_list(obj) -> bool:
    return isinstance(obj, list) and not [x for x in obj if type(x) is not int]


def _is_int_pair(obj) -> bool:
    return isinstance(obj, list) and len(obj) == 2 and _is_int(obj[0]) and _is_int(obj[1])


def _int_keyed(obj: dict, valid, what: str, key_what: str) -> dict:
    """obj with its keys read as ints, each value checked by valid before
    its key is read.  A key is an int as str writes it: int() also reads
    " 3", "+3", "0_3" and other digits, so one id could have two keys."""
    out = {}
    for key, value in obj.items():
        _require(valid(value), "%s %r", what, key)
        try:
            canonical = str(int(key)) == key
        except ValueError:
            canonical = False
        _require(canonical, "%s %r", key_what, key)
        out[int(key)] = value
    return out


def _int_pairs(obj, what: str, *args) -> List[Tuple[int, int]]:
    """obj read as a list of int pairs; a failure names obj as what % args, formatted then."""
    pairs = [(e[0], e[1]) for e in obj if isinstance(e, list) and len(e) == 2
             and type(e[0]) is int and type(e[1]) is int] if isinstance(obj, list) else None
    if pairs is None or len(pairs) < len(obj):
        _require(isinstance(obj, list), what + " is not a list", *args)
        _require(False, what + " entry %r", *args, next(e for e in obj if not _is_int_pair(e)))
    return pairs


def graph_to_json(g: Graph) -> dict:
    if g.vertices != tuple(range(g.n)):
        raise ValueError("interchange requires vertex ids 0..n-1")
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def graph_from_json(obj) -> Graph:
    _require(isinstance(obj, dict), "graph document is not an object")
    _require(_is_int(obj.get("n")) and obj["n"] >= 0, "bad vertex count")
    n = obj["n"]
    edges = _int_pairs(obj.get("edges", []), "edges")
    es = [(a, b) if a < b else (b, a) for a, b in edges if a != b and 0 <= a < n and 0 <= b < n]
    if len(es) < len(edges):  # every range error outranks the first loop
        for a, b in edges:
            _require(0 <= a < n and 0 <= b < n, "edge (%d,%d) out of range", a, b)
        Graph(range(n), edges)  # raises on the first loop
    return Graph._trusted(range(n), sorted(set(es)))


def td_to_json(td: TreeDecomposition) -> dict:
    return {
        "tree_edges": [list(e) for e in td.tree.edges],
        "bags": {str(i): sorted(td.bags[i]) for i in sorted(td.bags)},
    }


def td_from_json(host: Graph, obj) -> TreeDecomposition:
    _require(isinstance(obj, dict), "decomposition document is not an object")
    _require(isinstance(obj.get("bags"), dict) and obj["bags"], "missing bags")
    bags = _int_keyed(obj["bags"], _is_int_list, "bag", "bag id")
    tree_edges = _int_pairs(obj.get("tree_edges", []), "tree_edges")
    tree = Graph(bags.keys(), tree_edges)
    return TreeDecomposition(host, tree, bags)


def minor_to_json(m: MinorModel) -> dict:
    return {
        "branch_sets": {str(v): sorted(s) for v, s in sorted(m.branch_sets.items())},
        "pattern": graph_to_json(m.pattern),
        "host_ref": graph_hash(m.host),
    }


def minor_from_json(host: Graph, obj) -> MinorModel:
    _require(isinstance(obj, dict), "minor document is not an object")
    _require(isinstance(obj.get("branch_sets"), dict), "missing branch_sets")
    if obj.get("host_ref") != graph_hash(host):
        raise ValueError("certificate host_ref does not match the supplied graph")
    pattern = obj.get("pattern")
    # a minor never has more vertices than its host; checked before the
    # reader builds a graph of the declared size
    _require(not (isinstance(pattern, dict) and _is_int(pattern.get("n"))
                  and pattern["n"] > host.n),
             "pattern has more vertices than the host's %d", host.n)
    pattern = graph_from_json(pattern)
    sets = _int_keyed(obj["branch_sets"], _is_int_list, "branch set", "pattern vertex")
    return MinorModel(host, pattern, sets)


def wall_to_json(w: SubdividedWall) -> dict:
    return {
        "height": w.height,
        "original": {str(p): v for p, v in sorted(w.original.items())},
        "paths": [{"edge": list(e), "path": list(p)} for e, p in sorted(w.paths.items())],
    }


def wall_from_json(host: Graph, obj) -> SubdividedWall:
    _require(isinstance(obj, dict), "wall document is not an object")
    _require(_is_int(obj.get("height")), "missing height")
    _require(isinstance(obj.get("original"), dict), "missing original map")
    _require(isinstance(obj.get("paths"), list), "missing paths")
    original = _int_keyed(obj["original"], _is_int, "original image of", "pattern vertex")
    paths = {}
    for entry in obj["paths"]:
        _require(isinstance(entry, dict) and "edge" in entry and "path" in entry,
                 "path entry %r", entry)
        e, p = entry["edge"], entry["path"]
        _require(_is_int_pair(e), "path edge entry %r", e)
        a, b = e
        _require(_is_int_list(p), "host path for edge (%d,%d)", a, b)
        key = (min(a, b), max(a, b))
        _require(key not in paths, "pattern edge (%d,%d) given twice", a, b)
        # written from either end, the path is stored from key[0]'s image
        start = original.get(key[0])
        paths[key] = tuple(p[::-1] if p and p[0] != start and p[-1] == start else p)
    return SubdividedWall(host, obj["height"], original, paths)


def rural_to_json(rd: RuralDivision) -> dict:
    return {"flaps": [[list(e) for e in d.edges] for d in rd.flaps]}


def rural_from_json(c: Compass, obj) -> RuralDivision:
    _require(isinstance(obj, dict), "division document is not an object")
    _require(isinstance(obj.get("flaps"), list), "missing flaps")
    groups = [_int_pairs(flap, "flap %d", i) for i, flap in enumerate(obj["flaps"])]
    return division_from_edge_lists(c, groups)


def certificate_to_json(cert: WeakStructureCertificate) -> dict:
    doc = {"clause": cert.clause}
    if cert.clause == 1:
        doc["minor"] = minor_to_json(cert.minor)
    elif cert.clause == 2:
        doc["decomposition"] = td_to_json(cert.decomposition)
        doc["width_bound"] = cert.width_bound
    elif cert.clause == 3:
        doc["apex_set"] = list(cert.apex_set)
        doc["wall"] = wall_to_json(cert.wall)
        doc["division"] = rural_to_json(cert.division)
        doc["flap_width_bound"] = cert.flap_width_bound
    return doc


def certificate_from_json(g: Graph, obj) -> WeakStructureCertificate:
    """Rebuild a certificate against host g.

    Shape errors raise; semantic problems (invalid wall, broken division)
    are left intact for verify_certificate to reject with a named
    condition.
    """
    _require(isinstance(obj, dict), "certificate document is not an object")
    clause = obj.get("clause")
    _require(clause == "undetermined" or _is_int(clause), "unknown clause %r", clause)
    if clause == "undetermined":
        return WeakStructureCertificate("undetermined")
    if clause == 1:
        return WeakStructureCertificate(1, minor=minor_from_json(g, obj.get("minor")))
    if clause == 2:
        _require(_is_int(obj.get("width_bound")), "missing width_bound")
        td = td_from_json(g, obj.get("decomposition"))
        return WeakStructureCertificate(2, decomposition=td, width_bound=obj["width_bound"])
    if clause == 3:
        apexes = obj.get("apex_set")
        _require(_is_int_list(apexes), "missing apex_set")
        _require(len(set(apexes)) == len(apexes), "apex_set %r repeats a vertex", apexes)
        _require(_is_int(obj.get("flap_width_bound")), "missing flap_width_bound")
        w = wall_from_json(g, obj.get("wall"))
        c = Compass(w, g)  # placeholder anchor; the verifier recomputes it
        rd = rural_from_json(c, obj.get("division"))
        return WeakStructureCertificate(3, apex_set=tuple(apexes), wall=w, division=rd,
                                        flap_width_bound=obj["flap_width_bound"])
    raise ValueError("malformed document: unknown clause %r" % (clause,))
