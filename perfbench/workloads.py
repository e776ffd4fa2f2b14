"""The three workloads: corpus builders and one op each.

A corpus is a list of cases fixed by size parameters stated here; the seed
only relabels vertices, picks perturbations and draws the random graphs.
No case is chosen, dropped or swapped by its measured time.  Every case
carries the facts known about it by construction, and its op checks the
answer against them and against the independent verifier.

An op returns (status, signature, verify_s, verify) where status is "ok"
or "undetermined", signature fingerprints the answer (it must repeat in
every pass), verify_s is the CPU time of the op's verify step and verify
runs that step again (for timing only), both None when the answer has
nothing to verify.  A failed check raises CheckFailed.
"""

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
from time import process_time

fw = importlib.import_module("flatwall")
cli = importlib.import_module("flatwall.cli")
ser = importlib.import_module("flatwall.serialize")
Graph = fw.Graph


class CheckFailed(Exception):
    """An answer failed a correctness check."""


def check(cond, what):
    if not cond:
        raise CheckFailed(what)


def k33():
    return Graph(range(6), [(i, 3 + j) for i in range(3) for j in range(3)])


EXCLUDED = {"K5": lambda: fw.complete_graph(5), "K6": lambda: fw.complete_graph(6), "K33": k33}


def relabel(g, rng):
    """g on vertex ids 0..n-1 under a random permutation; returns (graph, old->new)."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    m = {v: perm[i] for i, v in enumerate(g.vertices)}
    return Graph(range(g.n), [(m[a], m[b]) for a, b in g.edges]), m


def gnp(n, p, rng):
    """G(n, p) conditioned on its expected edge count: round(p * n(n-1)/2)
    edges drawn uniformly, so the cost of a case does not swing with the
    number of edges drawn."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return Graph(range(n), rng.sample(pairs, round(p * len(pairs))))


def apex_grid(rows, cols):
    """rows x cols grid plus one vertex joined to every grid vertex."""
    g, _ = fw.grid(rows, cols)
    a = g.n
    return Graph(range(a + 1), list(g.edges) + [(v, a) for v in range(a)])


def subdivide_random(g, rng, times):
    """Subdivide `times` uniformly drawn edges, one after another."""
    for _ in range(times):
        g, _ = fw.subdivide(g, rng.choice(g.edges))
    return g


def timed(fn):
    """(CPU seconds, result) of one call of fn()."""
    t0 = process_time()
    result = fn()
    return process_time() - t0, result


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True)


# ---------------------------------------------------------------- certify
#
# (family, parameters, excluded, height, width threshold, copies, subdivisions)
# Facts by construction: grids are planar, so they have no K5, K3,3 or K6
# minor; lower_bound_graph(3, h) has no K_h minor; a planar graph plus one
# apex has no K6 minor; pyramid(3, 1) has K5 and K3,3 minors.  Known
# treewidths: grid min side, apex grid min side + 1, pyramid(3, l) 3 + l.
# Subdividing an edge keeps all of these (patterns have minimum degree 3,
# treewidths are at least 2).  G(n, p) cases have no stated facts.
# A pass holds 50 ops in four groups of like cost (on a shared 2-vCPU
# machine about 0.05, 0.15, 0.3 and 1 s: the small hosts; grid 3 x 3
# against K3,3 and the apex grid against K6; the apex grid against K5;
# lower_bound_graph(3, 6)), with copies set so that the median and the 90th
# percentile fall inside a group, not between two, whatever the seed.  The
# exhaustive K5 search in grid 3 x 4 runs in the search workload instead:
# its time moves by half with the vertex order.
CERTIFY_SLOTS = [
    ("pyramid", (3, 1), "K5", 1, 3, 3, 0),
    ("pyramid", (3, 1), "K33", 1, 2, 3, 0),
    ("gnp", (9, 0.35), "K5", 1, 3, 3, 0),
    ("gnp", (9, 0.35), "K6", 1, 3, 2, 0),
    ("grid", (2, 5), "K5", 1, 2, 2, 0),
    ("grid", (3, 3), "K5", 1, 2, 3, 1),
    ("grid", (3, 3), "K33", 1, 2, 8, 0),
    ("grid", (3, 3), "K33", 2, 3, 7, 0),
    ("apex-grid", (2, 4), "K6", 1, 2, 5, 0),
    ("apex-grid", (2, 4), "K5", 1, 3, 4, 0),
    ("lower-bound", (3, 6), "K6", 1, 3, 4, 0),
    ("lower-bound", (3, 6), "K6", 1, 4, 3, 0),
    ("lower-bound", (3, 6), "K6", 2, 3, 3, 0),
]
CERTIFY_TINY = [
    ("pyramid", (3, 1), "K5", 1, 3, 1, 0),
    ("grid", (3, 3), "K5", 1, 2, 1, 0),
    ("apex-grid", (2, 4), "K6", 1, 2, 1, 0),
    ("gnp", (9, 0.3), "K33", 1, 2, 1, 0),
]


def _certify_host(family, params, rng):
    """(graph, known treewidth or None, set of excluded names it is free of, has)"""
    if family == "pyramid":
        k, l = params
        has = {"K5", "K33"} if (k, l) == (3, 1) else set()
        return fw.pyramid(k, l), k + l, ({"K6"} if l == 1 else set()), has
    if family == "apex-grid":
        r, c = params
        return apex_grid(r, c), min(r, c) + 1, {"K6"}, set()
    if family == "grid":
        g, _ = fw.grid(*params)
        return g, min(params), {"K5", "K33", "K6"}, set()
    if family == "lower-bound":
        k, h = params
        return fw.lower_bound_graph(k, h), k + h - 5, {"K%d" % h}, set()
    if family == "gnp":
        n, p = params
        return gnp(n, p, rng), None, set(), set()
    raise ValueError("unknown family %r" % family)


def build_certify(seed, workdir, tiny=False):
    rng = random.Random("certify:%d" % seed)
    docs = {}
    for name, make in EXCLUDED.items():
        docs["h-%s" % name] = ser.graph_to_json(make())
    cases = []
    for family, params, hname, k, t, copies, subdiv in (CERTIFY_TINY if tiny else CERTIFY_SLOTS):
        for _ in range(copies):
            g, tw, free_of, has = _certify_host(family, params, rng)
            g = subdivide_random(g, rng, subdiv)
            g, _ = relabel(g, rng)
            i = len(cases)
            docs["g-%d" % i] = ser.graph_to_json(g)
            cases.append({"i": i, "family": family, "params": list(params), "excluded": hname,
                          "height": k, "threshold": t, "tw": tw,
                          "minor_free": hname in free_of, "has_minor": hname in has})
    for key, doc in docs.items():
        write_json(os.path.join(workdir, key + ".json"), doc)
    return [dict(c, workdir=workdir) for c in cases], digest([docs, cases])


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def certify_op(case):
    wd = case["workdir"]
    common = ["--graph", os.path.join(wd, "g-%d.json" % case["i"]),
              "--excluded", os.path.join(wd, "h-%s.json" % case["excluded"]),
              "--height", str(case["height"])]
    code, text = _cli(["trichotomy"] + common + ["--width-threshold", str(case["threshold"])])
    doc = json.loads(text)
    tw, t = case["tw"], case["threshold"]
    if code == 3:
        check(doc.get("clause") == "undetermined", "exit 3 without an undetermined report")
        check(not case["has_minor"], "undetermined although the minor exists")
        check(tw is None or tw > t, "undetermined although treewidth %d <= %d" % (tw or 0, t))
        return "undetermined", "undetermined", None, None
    check(code == 0, "trichotomy exited %r" % code)
    clause = doc.get("clause")
    check(clause in (1, 2, 3), "unknown clause %r" % clause)
    check(not (clause == 1 and case["minor_free"]), "minor certificate for a minor-free host")
    check(clause == 1 or not case["has_minor"], "clause %r although the minor exists" % clause)
    if clause != 1 and tw is not None:
        check((clause == 2) == (tw <= t), "clause %r with treewidth %d, threshold %d"
              % (clause, tw, t))
    cert = os.path.join(wd, "cert-%d.json" % case["i"])
    with open(cert, "w") as f:
        f.write(text)
    def verify():
        return _cli(["verify-cert"] + common + ["--certificate", cert])
    verify_s, (vcode, vtext) = timed(verify)
    check(vcode == 0, "verify-cert exited %r: %s" % (vcode, vtext.strip()))
    check(json.loads(vtext).get("clause") == clause, "verify-cert reports another clause")
    return "ok", hashlib.sha256(text.encode()).hexdigest(), verify_s, verify


# ----------------------------------------------------------------- search
#
# Treewidth: G(n, 0.3) (see gnp) at the listed n, and grids (treewidth =
# min side).  Minors: the negatives are exhaustive and known by
# construction (a planar host against K3,3, an apex over a planar graph
# against K6); so are the positives (pyramid(3, l) holds K_{4+l} and K3,3,
# a grid with both sides >= 3 holds K4).  A positive search takes a time
# that depends on the vertex order alone (C5 in a relabelled 5 x 6 grid
# took 0.1 ms to 10 s on a shared 2-vCPU machine), so positives keep the
# generator's order and only the negatives, whose exhaustive search visits
# the same states in any order, are relabelled.  Minor hosts have 10 to 18
# vertices: an exhaustive negative on a larger host takes longer than a
# whole run, and so does K3,3 in grid 3 x 4 (6.6 s of CPU on a shared
# 2-vCPU machine), which would leave too few passes in a run; K3,3 in
# grid 2 x 5 and K5 in grid 3 x 4 are the exhaustive planar negatives.
# Four copies of K6 in pyramid(3, 2), a positive of fixed cost, sit just
# below the three dearest ops, so that the 90th percentile falls among them
# and not between ops whose times move with the seed.
SEARCH_TW = [("gnp", 14, 16), ("gnp", 16, 1), ("grid", (3, 4), 1), ("grid", (3, 5), 1)]
SEARCH_MINORS = [
    # (host family, params, pattern, expect found, copies)
    ("grid", (2, 5), "K33", False, 1),
    ("grid", (3, 4), "K5", False, 1),
    ("pyramid", (3, 1), "K6", False, 1),
    ("pyramid", (3, 1), "K5", True, 2),
    ("pyramid", (3, 1), "K33", True, 2),
    ("pyramid", (3, 2), "K5", True, 1),
    ("pyramid", (3, 2), "K6", True, 4),
    ("pyramid", (3, 2), "K33", True, 1),
    ("pyramid", (4, 1), "K4", True, 1),
    ("grid", (3, 4), "K4", True, 2),
    ("grid", (4, 4), "K4", True, 2),
    ("grid", (3, 5), "K4", True, 1),
    ("grid", (3, 6), "K4", True, 1),
]
SEARCH_TINY_TW = [("gnp", 10, 1), ("grid", (3, 3), 1)]
SEARCH_TINY_MINORS = [("grid", (3, 3), "K5", False, 1), ("pyramid", (3, 1), "K5", True, 1)]

PATTERNS = dict(EXCLUDED, K4=lambda: fw.complete_graph(4))


def _search_host(family, params):
    if family == "grid":
        return fw.grid(*params)[0]
    if family == "pyramid":
        return fw.pyramid(*params)
    raise ValueError("unknown family %r" % family)


def build_search(seed, workdir, tiny=False):
    rng = random.Random("search:%d" % seed)
    cases = []
    for family, size, copies in (SEARCH_TINY_TW if tiny else SEARCH_TW):
        for _ in range(copies):
            if family == "gnp":
                g, tw = gnp(size, 0.3, rng), None
            else:
                g, tw = fw.grid(*size)[0], min(size)
            g, _ = relabel(g, rng)
            cases.append({"kind": "treewidth", "graph": g, "tw": tw})
    for family, params, pname, found, copies in (SEARCH_TINY_MINORS if tiny else SEARCH_MINORS):
        for _ in range(copies):
            g = _search_host(family, params)
            if not found:
                g, _ = relabel(g, rng)
            cases.append({"kind": "minor", "graph": g, "pattern": PATTERNS[pname](),
                          "found": found})
    rng.shuffle(cases)
    docs = [[c["kind"], ser.graph_to_json(c["graph"]),
             ser.graph_to_json(c["pattern"]) if "pattern" in c else None] for c in cases]
    write_json(os.path.join(workdir, "search.json"), docs)
    return cases, digest(docs)


def search_op(case):
    g = case["graph"]
    if case["kind"] == "treewidth":
        tw, td = fw.exact_treewidth(g)
        def verify():
            return fw.validate_decomposition(td)
        verify_s, ok = timed(verify)
        check(bool(ok), "decomposition rejected: %s" % ok.condition)
        check(fw.width(td) == tw, "decomposition width %d, claimed %d" % (fw.width(td), tw))
        check(case["tw"] is None or tw == case["tw"], "treewidth %d, known %r" % (tw, case["tw"]))
        return "ok", "tw=%d %r" % (tw, sorted(td.bags.items())), verify_s, verify
    model = fw.find_minor(g, case["pattern"])
    check((model is not None) == case["found"],
          "find_minor found=%s, expected %s" % (model is not None, case["found"]))
    if model is None:
        return "ok", "none", None, None
    def verify():
        return fw.verify_minor_model(model)
    verify_s, ok = timed(verify)
    check(bool(ok), "minor model rejected: %s" % ok.condition)
    check(model.host == g and model.pattern == case["pattern"], "model of the wrong graphs")
    signature = repr(sorted((p, sorted(s)) for p, s in model.branch_sets.items()))
    return "ok", signature, verify_s, verify


# ------------------------------------------------------------ flat-verify
#
# Hosts are one apex over wall(4) whose edges were subdivided the stated
# number of times (uniformly drawn edges, the wall re-found by
# refind_after_transform).  Only the tiny corpus uses wall(3): its ops take
# a few milliseconds, so with them the median op would be one whose time
# moves with each seed's subdivisions.  The certificate is the one the
# construction gives: the apex as apex set, the re-found wall, the
# one-flap-per-edge division.  Mutations are built to trip one condition
# each:
#   crossed  two fresh vertices wire the opposite corner pairs through the
#            interior, so the compass holds the crossing paths: not-flat
#   dropped  one flap left out of the division: division-invalid
#   merged   two vertex-disjoint flaps merged into one: division-invalid
#   height   the wall replaced by its height k-1 subwall: wall-height
# (k, subdivisions, [(kind, copies)])
FLAT_SLOTS = [
    (4, 0, [("valid", 6), ("crossed", 2), ("dropped", 1), ("merged", 1), ("height", 2)]),
    (4, 10, [("valid", 6), ("crossed", 2), ("dropped", 1), ("merged", 1), ("height", 2)]),
    (4, 20, [("valid", 6), ("crossed", 2), ("dropped", 1), ("merged", 1), ("height", 2)]),
]
FLAT_TINY = [(3, 2, [("valid", 1), ("crossed", 1), ("dropped", 1), ("merged", 1),
                     ("height", 1)])]
EXPECT = {"valid": "accepted", "crossed": "not-flat", "dropped": "division-invalid",
          "merged": "division-invalid", "height": "wall-height"}


def _flat_documents(k, subdivisions, kind, rng):
    """(graph document, certificate document) for one flat-verify case."""
    w = fw.identity_wall(k)
    ops, g = [], w.host
    for _ in range(subdivisions):
        e = rng.choice(g.edges)
        g, _ = fw.subdivide(g, e)
        ops.append(("subdivide", e))
    w = fw.refind_after_transform(fw.compass(w.host, w), ops)
    g = w.host
    rd = fw.trivial_division(fw.compass(g, w))
    bound = max((fw.exact_treewidth(d)[0] for d in fw.internal_flaps(rd)), default=0)
    flaps = [list(d.edges) for d in rd.flaps]
    if kind == "dropped":
        flaps.pop(rng.randrange(len(flaps)))
    elif kind == "merged":
        i = rng.randrange(len(flaps))
        ends = {v for e in flaps[i] for v in e}
        j = rng.choice([j for j, f in enumerate(flaps)
                        if not ends & {v for e in f for v in e}])
        flaps[i] = flaps[i] + flaps[j]
        del flaps[j]
    elif kind == "height":
        w = fw.subwall(w, 1, 1, k - 1)
    if kind == "crossed":
        c1, c2, c3, c4 = w.corners
        inner = sorted(w.vertices() - set(fw.perimeter(w)))
        z1 = g.fresh_id()
        z2 = z1 + 1
        i1, i2 = rng.sample(inner, 2)
        g = g.add_vertices([z1, z2]).add_edges(
            [(c1, z1), (z1, c3), (z1, i1), (c2, z2), (z2, c4), (z2, i2)])
    apex = g.fresh_id()
    g = g.add_vertices([apex]).add_edges(
        (apex, v) for v in rng.sample(sorted(w.vertices()), 6))
    g, m = relabel(g, rng)
    wall = fw.SubdividedWall(g, w.height, {p: m[v] for p, v in w.original.items()},
                             {e: tuple(m[v] for v in p) for e, p in w.paths.items()})
    division = fw.division_from_edge_lists(
        fw.Compass(wall, g), [[(m[a], m[b]) for a, b in f] for f in flaps])
    cert = fw.WeakStructureCertificate(3, apex_set=(m[apex],), wall=wall, division=division,
                                       flap_width_bound=bound)
    return ser.graph_to_json(g), ser.certificate_to_json(cert)


def build_flat(seed, workdir, tiny=False):
    rng = random.Random("flat-verify:%d" % seed)
    cases, docs = [], []
    for k, subdivisions, kinds in (FLAT_TINY if tiny else FLAT_SLOTS):
        for kind, copies in kinds:
            for _ in range(copies):
                cases.append({"height": k, "expect": EXPECT[kind],
                              "docs": _flat_documents(k, subdivisions, kind, rng)})
    rng.shuffle(cases)
    excluded = fw.complete_graph(6)
    for i, case in enumerate(cases):
        g_doc, c_doc = case.pop("docs")
        docs.append([case["height"], case["expect"], g_doc, c_doc])
        case["graph"] = os.path.join(workdir, "fg-%d.json" % i)
        case["certificate"] = os.path.join(workdir, "fc-%d.json" % i)
        case["excluded"] = excluded
        write_json(case["graph"], g_doc)
        write_json(case["certificate"], c_doc)
    return cases, digest(docs)


def flat_op(case):
    with open(case["graph"]) as f:
        g = ser.graph_from_json(json.load(f))
    with open(case["certificate"]) as f:
        cert = ser.certificate_from_json(g, json.load(f))
    def verify():
        return fw.verify_certificate(g, case["excluded"], case["height"], cert)
    verify_s, verdict = timed(verify)
    got = "accepted" if verdict else verdict.condition
    check(got == case["expect"], "verify_certificate gave %s (%s), built to give %s"
          % (got, verdict.detail, case["expect"]))
    return "ok", "%s %s" % (got, verdict.detail), verify_s, verify


# name -> (corpus builder, op, times the verify step is timed per op).  The
# runner re-runs the verify step after the op, outside the op's latency, and
# keeps its least time: on certify and search the step takes a millisecond
# or less beside ops of a tenth of a second and more, so a single sample
# moves with the cache state the op left behind; on flat-verify the step is
# the op.
WORKLOADS = {
    "certify": (build_certify, certify_op, 5),
    "search": (build_search, search_op, 9),
    "flat-verify": (build_flat, flat_op, 1),
}
