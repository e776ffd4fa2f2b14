"""Batch command line for generation, validation and certificate checks.

One verb per invocation.  Reports are single JSON documents on standard
output with a stable schema_version; diagnostics go to standard error.
Exit status taxonomy:

  0  claim verified / object produced
  1  claim refuted, witness in the report
  2  usage or input error
  3  undetermined at this scale (search budget or size cap)

Identical inputs produce byte-identical reports: keys are sorted and the
library is deterministic (no core operation draws randomness).
"""

import argparse
import json
import sys
from functools import lru_cache
from typing import Dict

from .common import SizeCapExceeded
from .decomposition import _width, exact_treewidth, validate as validate_td
from .graph import Graph, delete
from .generators import gamma, gamma_star, grid, lower_bound_graph, pyramid, wall
from .minors import verify_minor_model
from .rural import validate_rural
from .structure import HMinorFound, apex_reduce, trichotomy_check, verify_certificate
from .wall import _compass, identity_wall, is_flat, verify_wall
from . import serialize as ser

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_UNDETERMINED = 3

# Every graph document a verb reads is refused above this many declared
# vertices, before anything is built; a search with a lower cap checks its own.
HOST_CAP = 10_000


def _unique_keys(pairs: list) -> dict:
    # json.loads keeps the last of two equal keys; such a document is ambiguous
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError("malformed document: key %r given twice" % (key,))
    return doc


def _read_json(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as f:
            text = f.read()
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ValueError("%s: not valid JSON (%s)" % (path, e))


def _emit(doc: dict) -> None:
    doc["schema_version"] = ser.SCHEMA_VERSION
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _reject_report(verdict) -> dict:
    # every witness is an int, a string, a tuple or a list, which JSON writes as it is
    return {"verdict": "rejected", "condition": verdict.condition,
            "witness": verdict.witness, "detail": verdict.detail}


def _read_host(path: str) -> Graph:
    """A graph document, refused over HOST_CAP by its declared n before it
    is built."""
    doc = _read_json(path)
    if isinstance(doc, dict) and ser._is_int(doc.get("n")) and doc["n"] > HOST_CAP:
        raise SizeCapExceeded("host capped at %d vertices, got %d" % (HOST_CAP, doc["n"]))
    return ser.graph_from_json(doc)


def _relabel(g: Graph):
    """Contiguous 0..n-1 ids for interchange; returns (graph, old->new map)."""
    m = {v: i for i, v in enumerate(g.vertices)}
    return Graph(range(g.n), [(m[a], m[b]) for a, b in g.edges]), m


def _parse_params(pairs, allowed: Dict[str, int]) -> Dict[str, int]:
    out = dict(allowed)
    for chunk in pairs or []:
        for item in chunk.split(","):
            if "=" not in item:
                raise ValueError("--params expects name=value, got %r" % item)
            name, _, value = item.partition("=")
            if name not in allowed:
                raise ValueError("--params: unknown parameter %r (allowed: %s)"
                                 % (name, ", ".join(sorted(allowed))))
            try:
                out[name] = int(value)
            except ValueError:
                raise ValueError("--params: %s must be an integer, got %r" % (name, value))
    missing = [n for n, v in out.items() if v is None]
    if missing:
        raise ValueError("--params: missing %s" % ", ".join(sorted(missing)))
    return out


def _parse_ids(text: str):
    if not text.strip():
        return ()
    try:
        ids = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError("expected comma-separated vertex ids, got %r" % text)
    for i, v in enumerate(ids):
        if v in ids[:i]:
            raise ValueError("vertex id %d is given twice in %r" % (v, text))
    return ids


def _mapped_wall_doc(w, m) -> dict:
    doc = ser.wall_to_json(w)
    doc["original"] = {p: m[v] for p, v in doc["original"].items()}
    doc["paths"] = [{"edge": e["edge"], "path": [m[v] for v in e["path"]]}
                    for e in doc["paths"]]
    return doc


# family -> (parameters with defaults, the smallest value of each, vertex count); a
# default of None makes the parameter required, and the grid's "k" makes r equal k
FAMILIES = {
    "grid": ({"k": None, "r": "k"}, (2, 2), lambda k, r: k * r),
    "gamma": ({"k": None}, (3,), lambda k: k * k),
    "gamma-star": ({"k": None}, (3,), lambda k: k * k),
    "wall": ({"k": None}, (1,), lambda k: 2 * k * (k + 2)),
    "pyramid": ({"k": None, "l": None}, (2, 0), lambda k, l: k * k + l),
    "lower-bound": ({"k": None, "h": None}, (3, 6), lambda k, h: k * k + h - 5),
}


def cmd_generate(args) -> int:
    fam = args.family
    defaults, least, size = FAMILIES[fam]
    p = _parse_params(args.params, defaults)
    if fam == "grid" and p["r"] == "k":
        p["r"] = p["k"]
    # over the ceiling refused unbuilt, unless a parameter is below its least (a usage error)
    n = size(*p.values())
    if n > HOST_CAP and all(v >= low for v, low in zip(p.values(), least)):
        raise SizeCapExceeded("host capped at %d vertices, got %d" % (HOST_CAP, n))
    if fam == "grid":
        g, _ = grid(p["k"], p["r"])
        meta = {"rows": p["k"], "columns": p["r"]}
    elif fam == "gamma":
        tg = gamma(p["k"])
        g = tg.graph
        meta = {"size": tg.size, "loaded": tg.loaded, "external": list(tg.external)}
    elif fam == "gamma-star":
        g = gamma_star(p["k"])
        meta = {"size": p["k"]}
    elif fam == "wall":
        w = wall(p["k"])
        g = w.graph
        meta = {"height": p["k"], "corners": list(w.corners)}
    elif fam == "pyramid":
        g = pyramid(p["k"], p["l"])
        meta = {"grid_side": p["k"],
                "apexes": list(range(p["k"] ** 2, p["k"] ** 2 + p["l"]))}
    else:
        g = lower_bound_graph(p["k"], p["h"])
        meta = {"grid_side": p["k"],
                "apexes": list(range(p["k"] ** 2, p["k"] ** 2 + p["h"] - 5))}

    g2, m = _relabel(g)
    for key in ("loaded", "corners", "external", "apexes"):
        if key in meta:
            meta[key] = m[meta[key]] if key == "loaded" else [m[v] for v in meta[key]]
    if fam == "wall":
        meta["wall"] = _mapped_wall_doc(identity_wall(p["k"]), m)
    _emit({"family": fam, "params": {k: v for k, v in sorted(p.items())},
           "graph": ser.graph_to_json(g2), "meta": meta})
    return EXIT_OK


def cmd_treewidth(args) -> int:
    tw, td = exact_treewidth(_read_host(args.graph))
    _emit({"treewidth": tw, "decomposition": ser.td_to_json(td)})
    return EXIT_OK


def cmd_td_validate(args) -> int:
    g = _read_host(args.graph)
    td = ser.td_from_json(g, _read_json(args.decomposition))
    ok = validate_td(td)
    if not ok:
        _emit(_reject_report(ok))
        return EXIT_REFUTED
    _emit({"verdict": "accepted", "width": _width(td)})
    return EXIT_OK


def cmd_verify_minor(args) -> int:
    g = _read_host(args.graph)
    m = ser.minor_from_json(g, _read_json(args.minor))
    ok = verify_minor_model(m)
    if not ok:
        _emit(_reject_report(ok))
        return EXIT_REFUTED
    _emit({"verdict": "accepted"})
    return EXIT_OK


def cmd_check_flat(args) -> int:
    g = _read_host(args.graph)
    w = ser.wall_from_json(g, _read_json(args.wall))
    ok = verify_wall(w)
    if not ok:
        _emit(_reject_report(ok))
        return EXIT_REFUTED
    res = is_flat(_compass(w))
    if res.flat is None:
        print("check-flat: search budget exhausted after %d states" % res.explored,
              file=sys.stderr)
        _emit({"verdict": "undetermined", "explored": res.explored})
        return EXIT_UNDETERMINED
    if res.flat:
        _emit({"verdict": "flat", "explored": res.explored})
        return EXIT_OK
    _emit({"verdict": "not-flat", "witness": res.witness})
    return EXIT_REFUTED


def cmd_check_rural(args) -> int:
    g = _read_host(args.graph)
    w = ser.wall_from_json(g, _read_json(args.wall))
    ok = verify_wall(w)
    if not ok:
        _emit(_reject_report(ok))
        return EXIT_REFUTED
    rd = ser.rural_from_json(_compass(w), _read_json(args.division))
    ok = validate_rural(rd)
    if not ok:
        _emit(_reject_report(ok))
        return EXIT_REFUTED
    _emit({"verdict": "accepted", "flaps": len(rd.flaps)})
    return EXIT_OK


def cmd_reduce_apex(args) -> int:
    g = _read_host(args.graph)
    h_graph = _read_host(args.excluded)
    apexes = _parse_ids(args.apexes)
    w = ser.wall_from_json(delete(g, apexes), _read_json(args.wall))
    try:
        reduced, w2 = apex_reduce(g, h_graph, apexes, w, args.height, window_count=args.windows)
    except HMinorFound as e:  # no model of the excluded graph backs this yet
        print("reduce-apex: undetermined: %s" % e, file=sys.stderr)
        _emit({"verdict": "undetermined", "reason": str(e)})
        return EXIT_UNDETERMINED
    _emit({"verdict": "reduced", "apex_set": list(reduced),
           "wall": ser.wall_to_json(w2)})
    return EXIT_OK


def cmd_trichotomy(args) -> int:
    try:
        g = _read_host(args.graph)
        h_graph = _read_host(args.excluded)
        cert = trichotomy_check(g, h_graph, args.height, args.width_threshold)
    except SizeCapExceeded as e:
        print("trichotomy: %s" % e, file=sys.stderr)
        _emit({"clause": "undetermined"})
        return EXIT_UNDETERMINED
    _emit(ser.certificate_to_json(cert))
    return EXIT_UNDETERMINED if cert.clause == "undetermined" else EXIT_OK


def cmd_verify_cert(args) -> int:
    g = _read_host(args.graph)
    h_graph = _read_host(args.excluded)
    cert = ser.certificate_from_json(g, _read_json(args.certificate))
    ok = verify_certificate(g, h_graph, args.height, cert)
    if not ok:
        _emit(_reject_report(ok))
        return EXIT_REFUTED
    _emit({"verdict": "accepted", "clause": cert.clause})
    return EXIT_OK


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser depends on nothing in argv, so one per process serves every call."""
    top = argparse.ArgumentParser(
        prog="flatwall",
        description="walls, flat walls, rural divisions, minors and treewidth")
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("generate", help="emit a named graph family member")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--params", action="append", metavar="k=2[,r=3]",
                   help="family parameters, repeatable or comma-separated")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("treewidth", help="exact treewidth with a decomposition")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_treewidth)

    p = sub.add_parser("td-validate", help="check a tree decomposition")
    p.add_argument("--graph", required=True)
    p.add_argument("--decomposition", required=True)
    p.set_defaults(func=cmd_td_validate)

    p = sub.add_parser("verify-minor", help="check a minor model certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--minor", required=True)
    p.set_defaults(func=cmd_verify_minor)

    p = sub.add_parser("check-flat", help="decide flatness of a wall's compass")
    p.add_argument("--graph", required=True)
    p.add_argument("--wall", required=True)
    p.set_defaults(func=cmd_check_flat)

    p = sub.add_parser("check-rural", help="validate a rural division of a compass")
    p.add_argument("--graph", required=True)
    p.add_argument("--wall", required=True)
    p.add_argument("--division", required=True)
    p.set_defaults(func=cmd_check_rural)

    p = sub.add_parser("reduce-apex", help="drop one redundant apex against a flat wall")
    p.add_argument("--graph", required=True)
    p.add_argument("--excluded", required=True, help="graph whose minor is excluded")
    p.add_argument("--wall", required=True, help="wall in graph minus apexes")
    p.add_argument("--apexes", required=True, help="comma-separated vertex ids")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--windows", type=int, default=None,
                   help="number of disjoint subwall windows (default: derived)")
    p.set_defaults(func=cmd_reduce_apex)

    p = sub.add_parser("trichotomy", help="minor / small width / flat wall trichotomy")
    p.add_argument("--graph", required=True)
    p.add_argument("--excluded", required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width-threshold", type=int, required=True)
    p.set_defaults(func=cmd_trichotomy)

    p = sub.add_parser("verify-cert", help="re-validate a trichotomy certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--excluded", required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--certificate", required=True)
    p.set_defaults(func=cmd_verify_cert)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeCapExceeded as e:
        print("%s: undetermined at this scale: %s" % (args.verb, e), file=sys.stderr)
        _emit({"verdict": "undetermined", "reason": str(e)})
        return EXIT_UNDETERMINED
    except (ValueError, OSError) as e:
        print("%s: %s" % (args.verb, e), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
