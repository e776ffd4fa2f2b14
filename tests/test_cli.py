"""Command line: exit taxonomy, report shapes, byte-identical output."""

import io
import json
import sys
import time
from importlib import import_module
from pathlib import Path

import pytest

import flatwall.paths as paths_module
from flatwall import cli, serialize as ser
from flatwall.cli import HOST_CAP, main
from flatwall.common import SizeCapExceeded
from flatwall.decomposition import TREEWIDTH_CAP, exact_treewidth
from flatwall.generators import gamma_star
from flatwall.graph import complete_graph, path_graph
from flatwall.serialize import (certificate_from_json, certificate_to_json, graph_from_json,
                                graph_to_json)
from flatwall.structure import TRICHOTOMY_HOST_CAP, trichotomy_check, verify_certificate

from fixtures import apexed_wall_host, document_mutations, k5_piece_host


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    return rc, json.loads(out) if out else None, err


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def complete_doc(tmp_path, n):
    return write_doc(tmp_path, "k%d.json" % n, graph_to_json(complete_graph(n)))


def generate_wall(capsys, tmp_path, k):
    rc, doc, _ = run_json(capsys, "generate", "--family", "wall", "--params", "k=%d" % k)
    assert rc == 0
    graph = write_doc(tmp_path, "wall%d-graph.json" % k, doc["graph"])
    wall = write_doc(tmp_path, "wall%d-wall.json" % k, doc["meta"]["wall"])
    return doc, graph, wall


def test_generate_wall_report(capsys):
    rc, doc, _ = run_json(capsys, "generate", "--family", "wall", "--params", "k=2")
    assert rc == 0
    assert doc["schema_version"] == 1
    assert doc["family"] == "wall"
    assert doc["params"] == {"k": 2}
    assert doc["graph"]["n"] == 16
    assert doc["meta"]["corners"] == [0, 4, 15, 11]
    assert doc["meta"]["wall"]["height"] == 2


def test_generate_byte_identical(capsys):
    rc1, out1, _ = run(capsys, "generate", "--family", "gamma", "--params", "k=4")
    rc2, out2, _ = run(capsys, "generate", "--family", "gamma", "--params", "k=4")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_generate_grid_defaults_square(capsys):
    rc, doc, _ = run_json(capsys, "generate", "--family", "grid", "--params", "k=3")
    assert rc == 0
    assert doc["params"] == {"k": 3, "r": 3}
    assert doc["graph"]["n"] == 9


def test_generate_grid_reports_rows_by_columns(capsys):
    # grid(k, r) has k rows of r vertices each
    rc, doc, _ = run_json(capsys, "generate", "--family", "grid", "--params", "k=2,r=3")
    assert rc == 0
    assert doc["meta"] == {"rows": 2, "columns": 3}


def test_generate_param_errors(capsys):
    rc, out, err = run(capsys, "generate", "--family", "grid", "--params", "q=3")
    assert rc == 2 and out == "" and "unknown parameter" in err
    rc, out, err = run(capsys, "generate", "--family", "grid")
    assert rc == 2 and "missing k" in err
    rc, out, err = run(capsys, "generate", "--family", "grid", "--params", "k=two")
    assert rc == 2 and "must be an integer" in err
    rc, out, err = run(capsys, "generate", "--family", "grid", "--params", "k")
    assert (rc, out) == (2, "") and "--params expects name=value, got 'k'" in err
    # r=0 is a side of 0, not "r not given"
    rc, out, err = run(capsys, "generate", "--family", "grid", "--params", "k=3,r=0")
    assert (rc, out) == (2, "") and "grid needs both sides >= 2, got 3x0" in err


def test_generate_refuses_a_member_over_the_ceiling_unbuilt(capsys, monkeypatch):
    # n is worked out from the parameters: k=1000000 would be a grid of 10**12 vertices
    for name in ("grid", "gamma", "gamma_star", "wall", "pyramid", "lower_bound_graph"):
        monkeypatch.setattr(cli, name, lambda *args: pytest.fail("built"))
    for family, params, n in (("grid", "k=1000000", 10 ** 12), ("grid", "k=100,r=101", 10100),
                              ("gamma", "k=101", 10201), ("gamma-star", "k=101", 10201),
                              ("wall", "k=70", 10080), ("pyramid", "k=100,l=1", 10001),
                              ("lower-bound", "k=100,h=6", 10001)):
        rc, rep, err = run_json(capsys, "generate", "--family", family, "--params", params)
        reason = "host capped at %d vertices, got %d" % (HOST_CAP, n)
        assert (rc, rep) == (3, {"verdict": "undetermined", "reason": reason,
                                 "schema_version": 1}), family
        assert reason in err
    # below a family's smallest parameters its generator's usage error stands
    monkeypatch.undo()
    for family, params in (("grid", "k=1,r=1000000"), ("grid", "k=-1000000"),
                           ("gamma", "k=-1000"), ("gamma-star", "k=-1000"), ("wall", "k=-1000"),
                           ("pyramid", "k=1000,l=-1"), ("lower-bound", "k=1000,h=5")):
        rc, out, err = run(capsys, "generate", "--family", family, "--params", params)
        assert (rc, out) == (2, ""), family


def test_generate_gamma_star_and_pyramid_meta(capsys):
    rc, doc, _ = run_json(capsys, "generate", "--family", "gamma-star", "--params", "k=3")
    assert rc == 0
    assert (doc["params"], doc["meta"]) == ({"k": 3}, {"size": 3})
    assert (doc["graph"]["n"], len(doc["graph"]["edges"])) == (gamma_star(3).n, gamma_star(3).m)
    rc, doc, _ = run_json(capsys, "generate", "--family", "pyramid", "--params", "k=3,l=2")
    assert rc == 0
    assert (doc["params"], doc["meta"]) == ({"k": 3, "l": 2},
                                            {"grid_side": 3, "apexes": [9, 10]})
    # after relabelling, the apexes named in meta are the ones joined to every vertex
    g = graph_from_json(doc["graph"])
    assert g.n == 11
    assert [v for v in g.vertices if g.degree(v) == g.n - 1] == doc["meta"]["apexes"]


def test_treewidth_and_td_validate(capsys, tmp_path):
    k5 = complete_doc(tmp_path, 5)
    rc, doc, _ = run_json(capsys, "treewidth", "--graph", k5)
    assert rc == 0
    assert doc["treewidth"] == 4
    td = write_doc(tmp_path, "k5-td.json", doc["decomposition"])
    rc, doc, _ = run_json(capsys, "td-validate", "--graph", k5, "--decomposition", td)
    assert rc == 0
    assert doc == {"schema_version": 1, "verdict": "accepted", "width": 4}


def test_treewidth_takes_no_cap_flag(capsys, tmp_path):
    # the cap is the library's, read when exact_treewidth is called
    with pytest.raises(SystemExit) as exc:
        main(["treewidth", "--graph", complete_doc(tmp_path, 5), "--cap", "5"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_td_validate_rejects_holes(capsys, tmp_path):
    k5 = complete_doc(tmp_path, 5)
    rc, doc, _ = run_json(capsys, "treewidth", "--graph", k5)
    bags = {key: [v for v in bag if v != 4] for key, bag in doc["decomposition"]["bags"].items()}
    td = write_doc(tmp_path, "holed.json",
                   {"tree_edges": doc["decomposition"]["tree_edges"], "bags": bags})
    rc, doc, _ = run_json(capsys, "td-validate", "--graph", k5, "--decomposition", td)
    assert rc == 1
    assert doc["verdict"] == "rejected"
    assert doc["condition"] == "uncovered-vertex"


def test_verify_minor_accept_and_reject(capsys, tmp_path):
    rc, doc, _ = run_json(capsys, "generate", "--family", "grid", "--params", "k=3")
    graph = write_doc(tmp_path, "g33.json", doc["graph"])
    rc, tri, _ = run_json(capsys, "trichotomy", "--graph", graph,
                          "--excluded", complete_doc(tmp_path, 4),
                          "--height", "1", "--width-threshold", "2")
    assert rc == 0 and tri["clause"] == 1
    minor = write_doc(tmp_path, "minor.json", tri["minor"])
    rc, rep, _ = run_json(capsys, "verify-minor", "--graph", graph, "--minor", minor)
    assert rc == 0 and rep["verdict"] == "accepted"

    squashed = dict(tri["minor"])
    sets = {k: list(v) for k, v in squashed["branch_sets"].items()}
    sets["0"] = sets["0"] + sets["1"]
    squashed["branch_sets"] = sets
    bad = write_doc(tmp_path, "minor-bad.json", squashed)
    rc, rep, _ = run_json(capsys, "verify-minor", "--graph", graph, "--minor", bad)
    assert rc == 1
    assert rep["condition"] == "overlapping-branch-sets"


def test_check_flat_on_plane_wall(capsys, tmp_path):
    _, graph, wall = generate_wall(capsys, tmp_path, 2)
    rc, doc, _ = run_json(capsys, "check-flat", "--graph", graph, "--wall", wall)
    assert rc == 0
    assert doc["verdict"] == "flat"


def test_check_flat_refutes_crossed_wall(capsys, tmp_path):
    doc, _, wall = generate_wall(capsys, tmp_path, 2)
    g = doc["graph"]
    # thread two cross vertices between opposite corners through the interior
    crossed = {"n": g["n"] + 2,
               "edges": g["edges"] + [[0, 16], [15, 16], [7, 16],
                                      [4, 17], [11, 17], [8, 17]]}
    graph = write_doc(tmp_path, "crossed.json", crossed)
    rc, rep, _ = run_json(capsys, "check-flat", "--graph", graph, "--wall", wall)
    assert rc == 1
    assert rep["verdict"] == "not-flat"
    ends = {p[0] for p in rep["witness"]} | {p[-1] for p in rep["witness"]}
    assert ends == {0, 4, 15, 11}


def test_check_flat_budget_runs_out(capsys, tmp_path, monkeypatch):
    _, graph, wall = generate_wall(capsys, tmp_path, 2)
    monkeypatch.setattr(paths_module, "TWO_PATHS_BUDGET", 0)
    rc, rep, err = run_json(capsys, "check-flat", "--graph", graph, "--wall", wall)
    assert rc == 3
    assert rep == {"explored": 0, "schema_version": 1, "verdict": "undetermined"}
    assert "budget" in err
    # the budget is the search's own: no flag sets it, on wall(8) (160 vertices) either
    for k in (2, 8):
        _, graph, wall = generate_wall(capsys, tmp_path, k)
        with pytest.raises(SystemExit) as exc:
            main(["check-flat", "--graph", graph, "--wall", wall, "--budget", "5"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_check_flat_budget_gives_the_same_bytes_every_run(capsys, tmp_path, monkeypatch):
    # the search on this flat compass (72 vertices) needs far more than 100,000 states
    g, w = k5_piece_host(5)
    g2, m = cli._relabel(g)
    graph = write_doc(tmp_path, "g.json", graph_to_json(g2))
    wall = write_doc(tmp_path, "w.json", cli._mapped_wall_doc(w, m))
    monkeypatch.setattr(paths_module, "TWO_PATHS_BUDGET", 100_000)
    runs = [run(capsys, "check-flat", "--graph", graph, "--wall", wall) for _ in range(3)]
    assert runs[0][:2] == (3, '{"explored": 100000, "schema_version": 1, '
                              '"verdict": "undetermined"}\n')
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_a_wall_document_may_run_end_to_start(capsys, tmp_path):
    # every entry [b, a] with its path reversed, the entries in reverse order
    doc, graph, wall = generate_wall(capsys, tmp_path, 3)
    forward = doc["meta"]["wall"]
    backward = dict(forward, paths=[{"edge": e["edge"][::-1], "path": e["path"][::-1]}
                                    for e in reversed(forward["paths"])])
    host = graph_from_json(doc["graph"])
    a, b = ser.wall_from_json(host, forward), ser.wall_from_json(host, backward)
    assert (a.original, a.paths) == (b.original, b.paths)
    back = write_doc(tmp_path, "backward.json", backward)
    outs = [run(capsys, "check-flat", "--graph", graph, "--wall", path) for path in (wall, back)]
    assert outs[0][0] == 0 and outs[1] == outs[0]


def test_check_flat_rejects_a_height_the_host_cannot_hold(capsys, tmp_path):
    doc, graph, _ = generate_wall(capsys, tmp_path, 2)
    wall = write_doc(tmp_path, "tall.json", dict(doc["meta"]["wall"], height=10 ** 6))
    rc, rep, _ = run_json(capsys, "check-flat", "--graph", graph, "--wall", wall)
    assert rc == 1
    assert rep["condition"] == "bad-height" and rep["witness"] == 10 ** 6


def test_check_rural_accept_and_reject(capsys, tmp_path):
    doc, graph, wall = generate_wall(capsys, tmp_path, 1)
    flaps = [[e] for e in doc["graph"]["edges"]]
    division = write_doc(tmp_path, "division.json", {"flaps": flaps})
    rc, rep, _ = run_json(capsys, "check-rural", "--graph", graph, "--wall", wall,
                          "--division", division)
    assert rc == 0
    assert rep == {"schema_version": 1, "verdict": "accepted", "flaps": 6}

    division = write_doc(tmp_path, "division-short.json", {"flaps": flaps[1:]})
    rc, rep, _ = run_json(capsys, "check-rural", "--graph", graph, "--wall", wall,
                          "--division", division)
    assert rc == 1
    assert rep["condition"] == "property-1"

    # a wall the host cannot hold is rejected before the division is read
    tall = write_doc(tmp_path, "tall.json", dict(doc["meta"]["wall"], height=10 ** 6))
    rc, rep, _ = run_json(capsys, "check-rural", "--graph", graph, "--wall", tall,
                          "--division", str(tmp_path / "absent.json"))
    assert rc == 1
    assert rep["condition"] == "bad-height" and rep["witness"] == 10 ** 6


def test_check_rural_reports_a_flap_outside_the_compass(capsys, tmp_path):
    # a semantic defect: the verifier names it, exit 1, like verify-cert does
    doc, graph, wall = generate_wall(capsys, tmp_path, 2)
    flaps = [[e] for e in doc["graph"]["edges"]] + [[[0, 15]]]
    division = write_doc(tmp_path, "division-alien.json", {"flaps": flaps})
    rc, rep, _ = run_json(capsys, "check-rural", "--graph", graph, "--wall", wall,
                          "--division", division)
    assert (rc, rep) == (1, {"schema_version": 1, "verdict": "rejected",
                             "condition": "property-1", "witness": [0, 15],
                             "detail": "flap 19 references edge 0-15 outside the compass"})


def apexed_wall_files(capsys, tmp_path, second_apex_edges):
    doc, _, wall = generate_wall(capsys, tmp_path, 3)
    g = doc["graph"]
    n = g["n"]
    edges = g["edges"] + [[v, n] for v in range(n)] + [[v, n + 1] for v in second_apex_edges]
    graph = write_doc(tmp_path, "apexed.json", {"n": n + 2, "edges": edges})
    return graph, wall, (n, n + 1)


def test_reduce_apex_drops_blind_apex(capsys, tmp_path):
    graph, wall, (a1, a2) = apexed_wall_files(capsys, tmp_path, [])
    rc, rep, _ = run_json(capsys, "reduce-apex", "--graph", graph,
                          "--excluded", complete_doc(tmp_path, 6),
                          "--wall", wall, "--apexes", "%d,%d" % (a1, a2),
                          "--height", "1", "--windows", "2")
    assert rc == 0
    assert rep["verdict"] == "reduced"
    assert rep["apex_set"] == [a1]
    assert rep["wall"]["height"] == 1


def test_reduce_apex_refuses_a_repeated_apex_id(capsys, tmp_path):
    # the distinct ids run; with one of them given twice the list is
    # malformed, as a certificate's apex_set that repeats a vertex is
    graph, wall, (a1, a2) = apexed_wall_files(capsys, tmp_path, [])
    common = ["reduce-apex", "--graph", graph, "--excluded", complete_doc(tmp_path, 6),
              "--wall", wall, "--height", "1", "--windows", "2"]
    rc, rep, _ = run_json(capsys, *common, "--apexes", "%d,%d" % (a1, a2))
    assert (rc, rep["apex_set"]) == (0, [a1])
    ids = "%d,%d,%d" % (a1, a1, a2)
    rc, out, err = run(capsys, *common, "--apexes", ids)
    assert (rc, out) == (2, "")
    assert "reduce-apex: vertex id %d is given twice in %r" % (a1, ids) in err


def test_trichotomy_with_the_empty_excluded_graph(capsys, tmp_path):
    # every graph has the empty graph as a minor: clause 1 with no branch sets
    graph = write_doc(tmp_path, "p3.json", graph_to_json(path_graph(3)))
    empty = write_doc(tmp_path, "empty.json", {"n": 0, "edges": []})
    rc, cert, _ = run_json(capsys, "trichotomy", "--graph", graph, "--excluded", empty,
                           "--height", "1", "--width-threshold", "1")
    assert rc == 0
    assert cert["clause"] == 1 and cert["minor"]["branch_sets"] == {}
    assert cert["minor"]["pattern"] == {"n": 0, "edges": []}
    cert_path = write_doc(tmp_path, "cert.json", cert)
    rc, rep, _ = run_json(capsys, "verify-cert", "--graph", graph, "--excluded", empty,
                          "--height", "1", "--certificate", cert_path)
    assert (rc, rep) == (0, {"verdict": "accepted", "clause": 1, "schema_version": 1})


def test_reduce_apex_is_undetermined_when_every_apex_sees_every_window(capsys, tmp_path):
    # wall(2) plus two apices on its first vertex (n = 18) has no K6 minor, yet
    # both apices see the one window: no minor is claimed
    doc, _, wall = generate_wall(capsys, tmp_path, 2)
    g = doc["graph"]
    graph = write_doc(tmp_path, "apexed2.json",
                      {"n": 18, "edges": g["edges"] + [[0, 16], [0, 17]]})
    rc, rep, err = run_json(capsys, "reduce-apex", "--graph", graph,
                            "--excluded", complete_doc(tmp_path, 6),
                            "--wall", wall, "--apexes", "16,17",
                            "--height", "1", "--windows", "1")
    assert (rc, rep) == (3, {"schema_version": 1, "verdict": "undetermined",
                             "reason": "every apex sees every window compass "
                                       "(apices 2, windows 1)"})
    assert "reduce-apex: undetermined: every apex sees every window" in err


def test_reduce_apex_derives_its_constants(capsys, tmp_path):
    graph, wall, (a1, a2) = apexed_wall_files(capsys, tmp_path, [0])
    common = ["reduce-apex", "--graph", graph, "--wall", wall, "--height", "1"]
    k6 = complete_doc(tmp_path, 6)
    # an empty apex set has nothing to drop, even against a planar excluded graph
    for excluded in (k6, complete_doc(tmp_path, 4)):
        rc, out, err = run(capsys, *common, "--excluded", excluded, "--apexes", "",
                           "--windows", "2")
        assert (rc, out) == (2, "")
        assert "no apex to drop" in err
    rc, out, err = run(capsys, *common, "--excluded", k6, "--apexes", "1,x", "--windows", "2")
    assert (rc, out) == (2, "")
    assert "reduce-apex: expected comma-separated vertex ids, got '1,x'" in err
    # no --windows: f5^2 windows with f5 = 14 (6 - 2) + ceil(sqrt(2)) - 24 = 34 for K6
    rc, out, err = run(capsys, *common, "--excluded", k6, "--apexes", "%d,%d" % (a1, a2))
    assert (rc, out) == (2, "")
    assert "cannot pack 1156 subwalls" in err
    # the apex number of H is computed, so an H over its 16-vertex cap is undetermined
    p17 = write_doc(tmp_path, "p17.json", graph_to_json(path_graph(17)))
    rc, rep, err = run_json(capsys, *common, "--excluded", p17, "--apexes", "%d,%d" % (a1, a2))
    assert (rc, rep) == (3, {"verdict": "undetermined", "schema_version": 1,
                             "reason": "apex search capped at 16 vertices, got 17"})
    assert "apex search capped at 16" in err
    with pytest.raises(SystemExit) as exc:
        main(["reduce-apex", "--help"])
    assert exc.value.code == 0
    flags = {w.strip("[],") for w in capsys.readouterr().out.split() if w.startswith(("--", "[--"))}
    assert flags == {"--graph", "--excluded", "--wall", "--apexes", "--height", "--windows",
                     "--help"}


def lower_bound_files(capsys, tmp_path):
    rc, doc, _ = run_json(capsys, "generate", "--family", "lower-bound",
                          "--params", "k=3,h=6")
    assert rc == 0
    return write_doc(tmp_path, "lb.json", doc["graph"])


def test_trichotomy_to_verify_cert_pipeline(capsys, tmp_path):
    graph = lower_bound_files(capsys, tmp_path)
    k6 = complete_doc(tmp_path, 6)
    rc, cert, _ = run_json(capsys, "trichotomy", "--graph", graph, "--excluded", k6,
                           "--height", "1", "--width-threshold", "3")
    assert rc == 0
    assert cert["clause"] == 3
    cert_path = write_doc(tmp_path, "cert.json", cert)
    rc, rep, _ = run_json(capsys, "verify-cert", "--graph", graph, "--excluded", k6,
                          "--height", "1", "--certificate", cert_path)
    assert rc == 0
    assert rep["verdict"] == "accepted" and rep["clause"] == 3
    # an excluded graph over the apex search's cap: exit 3 with a JSON reason
    p17 = write_doc(tmp_path, "p17.json", graph_to_json(path_graph(17)))
    rc, rep, err = run_json(capsys, "verify-cert", "--graph", graph, "--excluded", p17,
                            "--height", "1", "--certificate", cert_path)
    assert (rc, rep) == (3, {"verdict": "undetermined", "schema_version": 1,
                             "reason": "apex search capped at 16 vertices, got 17"})
    assert "verify-cert" in err

    fat = json.loads(Path(cert_path).read_text())
    fat["apex_set"] = [0, 1, 2]
    fat_path = write_doc(tmp_path, "cert-fat.json", fat)
    rc, rep, _ = run_json(capsys, "verify-cert", "--graph", graph, "--excluded", k6,
                          "--height", "1", "--certificate", fat_path)
    assert rc == 1
    assert rep["condition"] == "apex-set-too-large"

    torn = json.loads(Path(cert_path).read_text())
    torn["division"]["flaps"] = torn["division"]["flaps"][1:]
    torn_path = write_doc(tmp_path, "cert-torn.json", torn)
    rc, rep, _ = run_json(capsys, "verify-cert", "--graph", graph, "--excluded", k6,
                          "--height", "1", "--certificate", torn_path)
    assert rc == 1
    assert rep["condition"] == "division-invalid"


def test_verify_cert_refuses_an_apex_given_twice(capsys, tmp_path):
    # wall(2) plus one apex on its corners, against K6 (apex number 2)
    g, (a,), w = apexed_wall_host(2, [[0, 4, 17, 13]])
    g2, m = cli._relabel(g)
    graph = write_doc(tmp_path, "g.json", graph_to_json(g2))
    k6 = complete_doc(tmp_path, 6)
    cert = {"clause": 3, "apex_set": [m[a]], "wall": cli._mapped_wall_doc(w, m),
            "division": {"flaps": [[[m[x], m[y]]] for x, y in w.host.edges]},
            "flap_width_bound": 1}
    for apexes, want in (([m[a]], (0, "accepted")), ([m[a], m[a]], (2, None))):
        path = write_doc(tmp_path, "cert.json", dict(cert, apex_set=apexes))
        rc, rep, err = run_json(capsys, "verify-cert", "--graph", graph, "--excluded", k6,
                                "--height", "2", "--certificate", path)
        assert (rc, rep and rep["verdict"]) == want
    assert "malformed document: apex_set [%d, %d] repeats a vertex" % (m[a], m[a]) in err


def test_each_wall_verb_verifies_the_wall_once(capsys, tmp_path, monkeypatch):
    # the compass and the internal flaps take the wall as verified
    calls = []
    for name in ("flatwall.wall", "flatwall.cli", "flatwall.structure"):
        module = import_module(name)
        original = module.verify_wall
        monkeypatch.setattr(module, "verify_wall",
                            lambda w, original=original: calls.append(w) or original(w))
    doc, graph, wall = generate_wall(capsys, tmp_path, 3)
    division = write_doc(tmp_path, "division.json",
                         {"flaps": [[e] for e in doc["graph"]["edges"]]})
    lb, k6 = lower_bound_files(capsys, tmp_path), complete_doc(tmp_path, 6)
    cert = certificate_to_json(trichotomy_check(graph_from_json(json.loads(Path(lb).read_text())),
                                                complete_graph(6), 1, 3))
    assert cert["clause"] == 3
    cert_path = write_doc(tmp_path, "cert.json", cert)
    for argv, want in ((("check-flat", "--graph", graph, "--wall", wall), "flat"),
                       (("check-rural", "--graph", graph, "--wall", wall,
                         "--division", division), "accepted"),
                       (("verify-cert", "--graph", lb, "--excluded", k6, "--height", "1",
                         "--certificate", cert_path), "accepted")):
        del calls[:]
        rc, rep, _ = run_json(capsys, *argv)
        assert (rc, rep["verdict"], len(calls)) == (0, want, 1), argv


def test_verify_cert_exit_codes_on_mutated_certificates(capsys, tmp_path):
    # every 10th one-field mutation of certificates of clauses 3, 2 and 1:
    # exit 1 where the verifier rejects, 2 where the reader or the verifier
    # raises ValueError, 0 where the mutation leaves a valid certificate
    graph = lower_bound_files(capsys, tmp_path)
    g = graph_from_json(json.loads(Path(graph).read_text()))
    codes = set()
    for h, threshold in ((6, 3), (6, 4), (5, 3)):
        excluded = complete_doc(tmp_path, h)
        rc, cert, _ = run_json(capsys, "trichotomy", "--graph", graph, "--excluded", excluded,
                               "--height", "1", "--width-threshold", str(threshold))
        assert rc == 0
        for i, (path, value, bad) in enumerate(document_mutations(cert)):
            if i % 10:
                continue
            try:
                want = 0 if verify_certificate(g, complete_graph(h), 1,
                                               certificate_from_json(g, bad)) else 1
            except ValueError:
                want = 2
            cert_path = write_doc(tmp_path, "mutated.json", bad)
            rc, _, _ = run(capsys, "verify-cert", "--graph", graph, "--excluded", excluded,
                           "--height", "1", "--certificate", cert_path)
            assert rc == want, (path, value)
            codes.add(rc)
    assert {1, 2} <= codes


def test_verify_cert_rejects_a_pattern_larger_than_the_host(capsys, tmp_path):
    graph = lower_bound_files(capsys, tmp_path)
    k5 = complete_doc(tmp_path, 5)
    rc, cert, _ = run_json(capsys, "trichotomy", "--graph", graph, "--excluded", k5,
                           "--height", "1", "--width-threshold", "3")
    assert rc == 0 and cert["clause"] == 1
    cert["minor"]["pattern"]["n"] = 10 ** 6
    rc, out, err = run(capsys, "verify-cert", "--graph", graph, "--excluded", k5,
                       "--height", "1", "--certificate", write_doc(tmp_path, "big.json", cert))
    assert rc == 2
    assert "more vertices than the host" in err


def test_trichotomy_undetermined(capsys, tmp_path):
    rc, cert, _ = run_json(capsys, "trichotomy", "--graph", complete_doc(tmp_path, 5),
                           "--excluded", complete_doc(tmp_path, 6),
                           "--height", "1", "--width-threshold", "1")
    assert rc == 3
    assert cert == {"clause": "undetermined", "schema_version": 1}


def test_trichotomy_size_cap(capsys, tmp_path):
    rc, cert, err = run_json(capsys, "trichotomy", "--graph", complete_doc(tmp_path, 17),
                             "--excluded", complete_doc(tmp_path, 4),
                             "--height", "1", "--width-threshold", "1")
    assert rc == 3
    assert cert == {"clause": "undetermined", "schema_version": 1}
    assert "host capped at %d vertices, got 17" % TRICHOTOMY_HOST_CAP in err


def test_trichotomy_height_below_one_is_a_usage_error(capsys, tmp_path):
    graph, k4 = complete_doc(tmp_path, 5), complete_doc(tmp_path, 4)
    for height in ("0", "-1"):
        rc, out, err = run(capsys, "trichotomy", "--graph", graph, "--excluded", k4,
                           "--height", height, "--width-threshold", "1")
        assert (rc, out) == (2, "") and "must be positive" in err
    # past height 2 no wall fits a trichotomy host, but clauses 1 and 2 still answer
    rc, cert, _ = run_json(capsys, "trichotomy", "--graph", graph, "--excluded", k4,
                           "--height", "3", "--width-threshold", "1")
    assert (rc, cert["clause"]) == (0, 1)
    k5 = complete_graph(5)
    assert verify_certificate(k5, complete_graph(4), 3, certificate_from_json(k5, cert))
    cycle = write_doc(tmp_path, "c6.json", {"n": 6, "edges": [[i, (i + 1) % 6]
                                                              for i in range(6)]})
    rc, cert, _ = run_json(capsys, "trichotomy", "--graph", cycle, "--excluded", k4,
                           "--height", "3", "--width-threshold", "1")
    assert (rc, cert) == (3, {"clause": "undetermined", "schema_version": 1})
    # a wall taller than the host is not built
    start = time.process_time()
    rc, cert, _ = run_json(capsys, "trichotomy", "--graph", k4, "--excluded", graph,
                           "--height", "1000000", "--width-threshold", "1")
    assert time.process_time() - start < 0.5
    assert (rc, cert) == (3, {"clause": "undetermined", "schema_version": 1})


def test_json_true_is_not_a_vertex_count_or_id(capsys, tmp_path):
    k4 = complete_doc(tmp_path, 4)
    for i, doc in enumerate(({"n": True, "edges": []}, {"n": 3, "edges": [[True, 2]]})):
        graph = write_doc(tmp_path, "true-%d.json" % i, doc)
        for argv in (("treewidth",), ("trichotomy", "--excluded", k4, "--height", "1",
                                      "--width-threshold", "1")):
            rc, out, err = run(capsys, argv[0], "--graph", graph, *argv[1:])
            assert (rc, out) == (2, "") and "malformed document" in err, (doc, argv)


def test_host_over_the_cap_is_refused_before_it_is_built(capsys, tmp_path):
    # the declared n alone decides at the host ceiling; under it the library
    # refuses a built over-cap host: treewidth names the library's reason,
    # trichotomy prints its certificate document
    with pytest.raises(SizeCapExceeded) as exc:
        exact_treewidth(path_graph(TREEWIDTH_CAP + 1))
    built = write_doc(tmp_path, "built.json", graph_to_json(path_graph(TREEWIDTH_CAP + 1)))
    rc, rep, err = run_json(capsys, "treewidth", "--graph", built)
    assert (rc, rep) == (3, {"verdict": "undetermined", "reason": str(exc.value),
                             "schema_version": 1})
    assert "treewidth" in err
    huge = write_doc(tmp_path, "huge.json", {"n": 10 ** 9, "edges": []})
    start = time.process_time()
    rc, rep, _ = run_json(capsys, "treewidth", "--graph", huge)
    assert time.process_time() - start < 0.5
    assert (rc, rep["reason"]) == (3, "host capped at %d vertices, got %d" % (HOST_CAP, 10 ** 9))
    start = time.process_time()
    rc, cert, err = run_json(capsys, "trichotomy", "--graph", huge,
                             "--excluded", complete_doc(tmp_path, 4),
                             "--height", "1", "--width-threshold", "1")
    assert time.process_time() - start < 0.5
    assert (rc, cert) == (3, {"clause": "undetermined", "schema_version": 1})
    assert "host capped at %d vertices, got %d" % (HOST_CAP, 10 ** 9) in err


def test_every_verb_refuses_a_graph_over_the_ceiling_unbuilt(capsys, tmp_path, monkeypatch):
    # each graph document a verb reads, host or excluded graph, meets
    # HOST_CAP before the reader sees it
    read = []
    monkeypatch.setattr(ser, "graph_from_json",
                        lambda doc, original=ser.graph_from_json: read.append(doc["n"])
                        or original(doc))
    big = write_doc(tmp_path, "big.json", {"n": HOST_CAP + 1, "edges": []})
    small, k6 = complete_doc(tmp_path, 4), complete_doc(tmp_path, 6)
    other = write_doc(tmp_path, "other.json", {})  # never read
    reason = "host capped at %d vertices, got %d" % (HOST_CAP, HOST_CAP + 1)
    verbs = [("td-validate", "--graph", big, "--decomposition", other),
             ("verify-minor", "--graph", big, "--minor", other),
             ("check-flat", "--graph", big, "--wall", other),
             ("check-rural", "--graph", big, "--wall", other, "--division", other),
             ("treewidth", "--graph", big)]
    for graph, excluded in ((big, k6), (small, big)):
        verbs += [("reduce-apex", "--graph", graph, "--excluded", excluded, "--wall", other,
                   "--apexes", "0", "--height", "1"),
                  ("verify-cert", "--graph", graph, "--excluded", excluded, "--height", "1",
                   "--certificate", other)]
    for argv in verbs:
        rc, rep, err = run_json(capsys, *argv)
        assert (rc, rep) == (3, {"verdict": "undetermined", "reason": reason,
                                 "schema_version": 1}), argv
        assert reason in err
    for graph, excluded in ((big, k6), (small, big)):
        rc, cert, err = run_json(capsys, "trichotomy", "--graph", graph, "--excluded", excluded,
                                 "--height", "1", "--width-threshold", "1")
        assert (rc, cert) == (3, {"clause": "undetermined", "schema_version": 1})
        assert "capped" in err
    assert HOST_CAP + 1 not in read
    # at the ceiling the graph is read
    rc, rep, _ = run_json(capsys, "td-validate", "--decomposition", other, "--graph",
                          write_doc(tmp_path, "at.json", {"n": HOST_CAP, "edges": []}))
    assert rc == 2 and read[-1] == HOST_CAP


def test_missing_file_is_usage_error(capsys, tmp_path):
    rc, out, err = run(capsys, "treewidth", "--graph", str(tmp_path / "absent.json"))
    assert rc == 2
    assert out == ""
    assert "treewidth:" in err


def test_invalid_json_is_usage_error(capsys, tmp_path):
    path = tmp_path / "noise.json"
    path.write_text("{not json")
    rc, out, err = run(capsys, "treewidth", "--graph", str(path))
    assert rc == 2
    assert "not valid JSON" in err


def test_a_key_given_twice_is_malformed(capsys, tmp_path):
    # json.loads keeps the last of two equal keys, so {"n": 3, "n": 4} read as 4 vertices
    graph = tmp_path / "twice.json"
    graph.write_text('{"n": 3, "n": 4, "edges": []}')
    rc, out, err = run(capsys, "treewidth", "--graph", str(graph))
    assert (rc, out) == (2, "") and "malformed document: key 'n' given twice" in err
    td = tmp_path / "td.json"
    td.write_text('{"bags": {"0": [0, 1, 2], "0": [0]}}')
    rc, out, err = run(capsys, "td-validate", "--graph", complete_doc(tmp_path, 3),
                       "--decomposition", str(td))
    assert (rc, out) == (2, "") and "malformed document: key '0' given twice" in err


def test_reads_graph_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(graph_to_json(complete_graph(4)))))
    rc, doc, _ = run_json(capsys, "treewidth", "--graph", "-")
    assert rc == 0
    assert doc["treewidth"] == 3


def test_unknown_verb_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
