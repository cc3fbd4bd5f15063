import json
from collections import Counter

import pytest

from zsl import invariants, models
from zsl.atoms import enumerate_atoms
from zsl.certify import ACM_SPEC
from zsl.cli import main
from zsl.constructions import hypercube_pm
from zsl.models import (AcmModel, FiniteAbelianGroup, MonextModel, TowerData, acm_report,
                        fp_rank1_invariants, hnp_report, monext_invariants)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def h2(tmp_path):
    plus = [(0, 1), (1, 0), (1, 1)]
    elems = sorted(plus + [tuple(-x for x in v) for v in plus])
    return write(tmp_path, "h2.json", {"rank": 2, "elements": [list(v) for v in elems]})


def test_davenport_hypercube2(capsys, h2):
    code, out, _ = run(capsys, "davenport", "-i", h2)
    assert code == 0
    report = json.loads(out)
    assert report["davenport"] == 3 and report["complete"] is True


def test_atoms_roundtrip(capsys, h2, tmp_path):
    out_path = tmp_path / "atoms.json"
    code, _, _ = run(capsys, "atoms", "-i", h2, "-o", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["complete"] and len(report["atoms"]) == 5


def test_atoms_bad_json_exit2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "atoms", "-i", str(bad))
    assert code == 2
    assert "JSON" in err


ACM_JSON = {"omega": 5, "c": ["1", "1", "1", "3/2", "3/2"], "lambda": [[1, 2], [3, 4]]}
# a ground set without atoms: as H0 it leaves monext nothing to sample
ATOMLESS = {"rank": 1, "elements": []}


@pytest.mark.parametrize("ground,argv", [
    ({"rank": 2, "elements": 5}, ["atoms", "-i", "GROUND"]),
    ({"rank": "2", "elements": [[1, 0], [-1, 0]]}, ["atoms", "-i", "GROUND"]),
    (5, ["atoms", "-i", "GROUND"]),
    (None, ["unions", "-i", "GROUND", "--k", "0"]),
    (None, ["delm", "-i", "GROUND", "--method", "enumerate", "--budget", "1"]),
    (None, ["fp", "--budget", "2"]),
    (None, ["monext", "--h0", "GROUND", "--d", "free:x"]),
    ({"omega": 3, "c": 5, "lambda": [[1, 2]]}, ["acm", "--spec", "GROUND"]),
    (5, ["acm", "--spec", "GROUND"]),
    ({"udim": 1, "cycle_towers": 5, "faithful_towers": [], "class_group": []},
     ["hnp", "--towers", "GROUND"]),
    ({"mult": 5}, ["lengths", "-i", "H2", "--element", "GROUND"]),
    ({"mult": ["1/0", 0, 0, 0, 0, 0]}, ["lengths", "-i", "H2", "--element", "GROUND"]),
    ({"omega": 3, "c": ["1", "1/0", "1"], "lambda": [[1, 2]]}, ["acm", "--spec", "GROUND"]),
    (None, ["monext", "--h0", "GROUND", "--d", "group:2", "--check", "thetta"]),
    (None, ["monext", "--h0", "GROUND", "--d", "group:2", "--samples", "0"]),
    (None, ["monext", "--h0", "GROUND", "--d", "group:2", "--samples", "-5"]),
    (None, ["monext", "--h0", "GROUND", "--d", "free:1", "--check", "invariants,catenary"]),
    (None, ["fp", "--group", "2", "--budget", "0"]),
    (None, ["probe-r4", "--budget", "0"]),
    (ACM_JSON, ["acm", "--spec", "GROUND", "--budget", "-1"]),
    (None, ["atoms", "-i", "GROUND", "--budget", "0"]),
    (None, ["unions", "-i", "GROUND", "--k", "2", "--strategy", "auto"]),
    (None, ["hypercube", "--rank", "17"]),
    (None, ["fib", "--rank", "17"]),
    (ATOMLESS, ["monext", "--h0", "GROUND", "--d", "group:2"]),
])
def test_bad_input_exit2_without_traceback(capsys, h2, tmp_path, ground, argv):
    path = h2 if ground is None else write(tmp_path, "g.json", ground)
    argv = [path if a == "GROUND" else h2 if a == "H2" else a for a in argv]
    try:
        code, _, err = run(capsys, *argv)
    except SystemExit as exc:  # argparse prints its usage, then "zsl <command>: error: ..."
        code, err = exc.code, capsys.readouterr().err
        err = err.split(f"zsl {argv[0]}: ", 1)[1]
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    if ground is ATOMLESS:
        assert "h0" in err


def test_probe_r4_report(capsys):
    code, out, _ = run(capsys, "probe-r4")
    assert code == 0
    report = json.loads(out)
    assert report["elementary_davenport"] == 9
    # the first longest 5-tuple of positive vertices in combinations order
    assert report["elementary_witness_support"] == [
        [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 1, 0]]
    assert report["davenport_lower_bound"] == 9
    assert report["davenport_exact"] is None


def test_budget_below_one_names_the_flag(capsys, h2):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "atoms", "-i", h2, "--budget", "0")
    assert exc.value.code == 2
    assert "argument --budget: must be a positive integer, got '0'" in capsys.readouterr().err


# the only atom, [21, 1], is longer than the default enumeration budget of 20
LONG_ATOM_GROUND = {"rank": 1, "elements": [[21], [-1]]}


def test_decompose_truncated_restricted_enumeration_exits2(capsys, tmp_path):
    ground = write(tmp_path, "g.json", LONG_ATOM_GROUND)
    seq = write(tmp_path, "s.json", {"mult": [1, 21]})
    code, _, err = run(capsys, "decompose", "-i", ground, "--seq", seq)
    assert code == 2
    assert err.startswith("error: ") and "budget 20; raise --budget" in err


def test_decompose_budget_reaches_long_restricted_atoms(capsys, tmp_path):
    ground = write(tmp_path, "g.json", LONG_ATOM_GROUND)
    seq = write(tmp_path, "s.json", {"mult": [1, 21]})
    code, out, _ = run(capsys, "decompose", "-i", ground, "--seq", seq, "--budget", "30")
    assert code == 0
    report = json.loads(out)
    assert report["parts_count"] == 1 and report["reconstructs"] is True
    assert report["parts"][0]["atom"] == [1, 21]
    # the atom has length 22, and the restricted atoms are cached per budget
    code, _, err = run(capsys, "decompose", "-i", ground, "--seq", seq, "--budget", "21")
    assert code == 2 and "length budget 21; raise --budget" in err


def test_bounds_reports_truncation_not_short_atoms(capsys, tmp_path):
    code, out, _ = run(capsys, "bounds", "-i", write(tmp_path, "g.json", LONG_ATOM_GROUND))
    assert code == 0
    report = json.loads(out)
    assert report["davenport"] is None and report["snf_G0"] is None
    assert report["skipped"].startswith("atom enumeration truncated")


def test_missing_field_named(capsys, tmp_path):
    path = write(tmp_path, "g.json", {"rank": 2})
    code, _, err = run(capsys, "atoms", "-i", path)
    assert code == 2
    assert "elements" in err


def test_delm_methods(capsys, h2):
    for method in ("enumerate", "formula", "both"):
        code, out, _ = run(capsys, "delm", "-i", h2, "--method", method)
        assert code == 0
        assert json.loads(out)["elementary_davenport"] == 3


def test_bounds(capsys, h2):
    code, out, _ = run(capsys, "bounds", "-i", h2)
    assert code == 0
    report = json.loads(out)
    for key in ("snf_G0", "snf_G1", "hadamard", "dgs", "elm_product"):
        assert report[key] >= 3


def test_bounds_budget_truncates(capsys, h2):
    code, out, _ = run(capsys, "bounds", "-i", h2, "--budget", "1")
    assert code == 0
    report = json.loads(out)
    assert report["davenport"] is None and report["elm_product_conditional"] is True


@pytest.mark.parametrize("argv", [
    ["hypercube", "--rank", "2", "--seed", "1"],
    ["atoms", "-i", "H2", "--seed", "1"],
    ["fib", "--rank", "3", "--canonicalize"],
    ["decompose", "-i", "H2", "--seq", "H2", "--seed", "3"],
    ["certify", "--format", "csv"],
])
def test_unread_options_are_not_registered(capsys, h2, argv):
    with pytest.raises(SystemExit) as exc:
        main([h2 if a == "H2" else a for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_lengths_and_catenary(capsys, h2, tmp_path):
    # (u)(-u) for the triple atom u: lengths {2, 3}, catenary 3
    elem = write(tmp_path, "e.json", {"mult": [1, 1, 1, 1, 1, 1]})
    code, out, _ = run(capsys, "lengths", "-i", h2, "--element", elem)
    assert code == 0
    report = json.loads(out)
    assert report["lengths"] == [2, 3]
    assert len(report["factorizations"]) == 2
    code, out, _ = run(capsys, "catenary", "-i", h2, "--element", elem)
    assert code == 0
    assert json.loads(out)["catenary"] == 3


def test_unions(capsys, h2):
    code, out, _ = run(capsys, "unions", "-i", h2, "--k", "4")
    assert code == 0
    report = json.loads(out)
    assert report["rho"] == 6 and report["lambda"] == 3


def test_omega_and_tame(capsys, h2):
    code, out, _ = run(capsys, "omega", "-i", h2, "--atom", "0", "--mode", "both")
    assert code == 0
    assert json.loads(out)["omega"] in (2, 3)
    code, out, _ = run(capsys, "tame", "-i", h2, "--atom", "0")
    assert code == 0
    report = json.loads(out)
    assert report["tame"] == max(report["omega"], report["tau"] + 1)


def test_omega_budget_caps_the_enumeration_only(capsys, tmp_path):
    # the definition replay always stops at the atom's coordinate sum, so a
    # larger --budget may raise the enumeration cap but never changes omega
    ground = write(tmp_path, "g3.json", hypercube_pm(3).to_json())
    argv = ["omega", "-i", ground, "--atom", "0", "--mode", "both"]
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--budget", "16") == (0, plain, "")


@pytest.mark.parametrize("argv", [["davenport", "-i", "H2"], ["certify", "--suite", "01"]])
def test_unwritable_output_exits2_naming_the_path(capsys, h2, tmp_path, argv):
    target = str(tmp_path / "missing" / "x.json")
    argv = [h2 if a == "H2" else a for a in argv]
    code, out, err = run(capsys, *argv, "-o", target)
    assert code == 2
    assert err.startswith("error: cannot write " + target)
    assert "Traceback" not in err
    assert "PASS" not in out and "FAIL" not in out  # certify fails before its suite runs


def test_omega_bad_atom_index(capsys, h2):
    code, _, err = run(capsys, "omega", "-i", h2, "--atom", "99")
    assert code == 2
    assert "atom" in err


def test_decompose_rational(capsys, h2, tmp_path):
    # 3/2 times the triple atom (1,0)(0,1)(-1,-1); ground order is lexicographic
    seq = write(tmp_path, "s.json", {"mult": ["3/2", 0, 0, "3/2", "3/2", 0]})
    code, out, _ = run(capsys, "decompose", "-i", h2, "--seq", seq)
    assert code == 0
    report = json.loads(out)
    assert report["reconstructs"] is True
    assert report["parts_count"] == 1
    assert report["parts"][0]["exponent"] == "3/2"


def test_decompose_rejects_non_zero_sum(capsys, h2, tmp_path):
    seq = write(tmp_path, "s.json", {"mult": [1, 0, 0, 0, 0, 0]})
    code, _, err = run(capsys, "decompose", "-i", h2, "--seq", seq)
    assert code == 2
    assert "zero-sum" in err


def test_fib(capsys):
    code, out, _ = run(capsys, "fib", "--rank", "3")
    assert code == 0
    report = json.loads(out)
    assert report["atom_length"] == 5 and report["verified"] is True


def test_fib_verify_rank_cap(capsys):
    code, _, err = run(capsys, "fib", "--rank", "10", "--verify")
    assert code == 2
    assert "up to 9" in err
    code, out, _ = run(capsys, "fib", "--rank", "12")
    assert code == 0
    report = json.loads(out)
    assert report["verified"] is False and report["atom_length"] == 377
    code, _, err = run(capsys, "fib", "--rank", "17")
    assert code == 2
    assert "at most 16" in err


def test_hypercube_signed(capsys):
    code, out, _ = run(capsys, "hypercube", "--rank", "3", "--signed")
    assert code == 0
    assert len(json.loads(out)["elements"]) == 14
    code, _, err = run(capsys, "hypercube", "--rank", "17", "--signed")
    assert code == 2
    assert "at most 16" in err


def test_fp(capsys):
    code, out, _ = run(capsys, "fp", "--group", "2,2", "--budget", "5")
    assert code == 0
    report = json.loads(out)
    assert report["half_factorial"] and report["tame"] == 2


def test_monext(capsys, h2):
    code, out, _ = run(capsys, "monext", "--h0", h2, "--d", "group:2",
                       "--check", "all", "--samples", "60")
    assert code == 0
    report = json.loads(out)
    assert report["theta"]["passed"]
    assert len(report["atom_invariants"]) == 10
    assert report["catenary_elements_checked"] > 0


def test_monext_bad_d(capsys, h2):
    code, _, err = run(capsys, "monext", "--h0", h2, "--d", "weird:3")
    assert code == 2
    assert "--d" in err


@pytest.mark.parametrize("argv,named", [
    (["--d", "group:2", "--check", "theta,thetta"], "'thetta'"),
    (["--d", "group:2", "--samples", "0"], "--samples"),
    (["--d", "free:1", "--check", "catenary"], "group D"),
])
def test_monext_rejects_checks_it_would_not_run(capsys, h2, argv, named):
    code, _, err = run(capsys, "monext", "--h0", h2, *argv)
    assert code == 2
    assert named in err


def test_monext_bad_h0_names_the_file(capsys, tmp_path):
    path = write(tmp_path, "bad.json", {"rank": 2, "elements": 5})
    code, _, err = run(capsys, "monext", "--h0", path, "--d", "group:2")
    assert code == 2
    assert err.startswith(f"error: {path}: ")


def test_monext_all_on_free_d_runs_theta_only(capsys, h2):
    code, out, _ = run(capsys, "monext", "--h0", h2, "--d", "free:1", "--samples", "20")
    assert code == 0
    report = json.loads(out)
    assert report["theta"]["passed"]
    assert "atom_invariants" not in report and "catenary_elements_checked" not in report


def test_acm(capsys, tmp_path):
    spec = write(tmp_path, "acm.json",
                 {"omega": 5, "c": ["1", "1", "1", "3/2", "3/2"],
                  "lambda": [[1, 2], [3, 4]]})
    code, out, _ = run(capsys, "acm", "--spec", spec)
    assert code == 0
    report = json.loads(out)
    assert report["atom_count"] == 12 and report["tame"] == 5


def test_acm_bad_tower_sum(capsys, tmp_path):
    spec = write(tmp_path, "acm.json",
                 {"omega": 3, "c": ["1", "1/2", "1"], "lambda": [[1, 2]]})
    code, _, err = run(capsys, "acm", "--spec", spec)
    assert code == 2
    assert "non-integral" in err


def test_hnp(capsys, tmp_path):
    towers = write(tmp_path, "towers.json",
                   {"udim": 1, "cycle_towers": [{"ranks": [1, 1]},
                                                {"ranks": [2, 1]}],
                    "faithful_towers": [], "class_group": []})
    code, out, _ = run(capsys, "hnp", "--towers", towers)
    assert code == 0
    report = json.loads(out)
    assert report["tame"] == 5 and report["half_factorial"]


def test_certify_single_criterion(capsys):
    code = main(["certify", "--suite", "01,03"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS 01-rank2-hypercube" in out
    assert "PASS 03-fibonacci-witnesses" in out


def test_certify_unknown_suite(capsys):
    code = main(["certify", "--suite", "99"])
    err = capsys.readouterr().err
    assert code == 2
    assert "criteria" in err


def test_certify_unknown_name_beside_a_known_one_runs_nothing(capsys):
    code = main(["certify", "--suite", "01,99"])
    out, err = capsys.readouterr()
    assert code == 2
    assert "'99'" in err and "'01'" not in err
    assert "PASS" not in out and "FAIL" not in out


def test_certify_unknown_suite_leaves_the_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    target.write_bytes(b'{"01-rank2-hypercube": {"passed": true}}\n')
    before = target.read_bytes()
    code = main(["certify", "--suite", "99", "-o", str(target)])
    assert code == 2
    assert "'99'" in capsys.readouterr().err
    assert target.read_bytes() == before


def test_certify_writes_the_report_through_a_symlink(capsys, tmp_path):
    target = tmp_path / "reports" / "out.json"
    target.parent.mkdir()
    target.write_text("{}\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code = main(["certify", "--suite", "01", "-o", str(link)])
    assert code == 0 and "PASS 01-rank2-hypercube" in capsys.readouterr().out
    assert link.is_symlink()
    assert json.loads(target.read_text())["01-rank2-hypercube"]["passed"] is True
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["link.json", "out.json", "reports"]


def test_certify_interrupted_keeps_the_old_report(capsys, monkeypatch, tmp_path):
    from zsl import certify

    def interrupted(names=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(certify, "run_suite", interrupted)
    target = tmp_path / "out.json"
    target.write_bytes(b'{"01-rank2-hypercube": {"passed": true}}\n')
    before = target.read_bytes()
    code = main(["certify", "--suite", "01", "-o", str(target)])
    out, err = capsys.readouterr()
    assert code == 130
    assert err == "interrupted\n" and out == ""
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]  # no scratch file left


def test_certify_to_a_directory_exits2_before_the_suite(capsys, tmp_path):
    code, out, err = run(capsys, "certify", "--suite", "01", "-o", str(tmp_path))
    assert code == 2
    assert err.startswith(f"error: cannot write {tmp_path}: not a regular file")
    assert out == "" and list(tmp_path.iterdir()) == []


def test_csv_and_table_formats(capsys, h2):
    code, out, _ = run(capsys, "davenport", "-i", h2, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "key,value"
    code, out, _ = run(capsys, "davenport", "-i", h2, "--format", "table")
    assert code == 0
    assert any(line.startswith("davenport") for line in out.splitlines())


def test_canonicalize_orders_elements(capsys, tmp_path):
    path = write(tmp_path, "g.json", {"rank": 1, "elements": [[3], [-3]]})
    code, out, _ = run(capsys, "atoms", "-i", path, "--canonicalize")
    assert code == 0
    assert json.loads(out)["atoms"] == [[1, 1]]


def test_each_atom_and_element_searched_once(capsys, monkeypatch, h2, tmp_path):
    """One minimal-cover search per atom question and one factorization
    search per element, counted by (monoid, atom) and (monoid, element); one
    acm atom enumeration per acm_report; one product factorization per level
    element of fp_rank1_invariants."""
    covers, factored = Counter(), Counter()
    search_covers = invariants.minimal_covers
    search_counts = invariants._factorization_counts

    def counted_covers(monoid, atom_index):
        covers[monoid, atom_index] += 1
        return search_covers(monoid, atom_index)

    def counted_counts(monoid, x):  # the full search; exists_length has its own
        factored[monoid, tuple(x)] += 1
        return search_counts(monoid, x)

    monkeypatch.setattr(invariants, "minimal_covers", counted_covers)
    monkeypatch.setattr(invariants, "_factorization_counts", counted_counts)

    monoid = AcmModel(ACM_SPEC).presented()
    for i in range(monoid.atom_count):
        invariants.tame_degree(monoid, i)
    assert covers == {(monoid, i): 1 for i in range(monoid.atom_count)}
    covers.clear()

    h0 = invariants.block_monoid(enumerate_atoms(hypercube_pm(2)))
    model = MonextModel(h0, group=FiniteAbelianGroup.from_factors([2]))
    for i in range(h0.atom_count):
        for d in model.group.elements():
            monext_invariants(model, i, d)
            assert covers == {(h0, i): 1}
            covers.clear()

    # AcmModel enumerates its atoms in its constructor and nowhere else
    built = []
    build = AcmModel.__init__

    def counted_build(model, spec):
        built.append(spec)
        build(model, spec)

    monkeypatch.setattr(AcmModel, "__init__", counted_build)
    factored.clear()
    acm_report(ACM_SPEC)
    assert covers == {(monoid, i): 1 for i in range(monoid.atom_count)}
    elements = invariants.elements_up_to(monoid, 4)
    assert {x for m, x in factored if m == monoid} == elements
    assert set(factored.values()) == {1}
    assert built == [ACM_SPEC]
    built.clear()
    # acm_report's model, and a second one for the class-group theta check
    towers = [{"ranks": [1, 1]}, {"ranks": [2, 1]}]
    hnp_report(TowerData.from_json({"udim": 1, "cycle_towers": towers,
                                    "faithful_towers": [], "class_group": [2]}))
    assert len(built) == 2

    # MonextModel.factorizations calls from the level loop of fp_rank1_invariants,
    # not from the monext_invariants oracle it runs on the atoms afterwards
    product_factored = Counter()
    in_oracle = []
    search_product = MonextModel.factorizations
    run_oracle = models.monext_invariants

    def counted_product(model, vec, d, base=None):
        if not in_oracle:
            product_factored[tuple(vec), tuple(d)] += 1
        return search_product(model, vec, d, base)

    def oracle(*args):
        in_oracle.append(True)
        try:
            return run_oracle(*args)
        finally:
            in_oracle.pop()

    monkeypatch.setattr(MonextModel, "factorizations", counted_product)
    monkeypatch.setattr(models, "monext_invariants", oracle)
    group = FiniteAbelianGroup.from_factors([2, 2])
    fp_rank1_invariants(group, budget=4)
    assert product_factored == {((n,), g): 1 for n in range(1, 5) for g in group.elements()}

    elem = write(tmp_path, "e.json", {"mult": [1, 1, 1, 1, 1, 1]})
    for argv, searches in ((["tame", "-i", h2, "--atom", "0"], covers),
                           (["lengths", "-i", h2, "--element", elem], factored),
                           (["catenary", "-i", h2, "--element", elem], factored)):
        covers.clear()
        factored.clear()
        assert run(capsys, *argv)[0] == 0
        assert list(searches.values()) == [1]

    # the monext catenary check factors each base element once, for every d
    factored.clear()
    argv = ["monext", "--h0", h2, "--d", "group:2", "--check", "catenary"]
    assert run(capsys, *argv)[0] == 0
    [base] = {m for m, _ in factored}
    assert {x for _, x in factored} == invariants.elements_up_to(base, 2)
    assert set(factored.values()) == {1}
