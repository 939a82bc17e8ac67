"""End-to-end CLI: outputs, exit codes, determinism."""

import gc
import hashlib
import importlib.util
import json
import os
import pathlib
import runpy
import subprocess
import sys
import time

import pytest

from bicat_euler.catdsl import parse
from bicat_euler.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chi_bz2(capsys, fixture_dir):
    code, out, _ = run(capsys, "chi", str(fixture_dir / "bz2.catj"))
    assert code == 0 and out.strip() == "1/2"


def test_chi_pt(capsys, fixture_dir):
    code, out, _ = run(capsys, "chi", str(fixture_dir / "pt.catj"))
    assert code == 0 and out.strip() == "1"


def test_chi_psg_as_catgraph(capsys, fixture_dir):
    code, out, _ = run(capsys, "chi", str(fixture_dir / "psg.catj"), "--kind", "catgraph")
    assert code == 0 and out.strip() == "2"


def test_chi_vectors_and_decimal(capsys, fixture_dir):
    code, out, _ = run(
        capsys, "chi", str(fixture_dir / "arrow.catj"), "--weighting", "--coweighting", "--decimal"
    )
    assert code == 0
    assert out.splitlines()[0].startswith("1  (approx 1")
    assert '"0": "0"' in out and '"1": "1"' in out  # weighting (0, 1)


def test_chi_reports_missing_side_and_exits_1(capsys, fixture_dir):
    code, out, _ = run(capsys, "chi", str(fixture_dir / "nochi-catgraph.catj"))
    assert code == 1
    assert out.strip() == "no Euler characteristic (missing: weighting)"


def test_chi_wrong_kind_is_input_error(capsys, fixture_dir):
    code, _, err = run(capsys, "chi", str(fixture_dir / "ez2-to-bz2.catj"))
    assert code == 2 and "no Euler characteristic" in err


@pytest.mark.parametrize("name,kind,expected", [
    ("arrow", "catgraph", "catgraph or bicategory"),
    ("psg", "category", "category"),
    ("nochi-catgraph", "bicategory", "bicategory"),
])
def test_chi_kind_the_document_is_not_is_input_error(capsys, fixture_dir, name, kind, expected):
    path = str(fixture_dir / f"{name}.catj")
    assert run(capsys, "chi", path, "--kind", kind) == (2, "", f"{path}: expected a {expected} document\n")


def test_chi_parse_failure_exits_2(capsys, negative_dir):
    code, _, err = run(capsys, "chi", str(negative_dir / "e001-undeclared-object.catj"))
    assert code == 2 and "E001" in err


def test_unknown_2cell_is_input_error(capsys, negative_dir):
    code, _, err = run(capsys, "chi", str(negative_dir / "unknown-2cell.catj"))
    assert code == 2 and "MissingCompositionData" in err and "'zz'" in err


# An undeclared label in each optional coherence table: (negative fixture, tables replaced, code).
# The two cases that replace no table run the negative fixtures as they are.
UNDECLARED_IN_COHERENCE = {
    "comp_iso key": ("unknown-comp-iso-key.catj", {}, "IncoherentData"),
    "comp_iso component": ("unknown-comp-iso-key.catj", {"comp_iso": {"id*|id*": {"x": "zz"}}}, "IncoherentData"),
    "unit_iso component": (
        "unknown-comp-iso-key.catj",
        {"comp_iso": {"id*|id*": {"x": "idx"}}, "unit_iso": {"*": {"x": "zz"}}},
        "IncoherentData",
    ),
    "phi key object": ("unknown-phi-object.catj", {}, "MissingCompositionData"),
    "phi row 1-cell": ("unknown-phi-object.catj", {"phi": {"*|*|*": [["zz", "I", "iI"]]}}, "MissingCompositionData"),
}


@pytest.mark.parametrize("case", sorted(UNDECLARED_IN_COHERENCE))
def test_undeclared_label_in_coherence_data_is_one_diagnostic(capsys, negative_dir, tmp_path, case):
    name, tables, expected = UNDECLARED_IN_COHERENCE[case]
    path = negative_dir / name
    if tables:
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc.update(tables)
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
    assert [d.code for d in parse(path.read_text(encoding="utf-8")).diagnostics] == [expected]
    code, _, err = run(capsys, "chi", str(path))
    assert code == 2 and expected in err and "Traceback" not in err


def test_bad_exponent_is_input_error(capsys, negative_dir):
    code, _, err = run(capsys, "chi", str(negative_dir / "e005-bad-exponent.catj"))
    assert code == 2 and "7:12 E005 malformed number" in err and "Traceback" not in err


def test_non_utf8_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "latin1.catj"
    path.write_bytes('{"kind": "category", "objects": ["\u00e9"]}'.encode("latin-1"))
    code, _, err = run(capsys, "chi", str(path))
    assert code == 2 and err.startswith(f"{path}: ") and "utf-8" in err and "Traceback" not in err


def test_digest_is_of_the_file_bytes_whatever_the_line_ending(capsys, fixture_dir, tmp_path):
    lf = fixture_dir / "bz2.catj"
    report = json.loads(run(capsys, "chi", str(lf), "--json", "--weighting", "--coweighting")[1])
    for name, newline in (("crlf.catj", b"\r\n"), ("cr.catj", b"\r")):
        path = tmp_path / name
        path.write_bytes(lf.read_bytes().replace(b"\n", newline))
        code, out, _ = run(capsys, "chi", str(path), "--json", "--weighting", "--coweighting")
        copy = json.loads(out)
        assert code == 0 and copy["inputs"][0]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert copy["inputs"][0]["sha256"] != report["inputs"][0]["sha256"]
        assert copy["results"] == report["results"]


def _counted_reads(monkeypatch, changed=None) -> list[str]:
    """The paths `cli` opens for reading, in order; with `changed`, every read after a path's first gives those bytes."""
    import io

    from bicat_euler import cli

    opened = []

    def counted_open(path, mode="r", *args, **kwargs):
        if "r" in mode:
            opened.append(str(path))
            if changed is not None and opened.count(str(path)) > 1:
                return io.BytesIO(changed)
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counted_open, raising=False)
    return opened


def test_a_file_is_read_again_only_for_positions(capsys, monkeypatch, fixture_dir, negative_dir, tmp_path):
    """Every fixture and `gen` output is read once; a negative fixture is read again, for the scanner."""
    from bicat_euler import cli

    outputs = []
    for kind in sorted(cli._GEN_KINDS):
        outputs.append(tmp_path / f"{kind}.catj")
        assert run(capsys, "gen", kind, "--seed", "3", "--out", str(outputs[-1]))[0] == 0
    opened = _counted_reads(monkeypatch)
    for path in sorted(fixture_dir.glob("*.catj")) + outputs:
        opened.clear()
        code, _, err = run(capsys, "chi", str(path))
        assert code != 3 and opened == [str(path)], (path, err)
    for path in sorted(negative_dir.glob("*.catj")):
        opened.clear()
        code, _, err = run(capsys, "chi", str(path))
        assert code == 2 and opened == [str(path)] * 2 and err.startswith(f"{path}:"), (path, err)


def test_a_file_changed_before_it_is_read_again_is_an_input_error(capsys, monkeypatch, negative_dir):
    path = negative_dir / "e005-bad-exponent.catj"
    opened = _counted_reads(monkeypatch, changed=path.read_bytes() + b" ")
    code, _, err = run(capsys, "chi", str(path), "--json")
    assert code == 2 and opened == [str(path)] * 2
    assert err.startswith(f"{path}: the file changed while it was read") and "Traceback" not in err


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe by path")
def test_a_pipe_is_read_once_and_its_text_kept_for_the_scanner(capsys, fixture_dir, negative_dir, tmp_path):
    """A pipe reads empty the second time: a document the scanner reads gives what its file gives."""
    escaped = tmp_path / "escaped.catj"
    escaped.write_text((fixture_dir / "pt.catj").read_text().replace('"*"', '"\\u002a"'))
    for path in (negative_dir / "e005-bad-exponent.catj", negative_dir / "e001-undeclared-object.catj", escaped):
        expected = run(capsys, "chi", str(path), "--json")
        read_end, write_end = os.pipe()
        os.write(write_end, path.read_bytes())
        os.close(write_end)
        try:
            code, out, err = run(capsys, "chi", f"/dev/fd/{read_end}", "--json")
        finally:
            os.close(read_end)
        name = f"/dev/fd/{read_end}"
        assert (code, out.replace(name, str(path)), err.replace(name, str(path))) == expected, path
    assert expected[0] == 0


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe by path")
def test_the_reader_gets_a_plain_text_and_a_way_to_read_it_again_only_for_a_regular_file(
    capsys, monkeypatch, fixture_dir, negative_dir
):
    from bicat_euler import cli

    calls = []

    def recorded_parse(text, read_again=None):
        calls.append((type(text), read_again))
        return parse(text, read_again)

    monkeypatch.setattr(cli, "parse", recorded_parse)
    for path in (fixture_dir / "bz2.catj", negative_dir / "e001-undeclared-object.catj"):
        calls.clear()
        run(capsys, "chi", str(path))
        assert len(calls) == 1 and calls[0][0] is str and callable(calls[0][1]), path
        read_end, write_end = os.pipe()
        os.write(write_end, path.read_bytes())
        os.close(write_end)
        try:
            calls.clear()
            run(capsys, "chi", f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert calls == [(str, None)], path


def test_check_fib_groupoids(capsys, fixture_dir):
    code, out, _ = run(capsys, "check", str(fixture_dir / "ez2-to-bz2.catj"), "fib-groupoids")
    assert code == 0 and out.strip() == "pass"


def test_check_acyclic_span(capsys, fixture_dir):
    code, out, _ = run(capsys, "check", str(fixture_dir / "span.catj"), "acyclic")
    assert code == 0 and out.strip() == "pass"


def test_check_pseudogroupoid_fails_with_witness(capsys, fixture_dir):
    code, out, _ = run(capsys, "check", str(fixture_dir / "acyclic2.catj"), "pseudogroupoid")
    assert code == 1 and "non_invertible_2cell" in out and "a2" in out


@pytest.mark.parametrize("name,predicate,witness", [
    ("bz2", "acyclic", '{"non_identity_endomorphism": ["g"]}'),
    ("ez2", "acyclic", '{"circuit": ["m01", "m10"]}'),
    ("ez2-bicat", "acyclic", '{"opposed_1cells": ["0", "1", "m01", "m10"]}'),
    ("psg-collapse", "biequivalence", '{"non_equivalence_hom": ["p", "p"]}'),
])
def test_failed_check_names_a_witness(capsys, fixture_dir, name, predicate, witness):
    code, out, _ = run(capsys, "check", str(fixture_dir / f"{name}.catj"), predicate)
    assert code == 1 and out.strip() == f"fail {witness}"


def test_check_biequivalence_fixture(capsys, fixture_dir):
    code, out, _ = run(capsys, "check", str(fixture_dir / "psg-collapse.catj"), "fib-pseudogroupoids")
    assert code == 0 and out.strip() == "pass"


def test_check_reports_nested_witnesses(capsys, tmp_path, monkeypatch):
    # Each witness of this collapse nests tuples: the failing 1-cell and the reason it fails.
    from bicat_euler import fixtures as fx
    from bicat_euler.catdsl import serialize
    import catalog

    (tmp_path / "collapse.catj").write_text(serialize(fx.collapse_to_point(catalog.ARROW_BICAT)), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    witnesses = {
        "co_non_cartesian_1cell": [["1", "0", "a"], ["no_lift", "0", "id0", "I", "idI"]],
        "non_cartesian_1cell": [["0", "1", "a"], ["no_lift", "1", "id1", "I", "idI"]],
    }
    code, out, _ = run(capsys, "check", "collapse.catj", "fib-pseudogroupoids")
    assert code == 1 and out == (
        'fail {"co_non_cartesian_1cell": [["1", "0", "a"], ["no_lift", "0", "id0", "I", "idI"]], '
        '"non_cartesian_1cell": [["0", "1", "a"], ["no_lift", "1", "id1", "I", "idI"]]}\n'
    )
    code, out, _ = run(capsys, "check", "collapse.catj", "fib-pseudogroupoids", "--json")
    report = {
        "command": "check fib-pseudogroupoids",
        "inputs": [
            {"path": "collapse.catj", "sha256": "bc8d90c36b437ae9fc66d46e8d2cbd0e2ab2be3e6f154d992c201ee0630bd22a"}
        ],
        "results": {"pass": False, "witnesses": witnesses},
        "status": 1,
    }
    assert code == 1 and out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_verify_product_cat(capsys, fixture_dir):
    code, out, _ = run(capsys, "verify", "product-cat", str(fixture_dir / "ez2-to-bz2.catj"))
    assert code == 0 and out.strip() == "1 = 1/2 · 2"


def test_verify_gr(capsys, fixture_dir):
    code, out, _ = run(capsys, "verify", "gr", str(fixture_dir / "arrow-base-laxcat.catj"))
    assert code == 0 and out.strip() == "2 = 1·2 + 0·1"


def test_verify_product_bicat(capsys, fixture_dir):
    code, out, _ = run(capsys, "verify", "product-bicat", str(fixture_dir / "gr-psg-over-arrow.catj"))
    assert code == 0 and out.strip() == "2 = 1 · 2"


def test_verify_gr_bicat_trihom(capsys, fixture_dir):
    code, out, _ = run(capsys, "verify", "gr-bicat", str(fixture_dir / "trihom-const-psg-arrow.catj"))
    assert code == 0 and out.strip() == "2 = 1·2 + 0·2"


def test_verify_gr_bicat_laxfunctor(capsys, fixture_dir):
    code, out, _ = run(capsys, "verify", "gr-bicat", str(fixture_dir / "psg-collapse.catj"))
    assert code == 0 and out.strip() == "2 = 1·2"


def test_verify_gr_bicat_refuses_a_laxfunctor_that_is_not_strict(capsys, tmp_path):
    # The identity of BZ2 with a phi component g1, no identity 2-cell: `verify product-bicat` refuses it too.
    from bicat_euler import fixtures as fx
    from bicat_euler.bicat import identity_lax_functor, validate_lax_functor
    from bicat_euler.catdsl import serialize

    bz2 = fx.bz2_twogroup()
    ident = identity_lax_functor(bz2)
    p = validate_lax_functor(bz2, bz2, ident.object_map, ident.hom_functors, {(("*",) * 3, "m**", "m**"): "g1"})
    path = tmp_path / "p.catj"
    path.write_text(serialize(p), encoding="utf-8")
    witness = "{'not_strict': ('phi', ('*', '*', '*'), 'm**', 'm**')}"
    for extra in ([], ["--json"]):
        assert run(capsys, "verify", "gr-bicat", str(path), *extra) == (
            2, "", f"input error: not a strict homomorphism: {witness}\n"
        )
        code, _, err = run(capsys, "verify", "product-bicat", str(path), *extra)
        assert code == 2 and "'not_strict'" in err


def test_verify_gr_bicat_without_a_pullback_is_input_error(capsys, tmp_path):
    # Their cleavages have no pullback 1-cell: the input is unsuitable, not an internal bug.
    from bicat_euler import fixtures as fx
    from bicat_euler.catdsl import serialize
    import catalog
    from builders import product_projection

    cases = {
        "no pullback 1-cell for (id0,t) along id0": product_projection(catalog.ARROW_BICAT, catalog.ACYCLIC2),
        "no pullback 1-cell for t along I": fx.collapse_to_point(catalog.ACYCLIC2),
    }
    for message, p in cases.items():
        path = tmp_path / "p.catj"
        path.write_text(serialize(p), encoding="utf-8")
        for extra in ([], ["--json"]):
            assert run(capsys, "verify", "gr-bicat", str(path), *extra) == (2, "", f"input error: {message}\n")


def test_verify_biequivalence_rejects_collapse(capsys, fixture_dir):
    code, _, err = run(capsys, "verify", "biequivalence", str(fixture_dir / "psg-collapse.catj"))
    assert code == 2 and "not a biequivalence" in err


def test_verify_biequivalence_passes_on_an_identity(capsys, tmp_path):
    from bicat_euler.bicat import identity_lax_functor
    from bicat_euler.catdsl import serialize
    import catalog

    path = tmp_path / "identity.catj"
    path.write_text(serialize(identity_lax_functor(catalog.PSG)), encoding="utf-8")
    assert run(capsys, "verify", "biequivalence", str(path)) == (0, "2 = 2\n", "")
    code, out, _ = run(capsys, "verify", "biequivalence", str(path), "--json")
    results = json.loads(out)["results"]
    assert code == 0 and results["equal"] is True and results["transported_valid"] is True


def _lawless_equivalences():
    """Objects a, b, c whose compose1 passes validation but makes a ~ b and b ~ c, not a ~ c.

    Each hom(x, x) is discrete on i_x (the identity) and u_x, every other hom has one 1-cell xy.
    The round trips a -> b -> a and b -> c -> b compose to identities; a -> c -> a composes to u_a.
    """
    from bicat_euler import fixtures as fx
    from bicat_euler.bicat import make_catgraph, validate_bicategory

    objects = ("a", "b", "c")

    def compose(x, y, z, g, f):
        if f == f"i_{x}":
            return g
        if g == f"i_{z}":
            return f
        if x != z:
            return x + z
        return f"u_{x}" if (x, y) == ("a", "c") else f"i_{x}"

    hom = {(x, y): fx.discrete_category([f"i_{x}", f"u_{x}"] if x == y else [x + y]) for x in objects for y in objects}
    compose1 = {key: compose(*key[0], *key[1:]) for key in make_catgraph(objects, hom).composable_pairs()}
    return validate_bicategory(objects, hom, {x: f"i_{x}" for x in objects}, compose1)


def test_a_compose1_that_breaks_1_equivalence_is_an_input_error(capsys, tmp_path):
    from bicat_euler.bicat import identity_lax_functor
    from bicat_euler.catdsl import serialize

    path = tmp_path / "lawless.catj"
    path.write_text(serialize(identity_lax_functor(_lawless_equivalences())), encoding="utf-8")
    message = "input error: compose1 breaks 1-equivalence: a ~ b and b ~ c, but not a ~ c\n"
    for argv in (["check", str(path), "biequivalence"], ["verify", "biequivalence", str(path)]):
        assert run(capsys, *argv) == (2, "", message)


@pytest.mark.parametrize("theorem", ["gr", "product-cat", "product-bicat", "gr-bicat", "biequivalence"])
def test_verify_over_an_empty_base_prints_zero_on_both_sides(capsys, tmp_path, theorem):
    # An empty sum is 0: every summary line reads `0 = 0`, never `0 = `.
    from bicat_euler.catdsl import serialize
    from bicat_euler.fib1 import LaxFunctorToCat, validate_laxcat
    from bicat_euler.fincat import EMPTY_CATEGORY, validate_functor
    from builders import locally_discrete

    empty = validate_functor(EMPTY_CATEGORY, EMPTY_CATEGORY, {}, {})
    if theorem == "gr":
        value = validate_laxcat(LaxFunctorToCat(EMPTY_CATEGORY, {}, {}))
    else:
        value = empty if theorem == "product-cat" else locally_discrete(empty)
    path = tmp_path / "empty.catj"
    path.write_text(serialize(value), encoding="utf-8")
    assert run(capsys, "verify", theorem, str(path)) == (0, "0 = 0\n", "")


def test_failed_verify_prints_the_summary_then_the_report(capsys, fixture_dir, monkeypatch):
    # No lawful input fails a theorem, so the theorem's function is made to report inequality.
    from bicat_euler import fib1

    verify = fib1.verify_product_formula_cat

    def unequal(p):
        rep = verify(p)
        return fib1.ProductFormulaReport(rep.chi_total, rep.sum_of_products, rep.components, False)

    monkeypatch.setattr(fib1, "verify_product_formula_cat", unequal)
    code, out, err = run(capsys, "verify", "product-cat", str(fixture_dir / "ez2-to-bz2.catj"))
    results = {
        "chi_total": "1",
        "components": [{"chi_base": "1/2", "chi_fiber": "2", "objects": ["*"]}],
        "equal": False,
        "sum_of_products": "1",
    }
    assert code == 1 and err == ""
    assert out == "1 = 1/2 · 2\n" + json.dumps(results, indent=2, sort_keys=True) + "\n"


def test_a_wrong_fiber_coweighting_fails_verify_gr_bicat(capsys, fixture_dir, monkeypatch):
    # The fiber of the collapse keeps its chi but gets twice its coweighting, so only the
    # product-coweighting check can fail: the formula itself still holds.
    from bicat_euler import bifib, catdsl
    from bicat_euler.exactq import MatrixEuler, QVector

    euler = bifib.euler_char_cg

    def doubled_fiber_coweighting(graph):
        e = euler(graph)
        if graph.objects != ("p", "q"):  # the base, a point
            return e
        k = e.coweighting
        return MatrixEuler(e.weighting, QVector(k.index, tuple(2 * v for v in k.entries)), e.chi)

    monkeypatch.setattr(bifib, "euler_char_cg", doubled_fiber_coweighting)
    path = fixture_dir / "psg-collapse.catj"
    rep = bifib.verify_gr_formula_bicat(catdsl.parse(path.read_text(encoding="utf-8")).document.value)
    assert rep.fiber_chi == {"*": 2} and rep.chi_grothendieck == rep.sum_k_b_chi_fiber == 2
    assert not rep.product_coweighting_valid and rep.equal
    code, out, err = run(capsys, "verify", "gr-bicat", str(path))
    assert code == 1 and err == ""
    assert out.startswith("2 = 1·2\n")


def test_verify_wrong_shape_is_input_error(capsys, fixture_dir):
    code, _, err = run(capsys, "verify", "gr", str(fixture_dir / "bz2.catj"))
    assert code == 2


def test_gen_smallest_acyclic_is_pt(capsys, fixture_dir):
    code, out, _ = run(capsys, "gen", "acyclic-cat", "--seed", "0", "--size", "1")
    assert code == 0
    assert out == (fixture_dir / "pt.catj").read_text(encoding="utf-8")


@pytest.mark.parametrize("size", [13, 30])
def test_gen_acyclic_past_desk_scale_is_an_input_error(capsys, size):
    # No DAG in 1,000 thinned draws has at most 40 paths; the generator says so within a second or so.
    start = time.perf_counter()
    code, out, err = run(capsys, "gen", "acyclic-cat", "--size", str(size))
    assert time.perf_counter() - start < 10
    assert code == 2 and out == ""
    assert err == f"input error: no DAG on {size} objects with at most 40 paths in 1000 draws from seed 0\n"


def test_gen_acyclic_at_size_12_keeps_its_bytes(capsys):
    # Seed 0 at size 12 fits at its 115th draw, from seed 114,000; the document is pinned by its digest.
    code, out, _ = run(capsys, "gen", "acyclic-cat", "--size", "12")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "9b5a58b03860674aac81030abd3150e74924a650a6ca182e0f1fda8b03d3d6d3"
    )


@pytest.mark.parametrize("size", ["-3", "0", "two"])
def test_gen_size_below_one_is_a_usage_error(capsys, size):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "pseudogroupoid", "--size", size])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "argument --size: " in err
    assert ("invalid int value" if size == "two" else f"size must be at least 1, got {size}") in err


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
# Each usage error: (argv, the error line that follows the usage on stderr).
USAGE_ERRORS = {
    "no command": ([], "bicat-euler: error: the following arguments are required: command"),
    "unknown command": (
        ["frob"],
        "bicat-euler: error: argument command: invalid choice: 'frob' (choose from 'chi', 'check', 'verify', 'gen')",
    ),
    "unknown option": (["chi", "fixtures/bz2.catj", "--frob"], "bicat-euler chi: error: unrecognized arguments: --frob"),
    "option prefix": (["chi", "fixtures/bz2.catj", "--js"], "bicat-euler chi: error: unrecognized arguments: --js"),
    "short option": (["check", "-j", "fixtures/bz2.catj", "acyclic"], "bicat-euler check: error: unrecognized arguments: -j"),
    "extra argument": (["chi", "fixtures/bz2.catj", "x", "y"], "bicat-euler chi: error: unrecognized arguments: x y"),
    "missing positional": (
        ["check", "fixtures/bz2.catj"], "bicat-euler check: error: the following arguments are required: predicate"
    ),
    "missing positionals": (["verify"], "bicat-euler verify: error: the following arguments are required: theorem, file"),
    "option with no value": (["gen", "pseudogroupoid", "--seed"], "bicat-euler gen: error: argument --seed: expected one argument"),
    "option followed by an option": (
        ["gen", "pseudogroupoid", "--out", "--json"], "bicat-euler gen: error: argument --out: expected one argument"
    ),
    "flag with a value": (
        ["chi", "fixtures/bz2.catj", "--json=yes"], "bicat-euler chi: error: argument --json: ignored explicit argument 'yes'"
    ),
    "positional outside its choices": (
        ["check", "fixtures/bz2.catj", "cyclic"],
        "bicat-euler check: error: argument predicate: invalid choice: 'cyclic' (choose from 'acyclic', 'fibered', "
        "'fib-groupoids', 'pseudogroupoid', 'biequivalence', 'fib-pseudogroupoids')",
    ),
    "option outside its choices": (
        ["chi", "fixtures/bz2.catj", "--kind=graph"],
        "bicat-euler chi: error: argument --kind: invalid choice: 'graph' (choose from 'category', 'catgraph', 'bicategory')",
    ),
    "bad seed": (["gen", "pseudogroupoid", "--seed", "1.5"], "bicat-euler gen: error: argument --seed: invalid int value: '1.5'"),
    "bad size": (["gen", "pseudogroupoid", "--size=two"], "bicat-euler gen: error: argument --size: invalid int value: 'two'"),
    "size below one": (
        ["gen", "--size", "0", "pseudogroupoid"], "bicat-euler gen: error: argument --size: size must be at least 1, got 0"
    ),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_exit_2_with_the_usage(capsys, case):
    argv, error = USAGE_ERRORS[case]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: bicat-euler ") and err.endswith(f"\n{error}\n")


def _readme_usage() -> str:
    """The usage block at the top of README.md's CLI section."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    return section.split("```")[1].removeprefix("\n")


@pytest.mark.parametrize("argv", [
    [flag, *rest]
    for flag in ("-h", "--help")
    for rest in ([], ["chi"], ["check"], ["verify"], ["gen"], ["gen", "--seed", "1", "frob"])
], ids=" ".join)
def test_help_prints_the_readme_usage(capsys, argv):
    for args in (argv, [*argv[1:], argv[0]]):  # before and after the command
        with pytest.raises(SystemExit) as exc:
            main(args)
        out, err = capsys.readouterr()
        assert exc.value.code == 0 and out == _readme_usage() and err == ""


def test_options_take_either_form_anywhere(capsys, fixture_dir):
    path = str(fixture_dir / "psg.catj")
    expected = run(capsys, "chi", path, "--kind", "catgraph", "--json")
    assert expected[0] == 0 and json.loads(expected[1])["results"]["chi"] == "2"
    for argv in (["chi", path, "--kind=catgraph", "--json"], ["chi", "--json", "--kind", "catgraph", path]):
        assert run(capsys, *argv) == expected
    gen = run(capsys, "gen", "acyclic-cat", "--seed", "3", "--size", "4")
    assert run(capsys, "gen", "--size=4", "acyclic-cat", "--seed=3") == gen


def test_gen_to_a_path_that_cannot_be_written_is_input_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x.catj"
    code, out, err = run(capsys, "gen", "pseudogroupoid", "--out", str(path))
    assert code == 2 and out == "" and err.startswith(f"{path}: ") and "Traceback" not in err


def _verify_document(capsys, tmp_path, theorem, value) -> tuple[int, dict]:
    """The exit code and the `--json` results of `verify <theorem>` on the document of value."""
    from bicat_euler.catdsl import serialize

    path = tmp_path / "input.catj"
    path.write_text(serialize(value), encoding="utf-8")
    code, out, _ = run(capsys, "verify", theorem, str(path), "--json")
    return code, json.loads(out)["results"]


def test_comma_grothendieck_object_labels_are_accepted(capsys, tmp_path):
    # ("a", ",b") and ("a,", "b") would both be written "(a,,b)"; the objects are the pairs themselves.
    from bicat_euler import fixtures as fx

    z1, z2 = fx.cyclic_group(1), fx.cyclic_group(2)

    def trihom(base_objects, fiber_objects):
        base, fiber = fx.suspension_two_group(base_objects, *z1), fx.suspension_two_group(fiber_objects, *z2)
        return fx.constant_trihomomorphism(base, fiber)

    code, results = _verify_document(capsys, tmp_path, "gr-bicat", trihom(["a", "a,"], ["b", ",b"]))
    plain_code, plain = _verify_document(capsys, tmp_path, "gr-bicat", trihom(["a", "a2"], ["b", "b2"]))
    assert code == plain_code == 0 and results["equal"] is True
    assert results["chi_grothendieck"] == plain["chi_grothendieck"] == "2"  # 1 · chi(ΣZ/2 on two objects)


def test_comma_grothendieck_morphism_labels_are_accepted(capsys, tmp_path):
    # (f, "g,h", y) and ("f,g", h, y) would both be written "(f,g,h,y)"; the morphisms are the triples themselves.
    from test_fib1 import _comma_laxcat

    code, results = _verify_document(capsys, tmp_path, "gr", _comma_laxcat())
    plain_code, plain = _verify_document(capsys, tmp_path, "gr", _comma_laxcat("fg", "gh"))
    assert code == plain_code == 0 and results["equal"] is True
    assert results["chi_grothendieck"] == plain["chi_grothendieck"]


def test_gen_to_file_then_check(tmp_path, capsys):
    target = tmp_path / "gen.catj"
    code, out, _ = run(capsys, "gen", "fib-groupoids-functor", "--seed", "7", "--size", "3",
                       "--out", str(target))
    assert code == 0 and target.exists()
    code2, out2, _ = run(capsys, "check", str(target), "fib-groupoids")
    assert code2 == 0 and out2.strip() == "pass"


def test_gen_pseudogroupoid_passes_check(tmp_path, capsys):
    target = tmp_path / "psg.catj"
    code, _, _ = run(capsys, "gen", "pseudogroupoid", "--seed", "1", "--size", "2", "--out", str(target))
    assert code == 0
    code2, out2, _ = run(capsys, "check", str(target), "pseudogroupoid")
    assert code2 == 0 and out2.strip() == "pass"


def test_json_output_is_deterministic(capsys, fixture_dir):
    _, out1, _ = run(capsys, "chi", str(fixture_dir / "bz2.catj"), "--json")
    _, out2, _ = run(capsys, "chi", str(fixture_dir / "bz2.catj"), "--json")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["results"]["chi"] == "1/2"
    assert payload["status"] == 0
    assert payload["inputs"][0]["sha256"]


def test_json_gen_deterministic(capsys):
    _, out1, _ = run(capsys, "gen", "trihom-psgrpd", "--seed", "3", "--size", "2", "--json")
    _, out2, _ = run(capsys, "gen", "trihom-psgrpd", "--seed", "3", "--size", "2", "--json")
    assert out1 == out2


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "chi", "does-not-exist.catj")
    assert code == 2


def _python(fixture_dir, *args, **kwargs):
    """A fresh interpreter with PYTHONPATH=src, run from the root of the checkout."""
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run([sys.executable, *args], cwd=fixture_dir.parent, env=env, capture_output=True, **kwargs)


def _loaded_after(fixture_dir, code):
    """The names in sys.modules after running code in a fresh interpreter."""
    proc = _python(fixture_dir, "-c", code + "\nimport sys; print(' '.join(sys.modules))", text=True, check=True)
    return set(proc.stdout.split())


LAZY_MODULES = {f"bicat_euler.{m}" for m in ("bicat", "fib1", "bifib", "generators", "fixtures")}
# Stdlib modules no command needs: the value classes are built without `dataclasses` (which
# imports `inspect`), `traceback` is imported only on exit 3, and the command line is read
# without `argparse` (which imports `gettext`, and `locale` when it builds a parser).
UNNEEDED_STDLIB = {"dataclasses", "inspect", "traceback", "argparse", "gettext", "locale"}
# Modules no command loads: rationals are `exactq.Rational`, registered with no numeric-tower class,
# and JSON is read and written through `_json`.
UNLOADED = {"fractions", "decimal", "numbers", "json"}


def _top_level(modules: set) -> set:
    """The top-level package of each module, so that `json.decoder` counts as `json`."""
    return {name.split(".")[0] for name in modules}


def _loaded_beyond_bare(fixture_dir, code):
    """The modules that code loads beyond what a bare interpreter has (a site hook may load some)."""
    return _loaded_after(fixture_dir, code) - _loaded_after(fixture_dir, "pass")


def _commands(tmp_path):
    """One passing run of each command."""
    return [
        ["chi", "fixtures/bz2.catj"],
        ["check", "fixtures/ez2-to-bz2.catj", "fib-groupoids"],
        ["verify", "product-bicat", "fixtures/gr-psg-over-arrow.catj"],
        ["gen", "trihom-psgrpd", "--out", str(tmp_path / "trihom.catj")],
    ]


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="no built-in SHA-256 module: cli falls back to hashlib",
)
def test_no_command_loads_openssl(fixture_dir, tmp_path):
    # `hashlib` loads OpenSSL through `_hashlib`; cli hashes with the built-in module instead.
    for argv in _commands(tmp_path):
        code = f"from bicat_euler.cli import main; assert main({argv!r}) == 0"
        assert not _loaded_beyond_bare(fixture_dir, code) & {"hashlib", "_hashlib"}, argv


def test_gen_digest_is_of_the_file_written(capsys, tmp_path):
    target = tmp_path / "laxcat.catj"
    code, out, _ = run(capsys, "gen", "groupoid-valued-laxcat", "--seed", "4", "--out", str(target), "--json")
    assert code == 0 and json.loads(out)["results"]["sha256"] == hashlib.sha256(target.read_bytes()).hexdigest()


def test_cli_import_loads_no_thread_pool(fixture_dir):
    # The bifibration sweep is serial: on a GIL build a thread pool gave it no speedup.
    assert "concurrent.futures" not in _loaded_after(fixture_dir, "import bicat_euler.cli")


def test_package_has_no_attribute_beyond_its_modules():
    import bicat_euler

    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        bicat_euler.nope


def test_cli_import_loads_no_kind_module(fixture_dir):
    assert not _loaded_after(fixture_dir, "import bicat_euler.cli") & LAZY_MODULES
    loaded = _loaded_beyond_bare(fixture_dir, "import bicat_euler.cli")
    assert not loaded & UNNEEDED_STDLIB and not _top_level(loaded) & UNLOADED


def test_package_imports_no_pathlib_or_typing(fixture_dir, tmp_path):
    # Run without `site`, which may load both through a .pth file: the package itself needs neither.
    gen = f"['gen', 'trihom-psgrpd', '--out', {str(tmp_path / 'trihom.catj')!r}]"
    for code in ["import bicat_euler.cli",
                 "from bicat_euler.cli import main; main(['verify', 'product-bicat', 'fixtures/gr-psg-over-arrow.catj'])",
                 f"from bicat_euler.cli import main; main({gen})"]:
        proc = _python(fixture_dir, "-S", "-c", code + "\nimport sys; print(' '.join(sys.modules))", text=True)
        assert proc.returncode == 0, proc.stderr
        assert not {"pathlib", "typing"} & set(proc.stdout.split()), code


def test_each_command_loads_only_the_modules_it_runs(fixture_dir, tmp_path):
    chi = _loaded_after(fixture_dir, "from bicat_euler.cli import main; main(['chi', 'fixtures/bz2.catj'])")
    assert not chi & {"bicat_euler.bicat", "bicat_euler.fib1"}
    check = "from bicat_euler.cli import main; main(['check', 'fixtures/ez2-to-bz2.catj', 'fib-groupoids'])"
    loaded = _loaded_after(fixture_dir, check)
    assert "bicat_euler.fib1" in loaded and not loaded & {"bicat_euler.bicat", "bicat_euler.bifib"}
    acyclic = "from bicat_euler.cli import main; main(['check', 'fixtures/bpt.catj', 'acyclic'])"
    loaded = _loaded_after(fixture_dir, acyclic)
    assert "bicat_euler.bicat" in loaded and not loaded & {"bicat_euler.fixtures", "bicat_euler.fib1"}
    for argv in _commands(tmp_path):
        code = f"from bicat_euler.cli import main; assert main({argv!r}) == 0"
        loaded = _loaded_beyond_bare(fixture_dir, code)
        assert not loaded & UNNEEDED_STDLIB and not _top_level(loaded) & UNLOADED, argv


def test_no_command_form_loads_fractions_decimal_or_json(fixture_dir, tmp_path):
    # Every output form of each command, in one interpreter: plain and --json, each option, a failed
    # check's witness line, no Euler characteristic, gen to stdout and to a file.
    out = str(tmp_path / "out.catj")
    forms = [
        ["check", "fixtures/ez2-to-bz2.catj", "fib-groupoids"],
        ["check", "fixtures/bz2.catj", "acyclic"],
        ["check", "fixtures/bz2.catj", "acyclic", "--json"],
        ["gen", "pseudogroupoid"],
        ["gen", "trihom-psgrpd", "--out", out, "--json"],
        ["chi", "fixtures/bz2.catj", "--weighting", "--coweighting", "--decimal"],
        ["chi", "fixtures/bz2.catj", "--json"],
        ["chi", "fixtures/nochi-catgraph.catj"],
        ["verify", "product-bicat", "fixtures/gr-psg-over-arrow.catj"],
        ["verify", "gr", "fixtures/bz2-base-laxcat.catj", "--json"],
    ]
    code = "import contextlib, io\nfrom bicat_euler.cli import main\n"
    code += "".join(f"with contextlib.redirect_stdout(io.StringIO()): main({argv!r})\n" for argv in forms)
    assert not _top_level(_loaded_beyond_bare(fixture_dir, code)) & UNLOADED


def test_generators_import_validates_nothing(fixture_dir):
    # The builders that `gen` draws on build their values when called, not when `gen` imports them.
    code = """import sys
calls = []
sys.setprofile(lambda frame, event, arg: event == "call" and frame.f_code.co_name.startswith("validate_")
               and calls.append(frame.f_code.co_name))
import bicat_euler.generators
sys.setprofile(None)
print(len(calls), "bicat_euler.fixtures" in sys.modules)
"""
    proc = _python(fixture_dir, "-c", code, text=True, check=True)
    assert proc.stdout.split() == ["0", "True"]


def test_package_attributes_import_submodules(fixture_dir):
    code = "import bicat_euler; print(bicat_euler.bifib.__name__); print(hasattr(bicat_euler, 'nosuch'))"
    proc = _python(fixture_dir, "-c", code, text=True, check=True)
    assert proc.stdout.split() == ["bicat_euler.bifib", "False"]


def test_process_exit_codes(fixture_dir):
    cases = [
        (["chi", "fixtures/bz2.catj"], 0, b"1/2\n"),
        (["check", "fixtures/acyclic2.catj", "pseudogroupoid"], 1, None),
        (["chi", "fixtures/negative/e005-syntax.catj"], 2, b""),
    ]
    for argv, code, out in cases:
        proc = _python(fixture_dir, "-m", "bicat_euler.cli", *argv)
        assert proc.returncode == code, (argv, proc.stderr)
        assert out is None or proc.stdout == out


def test_process_output_through_a_pipe_is_complete(fixture_dir, tmp_path):
    from bicat_euler.catdsl import serialize
    from bicat_euler.generators import gen_trihom

    argv = ["-m", "bicat_euler.cli", "gen", "trihom-psgrpd", "--size", "3"]
    piped = _python(fixture_dir, *argv)
    target = tmp_path / "trihom.catj"
    written = _python(fixture_dir, *argv, "--out", str(target))
    assert piped.returncode == 0 and written.returncode == 0
    assert piped.stdout == target.read_bytes()
    assert target.read_text(encoding="utf-8") == serialize(gen_trihom(0, 3))


def test_unexpected_exception_exits_3_with_traceback(capsys, fixture_dir, monkeypatch):
    # NonUniqueLift is an input error only in `verify gr-bicat`; anywhere else it is a bug.
    from bicat_euler import bifib, fib1

    def broken(p):
        raise fib1.NonUniqueLift("two lifts")

    monkeypatch.setattr(fib1, "classify_fibration", broken)
    monkeypatch.setattr(bifib, "verify_product_formula_bicat", broken)
    for argv in (["check", "ez2-to-bz2.catj", "fibered"], ["verify", "product-bicat", "gr-psg-over-arrow.catj"]):
        code, out, err = run(capsys, *[str(fixture_dir / a) if a.endswith(".catj") else a for a in argv])
        assert code == 3 and out == ""
        assert err.startswith("Traceback") and "NonUniqueLift: two lifts" in err


def test_process_entry_point_runs_main_without_gc_and_exits_with_its_status(capsys, fixture_dir, monkeypatch):
    # `cli.run` ends the process through `os._exit`; here that records the status and raises instead.
    from bicat_euler import cli

    statuses = []

    def exit_(status):
        statuses.append(status)
        raise SystemExit(status)

    monkeypatch.setattr(os, "_exit", exit_)
    try:
        monkeypatch.setattr(sys, "argv", ["bicat-euler", "chi", str(fixture_dir / "bz2.catj")])
        with pytest.raises(SystemExit):
            cli.run()
        assert not gc.isenabled()
        assert capsys.readouterr().out == "1/2\n"
        # `python -m bicat_euler.cli` runs the module again as __main__, beside the imported one.
        nochi = str(fixture_dir / "nochi-catgraph.catj")
        monkeypatch.setattr(sys, "argv", ["bicat-euler", "chi", nochi, "--kind", "catgraph"])
        with pytest.warns(RuntimeWarning, match="found in sys.modules"), pytest.raises(SystemExit):
            runpy.run_module("bicat_euler.cli", run_name="__main__")
        assert capsys.readouterr().out == "no Euler characteristic (missing: weighting)\n"
    finally:
        gc.enable()
    assert statuses == [0, 1]
