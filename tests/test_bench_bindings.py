"""The benchmark's tracer still finds the names it binds in the package.

`perfbench/traced_cli.py` wraps functions by their `module.name` and reads
work counters from their arguments and results; a rename under `src/`
makes a span vanish or a counter read 0 with no error.  Each command here
runs under the unchanged tracer, and the spans and counters of the layers
it passes through must be there.  The spans and counters are checked
against the tables of `perfbench/layers.py`, which turn them into metrics,
so a change there shows up here too.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from tests.conftest import REPO


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", REPO / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_layers()
# metric -> the functions whose spans layers.py reads it from
SPANS_OF = {**LAYERS._SELF, **LAYERS._INCLUSIVE}
COUNTERS = set(LAYERS._COUNTS + LAYERS._PEAKS)
# Functions layers.py still names that the package no longer defines; ROADMAP item 1's list of
# stale text drops them.  A new stale name, or one dropped from layers.py, fails the test below.
STALE = {"exactq.invert", "exactq.solve_coweighting", "fincat.validate_nat_transformation"}

# (command line, counters that must be positive, metric -> spans of it that must occur)
COMMANDS = [
    (
        ["chi", "fixtures/bz2.catj"],
        ["exactq.solves", "exactq.max_dim", "fincat.morphisms_validated"],
        {"fincat.similarity_ms": ["fincat.similarity_matrix"], "exactq.solve_ms": ["exactq.solve_weighting"]},
    ),
    (
        ["chi", "fixtures/psg.catj", "--kind", "catgraph"],
        ["exactq.solves", "exactq.max_dim", "fincat.morphisms_validated"],
        {
            "bicat.validate_ms": ["bicat.validate_bicategory"],
            "bicat.similarity_ms": ["bicat.similarity_matrix_cg"],
            "exactq.solve_ms": ["exactq.solve_weighting"],
        },
    ),
    (
        ["check", "fixtures/d2-to-pt.catj", "fib-groupoids"],
        ["fincat.morphisms_validated", "fib1.cartesian_tests"],
        {"fib1.classify_ms": ["fib1.classify_fibration"]},
    ),
    (
        ["verify", "gr", "fixtures/arrow-base-laxcat.catj"],
        ["exactq.solves", "exactq.max_dim", "fincat.morphisms_validated"],
        {
            "fib1.grothendieck_ms": ["fib1.grothendieck_cat"],
            "fincat.similarity_ms": ["fincat.similarity_matrix"],
            "exactq.solve_ms": ["exactq.solve_weighting"],
        },
    ),
    (
        ["verify", "product-bicat", "fixtures/psg-collapse.catj"],
        [
            "exactq.solves", "exactq.max_dim", "fincat.morphisms_validated", "fib1.cartesian_tests",
            "bifib.onecells_swept", "bifib.gr_twocells",
        ],
        {
            "bicat.validate_ms": ["bicat.validate_bicategory", "bicat.validate_lax_functor"],
            "bifib.classify_ms": ["bifib.classify_bifibration"],
            "bifib.fiber_ms": ["bifib.fiber_bicategory"],
            "bifib.grothendieck_ms": ["bifib.grothendieck_cg"],
            "bicat.similarity_ms": ["bicat.similarity_matrix_cg"],
            "exactq.solve_ms": ["exactq.solve_weighting"],
        },
    ),
]


@pytest.mark.parametrize("argv, counters, spans", COMMANDS, ids=[" ".join(argv[:2]) for argv, _, _ in COMMANDS])
def test_traced_command_sees_its_layers(tmp_path, argv, counters, spans):
    assert set(counters) <= COUNTERS
    assert {metric: [n for n in names if n not in SPANS_OF[metric]] for metric, names in spans.items()} == {
        metric: [] for metric in spans
    }
    out = tmp_path / "spans.json"
    tracer = REPO / "perfbench" / "traced_cli.py"
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, str(tracer), str(out), "c0", *argv], cwd=REPO, env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
    counts = payload["counts"]
    document = next(a for a in argv if a.endswith(".catj"))
    assert counts["catdsl.parse_bytes"] == (REPO / document).stat().st_size
    assert [name for name in counters if counts.get(name, 0) <= 0] == []
    seen = {span[0] for span in payload["spans"]}
    assert {name for names in spans.values() for name in names} - seen == set()


def test_layers_names_only_package_functions():
    def defined(name):
        module, attr = name.split(".", 1)
        return hasattr(importlib.import_module(f"bicat_euler.{module}"), attr)

    named = {name for names in SPANS_OF.values() for name in names}
    assert {name for name in named if not defined(name)} == STALE
