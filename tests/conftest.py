import pathlib

import pytest

from category_oracle import validate_category

REPO = pathlib.Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO / "fixtures"
NEGATIVE_DIR = FIXTURE_DIR / "negative"


@pytest.fixture
def fixture_dir():
    return FIXTURE_DIR


@pytest.fixture
def negative_dir():
    return NEGATIVE_DIR


@pytest.fixture(autouse=True)
def fiber_homs_are_lawful(monkeypatch):
    """Every fiber hom the suite builds passes the exhaustive validator and equals its validated value.

    `bifib.fiber_bicategory` cuts each fiber hom out of a validated total hom
    without checking its laws; this checks them on every fiber built.
    """
    from bicat_euler import bifib

    build = bifib.fiber_bicategory

    def checked(p, b_obj):
        fiber = build(p, b_obj)
        for hom in fiber.graph.hom.values():
            assert validate_category(hom.objects, hom.morphisms, hom.identity, hom.compose) == hom
        return fiber

    monkeypatch.setattr(bifib, "fiber_bicategory", checked)
