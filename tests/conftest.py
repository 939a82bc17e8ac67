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
    """Every fiber bicategory the suite builds equals its validated value, and so does each fiber hom.

    `bifib.fiber_bicategory` cuts each fiber hom out of a validated total hom
    without checking its laws, and assembles the fiber without checking its
    frames; this checks both on every fiber built, the laws exhaustively.
    """
    from bicat_euler import bifib
    from bicat_euler.bicat import validate_bicategory

    build = bifib.fiber_bicategory

    def checked(p, b_obj):
        fiber = build(p, b_obj)
        for hom in fiber.graph.hom.values():
            assert validate_category(hom.objects, hom.morphisms, hom.identity, hom.compose) == hom
        assert validate_bicategory(fiber.objects, fiber.graph.hom, fiber.identity1, fiber.compose1) == fiber
        return fiber

    monkeypatch.setattr(bifib, "fiber_bicategory", checked)
