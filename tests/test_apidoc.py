"""API-doc generator tests: completeness and __all__ hygiene."""

import importlib
import pathlib

import pytest

from repro.bench.apidoc import SUBPACKAGES, document_module, generate_api_markdown


class TestAllHygiene:
    """Every name in every __all__ must resolve — the generator doubles as
    an export linter."""

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", [])
        assert exported, f"{module_name} has no __all__"
        for name in exported:
            assert hasattr(module, name), f"{module_name}.{name} missing"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_no_duplicate_exports(self, module_name):
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", [])
        assert len(exported) == len(set(exported))

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_public_classes_have_docstrings(self, module_name):
        import inspect

        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert inspect.getdoc(obj), f"{module_name}.{name} lacks a docstring"


class TestGenerator:
    def test_every_subpackage_sectioned(self):
        text = generate_api_markdown()
        for name in SUBPACKAGES:
            assert f"## `{name}`" in text

    def test_document_module_table_shape(self):
        text = document_module("repro.merkle")
        assert "| symbol | kind | summary |" in text
        assert "`MerkleTree`" in text

    def test_markdown_has_no_unescaped_pipes_in_summaries(self):
        text = generate_api_markdown()
        for line in text.splitlines():
            if line.startswith("|") and not line.startswith("|---"):
                # A table row must have exactly 3 cells.
                assert line.count("|") - line.count("\\|") == 4, line

    def test_committed_api_doc_is_current(self):
        committed = pathlib.Path(__file__).resolve().parents[1] / "docs" / "API.md"
        assert committed.read_text() == generate_api_markdown(), (
            "docs/API.md is stale: regenerate it with `python -m repro apidoc`"
        )
