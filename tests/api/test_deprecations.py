"""The top-level package exports no retired entry points."""

import warnings

import pytest


class TestTopLevelShims:
    def test_pipeline_import_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.pipeline import CodecEngine, read_members
            assert CodecEngine and read_members

    def test_star_import_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            namespace = {}
            exec("from repro import *", namespace)
        assert "Session" in namespace
        for retired in ("StreamingCompressor", "MultiVariableCompressor",
                        "MultiVarResult"):
            assert retired not in namespace

    def test_unknown_attribute_still_raises(self):
        import repro
        with pytest.raises(AttributeError):
            repro.NoSuchThing
