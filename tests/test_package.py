"""The package's lazy exports (PEP 562); that `import dtcmorph` loads no
numpy is checked in a fresh interpreter in test_cli.py."""

import pytest

import dtcmorph
from dtcmorph import fileio


def test_every_export_resolves_and_is_listed():
    names = dtcmorph.__all__
    assert len(names) == len(set(names)) == 51
    listed = dir(dtcmorph)
    for name in names:
        assert getattr(dtcmorph, name) is not None
        assert name in listed
    assert dtcmorph.__version__ == fileio.TOOL_VERSION == dtcmorph.TOOL_VERSION
    assert "__version__" in listed


def test_a_misspelled_name_raises_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'dtcmorph' has no attribute 'sparsity_fractoin'"):
        dtcmorph.sparsity_fractoin
