"""The command-line checks of the scripts under tools/."""

import importlib.util
from pathlib import Path

import pytest

TIME_BUILD = Path(__file__).resolve().parent.parent / "tools" / "time_build.py"


def load_time_build():
    spec = importlib.util.spec_from_file_location("time_build", TIME_BUILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n_sites", ["7", "0", "14", "-2"])
def test_time_build_rejects_a_chain_length_it_cannot_build(capsys, n_sites):
    with pytest.raises(SystemExit) as exc:
        load_time_build().main(["--n-sites", "4", n_sites])
    assert exc.value.code == 2
    assert "--n-sites takes even chain lengths from 2 to 12" in capsys.readouterr().err
