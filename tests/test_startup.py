"""What a fresh interpreter loads: ``import stormlet.cli`` loads no front end,
each run loads only its own, human output loads no ``json``, and
``stormlet.prism.explore`` names the explorer's function in any import
order. Each check runs in a subprocess."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stormlet

SRC = str(Path(stormlet.__file__).resolve().parent.parent)
DIE = str(Path(__file__).parent / "corpus" / "die.pm")
FRONT_ENDS = ("stormlet.prism.explore", "stormlet.explicit", "dataclasses")


def fresh(code):
    """The last stdout line of ``code`` run in a fresh interpreter, read as JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def loaded_after(statements):
    return fresh(f"import json, sys\n{statements}\nprint(json.dumps([m for m in {FRONT_ENDS!r} if m in sys.modules]))")


def test_cli_import_loads_no_front_end():
    assert loaded_after("import stormlet.cli") == []


def test_prism_run_skips_the_explicit_loader():
    run = f"from stormlet import cli\nassert cli.main(['--prism', {DIE!r}, '--prop', 'P=? [ F \"six\" ]']) == 0"
    assert loaded_after(run) == ["stormlet.prism.explore"]


def test_explicit_run_skips_the_explorer(tmp_path):
    (tmp_path / "m.tra").write_text("dtmc\n0 1 1\n1 1 1\n")
    (tmp_path / "m.lab").write_text("#DECLARATION\ninit goal\n#END\n0 init\n1 goal\n")
    argv = ["--explicit", str(tmp_path / "m.tra"), str(tmp_path / "m.lab"), "--prop", 'P=? [ F "goal" ]']
    assert loaded_after(f"from stormlet import cli\nassert cli.main({argv!r}) == 0") == ["stormlet.explicit"]


PRISM_RUN = f"assert cli.main(['--prism', {DIE!r}, '--prop', 'P=? [ F \"six\" ]']) == 0"


def test_human_output_skips_json():
    assert fresh(f"import sys\nfrom stormlet import cli\n{PRISM_RUN}\nprint(str('json' in sys.modules).lower())") is False


@pytest.mark.parametrize("prelude", [
    pytest.param("from stormlet.prism import explore, ExploreOptions\n" + PRISM_RUN, id="before-cli-run"),
    pytest.param(PRISM_RUN + "\nfrom stormlet.prism import explore, ExploreOptions", id="after-cli-run"),
    pytest.param("import stormlet.prism.explore\nfrom stormlet.prism import explore, ExploreOptions",
                 id="after-submodule-import"),
])
def test_prism_explore_is_the_function(prelude):
    check = (
        "import importlib, json, stormlet.prism\nfrom stormlet import cli\n" + prelude + "\n"
        "module = importlib.import_module('stormlet.prism.explore')\n"
        "model, _ = explore(stormlet.prism.typecheck(stormlet.prism.parse_program(open(" + repr(DIE) + ").read())),"
        " ExploreOptions(exact=True))\n"
        "print(json.dumps([explore is module.explore, stormlet.prism.explore is module.explore,"
        " ExploreOptions is module.ExploreOptions, model.n_states]))"
    )
    assert fresh(check) == [True, True, True, 13]
