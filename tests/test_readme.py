"""The README's examples run, its command synopsis matches the parser and
its config block lists the config keys.

Each ```python block runs in its own interpreter, as a reader would paste it;
each `--flag` on a `mirnet-forge` line of a ```sh block must be an option of
that command, so a deleted flag cannot stay documented; the ```ini block holds
every config key, in order, at its default.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import mirnet_forge
import pytest

from mirnet_forge import cli, config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


PYTHON_BLOCKS = _blocks("python")
# command -> every --flag the synopsis gives it
SYNOPSIS = {}
for block in _blocks("sh"):
    for line in block.splitlines():
        words = line.split()
        if words[:1] == ["mirnet-forge"]:
            SYNOPSIS.setdefault(words[1], set()).update(re.findall(r"--[\w-]+", line))


def test_config_block_lists_every_key_at_its_default():
    block, = _blocks("ini")
    keys = [line.split("#")[0].split("=")[0].strip() for line in block.splitlines()]
    assert keys == list(config._KEYS)
    assert config.parse_config(block) == config.RunConfig()


def test_readme_has_examples_and_a_synopsis():
    assert PYTHON_BLOCKS
    assert set(SYNOPSIS) == {"train", "eval", "infer", "gradcheck", "ablate"}


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_python_block_runs(index, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=str(Path(mirnet_forge.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", PYTHON_BLOCKS[index]],
                          capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", sorted(SYNOPSIS))
def test_synopsis_flags_are_options(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    missing = sorted(flag for flag in SYNOPSIS[command]
                     if not re.search(rf"{flag}\b", usage))
    assert not missing, f"{command} has no {missing}"
