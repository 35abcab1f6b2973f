"""The README's library example runs, its config block names every key, and its tests exist."""

import ast
import json
import pathlib
import re

from leeyang import config

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text()


def test_library_example_matches_every_zero(capsys):
    code, = re.findall(r"\n## Library\n\n```python\n(.*?)```", README, re.S)
    namespace = {}
    exec(code, namespace)
    assert namespace["report"].all_matched
    assert capsys.readouterr().out.split()[-1] == "True"


def test_config_block_names_every_key():
    block, = re.findall(r"All commands read a JSON config:\n\n```json\n(.*?)```", README, re.S)
    data = json.loads(block)
    config.RunConfig(data)
    keys = {"top level": set(data), **{k: set(v) for k, v in data.items() if isinstance(v, dict)}}
    # the two keys the block leaves out, as its text says
    keys["temperature"].add("beta")
    keys["model"].add("couplings")
    assert keys == config._KEYS


def test_every_test_it_names_exists():
    # a backticked `tests/<file>.py[::Test...::test_...]`, or a bare test or class name
    tests = pathlib.Path(__file__).parent
    defined = {
        path.name: {node.name for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for path in tests.glob("*.py")
    }
    for text in re.findall(r"`([^`]*)`", README):
        path = re.match(r"tests/(\w+\.py)", text)
        assert path is None or path[1] in defined, text
        names = set(re.findall(r"\b(?:test_|Test)\w*", text[path.end():] if path else text))
        assert names <= (defined[path[1]] if path else set().union(*defined.values())), text
