"""The README's library example runs as printed."""

import pathlib
import re


def test_library_example_matches_every_zero(capsys):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    code, = re.findall(r"\n## Library\n\n```python\n(.*?)```", readme, re.S)
    namespace = {}
    exec(code, namespace)
    assert namespace["report"].all_matched
    assert capsys.readouterr().out.split()[-1] == "True"
