"""README's Library example runs and prints what its comments say.

The example is the one documented user of the top-level names, so this
pins them: a name dropped from ``masstransport/__init__.py`` that the
example imports fails here.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# what each print of the example gives, as its comment says
PRINTED = ["(3, 4)", "{4: 1.0}", "(Fraction(36, 625), Fraction(36, 625))", "20169/78125"]


def test_the_library_example_prints_what_its_comments_give(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    for line, value in zip(prints, PRINTED, strict=True):
        assert line.endswith(value), line
    monkeypatch.chdir(ROOT)  # the example reads specs/ relative to the repo root
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {"__name__": "readme_example"})
    assert out.getvalue().splitlines() == PRINTED
