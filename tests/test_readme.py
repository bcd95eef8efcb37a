"""The README's library example runs as printed, and the package root exports
what ``__all__`` names."""

import contextlib
import io
import re
from pathlib import Path

import paraquat

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    cls, residual = out.getvalue().splitlines()
    assert cls == "StructureClass.PQK"
    assert float(residual) < 1e-12


def test_package_root_exports_every_name_once():
    names = paraquat.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(paraquat, name)] == []
