import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import nlvtest

MODULES = ["nlvtest"] + [
    f"nlvtest.{info.name}" for info in pkgutil.iter_modules(nlvtest.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_readme_library_example(capsys):
    # the README's one python block runs as printed and gives the values its comment states
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    analytic, measured = capsys.readouterr().out.splitlines()
    l_value, bound = (float(x) for x in analytic.split())
    assert (f"{l_value:.4f}", f"{bound:.4f}") == ("3.9319", "3.8424")
    assert "# 3.9319 vs 3.8424" in blocks[0]
    l_exp, sigma, violation_sigmas = (float(x) for x in measured.split())
    assert sigma > 0.0
    assert violation_sigmas == (l_exp - bound) / sigma
