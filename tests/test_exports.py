import ast
import pathlib
import re

import thermalcluster

ROOT = pathlib.Path(__file__).resolve().parent.parent


def root_imports(source):
    """Names a source text imports with ``from thermalcluster import ...``."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "thermalcluster"
        for alias in node.names
    }


def test_demos_and_readme_import_only_exported_names():
    sources = {p.name: p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))}
    readme = (ROOT / "README.md").read_text()
    for k, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        sources[f"README.md block {k}"] = block
    assert any(name.startswith("README") for name in sources)
    exported = set(thermalcluster.__all__)
    for name, source in sources.items():
        names = root_imports(source)
        assert names, name
        assert names <= exported, (name, sorted(names - exported))
    assert all(hasattr(thermalcluster, name) for name in exported)
