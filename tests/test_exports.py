import ast
import importlib
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


def unused_imports(source):
    """(line, name) of each module-level import that ``source`` never uses.

    A name listed in ``__all__``, or imported on a line marked
    ``# noqa: F401``, counts as used.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    imports = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
        elif isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imports += node.names
    unused = []
    for alias in imports:
        name = alias.asname or alias.name.split(".")[0]
        if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
            unused.append((alias.lineno, name))
    return unused


def test_package_has_no_unused_imports():
    flagged = [
        f"{path.name}:{line} {name}"
        for path in sorted((ROOT / "src" / "thermalcluster").glob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert flagged == []


def test_benchmark_workloads_run_on_this_api(tmp_path, monkeypatch):
    # the benchmark reaches the package through its public names and
    # signatures: one warm-up request of each workload must run and pass
    # its checks, so a change that breaks the benchmark fails here
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, 0, str(tmp_path))
        inp = wl.warmup_input()
        assert wl.check(inp, wl.run(inp)) == [], name


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
    # every module's __all__ resolves: the benchmark's tracer looks each entry up
    for path in sorted((ROOT / "src" / "thermalcluster").glob("*.py")):
        module = thermalcluster if path.stem == "__init__" else importlib.import_module(
            f"thermalcluster.{path.stem}"
        )
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], (path.stem, missing)
