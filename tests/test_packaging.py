"""Every third-party module that the package imports is declared in
``pyproject.toml``, so a missing dependency fails here rather than at a
user's first run; every name a source file imports is used in it; the
per-character seeded picks are drawn in one function; and the record rules
have one vector copy beside the per-record checks."""

import ast
import re
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def imported_modules(path: Path) -> set[str]:
    """The top-level names of the absolute imports in one source file."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules.add(node.module.split(".")[0])
    return modules


def normalized(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def test_third_party_imports_are_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {normalized(re.match(r"[A-Za-z0-9._-]+", spec).group())
                for spec in project["dependencies"]}
    src = ROOT / "src"
    own = {path.name for path in src.iterdir() if path.is_dir()}
    distributions = packages_distributions()
    third_party = {
        module
        for path in src.rglob("*.py")
        for module in imported_modules(path)
        if module not in sys.stdlib_module_names and module not in own and module != "__future__"
    }
    assert third_party, "the package imports no third-party module"
    missing = {
        module for module in third_party
        if not {normalized(d) for d in distributions.get(module, [module])} & declared
    }
    assert not missing, f"imported but not declared in pyproject.toml: {sorted(missing)}"


def read_names(tree: ast.Module) -> set[str]:
    """Every name a module reads: loaded in its code, inside a quoted
    annotation, or listed in its ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            annotations = []
        for quoted in (c for a in annotations if a is not None for c in ast.walk(a)
                       if isinstance(c, ast.Constant) and isinstance(c.value, str)):
            names |= read_names(ast.parse(quoted.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return names


def test_no_unused_imports_under_src():
    unused = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = read_names(tree)
        imports = (node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__")
        unused += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                   for node in imports for alias in node.names
                   if (name := alias.asname or alias.name.split(".")[0]) not in used]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def pick_index_calls(tree: ast.AST, function: str = ""):
    """(line, innermost enclosing function) of each call of ``pick_index``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call) and "pick_index" in (
            getattr(node.func, "attr", None), getattr(node.func, "id", None)
        ):
            yield node.lineno, function
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from pick_index_calls(node, inner)


def test_per_character_picks_are_drawn_in_one_function():
    # synth's draws are per span; every per-character pick is a keyed_picks one
    allowed = {"seeds.py": None, "synth.py": None, "masks.py": "keyed_picks"}
    stray = [
        f"{path.relative_to(ROOT)}:{line} in {function or 'the module'}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line, function in pick_index_calls(ast.parse(path.read_text(encoding="utf-8")))
        if path.name not in allowed or allowed[path.name] not in (None, function)
    ]
    assert not stray, "seeds.pick_index called outside masks.keyed_picks:\n" + "\n".join(stray)


def cui_pattern_reads(tree: ast.AST, scope: str = ""):
    """(line, enclosing 'Class.function') of each read of ``CUI_PATTERN``."""
    for node in ast.iter_child_nodes(tree):
        if (isinstance(node, ast.Name) and node.id == "CUI_PATTERN"
                and isinstance(node.ctx, ast.Load)) or getattr(node, "attr", None) == "CUI_PATTERN":
            yield node.lineno, scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from cui_pattern_reads(node, f"{scope}.{node.name}".lstrip("."))
        else:
            yield from cui_pattern_reads(node, scope)


def test_record_rules_have_one_vector_home():
    # the per-record rules (Annotation) and one vector copy of them (row_faults)
    homes = {"Annotation.__post_init__", "row_faults"}
    reads = [
        (f"{path.relative_to(ROOT)}:{line}", scope)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line, scope in cui_pattern_reads(ast.parse(path.read_text(encoding="utf-8")))
    ]
    stray = [f"{where} in {scope or 'the module'}" for where, scope in reads if scope not in homes]
    assert not stray, "CUI_PATTERN read outside its two homes:\n" + "\n".join(stray)
    assert {scope for _, scope in reads} == homes
