"""The package's layering, as README states it: each module imports only the
modules listed above it. ``__init__`` and ``__main__`` are exempt."""

import ast
from pathlib import Path

import kalliance

LAYERS = ("graphs", "alliances", "solver", "bounds", "corpus", "known_values", "cli")
PACKAGE = Path(kalliance.__file__).resolve().parent


def package_imports(name: str) -> set[str]:
    """The package modules that module ``name`` imports, through
    ``from .x import ...`` or ``from . import x``, anywhere in its source."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_the_layer_list_names_every_module():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(LAYERS)


def test_each_module_imports_only_the_modules_above_it():
    # The cli reads both relative forms; an empty set there would mean the
    # walk saw no imports at all.
    assert {"bounds", "corpus", "solver"} <= package_imports("cli")
    for position, name in enumerate(LAYERS):
        below = package_imports(name) - set(LAYERS[:position])
        assert not below, f"{name} imports {sorted(below)}, which README lists below it"


ORACLE = ("_oracle_sweep", "_graph_sweep", "brute_force_oracle")
SEARCH = {"_Search", "_layout", "_layout_value", "solve_from", "solve", "problem", "requirements"}


def test_the_oracle_shares_no_search_code():
    """The oracle, and every ``solver`` function it calls, reference none of
    the search's names: it asks ``alliances.meets`` alone (ROADMAP aim 2)."""
    tree = ast.parse((PACKAGE / "solver.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(ORACLE) <= set(functions)
    seen, todo, names = set(), list(ORACLE), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        todo += [n for n in names if n in functions]
    assert "meets" in names
    assert not names & SEARCH, f"the oracle reaches {sorted(names & SEARCH)}"


def test_the_cli_reaches_the_bound_catalogue_only_through_evaluate_all():
    """Which bounds a query gets, and under which target, is decided in
    ``bounds`` alone: the cli names no other ``bounds`` function, and none
    of the graph predicates the set-level bounds test (ROADMAP aim 2)."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    aliases, used, graph_names = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None and alias.name == "bounds":
                    aliases.add(alias.asname or alias.name)
                elif node.module == "bounds":
                    used.add(alias.name)
                elif node.module == "graphs":
                    graph_names.add(alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                used.add(node.attr)
    assert aliases, "the cli no longer imports bounds"
    assert used == {"evaluate_all"}, f"the cli calls bounds.{sorted(used - {'evaluate_all'})}"
    assert not graph_names & {"induced_subgraph", "is_tree", "is_triangle_free"}


def test_every_bound_report_is_built_by_the_catalogue_constructor():
    """``bounds`` builds a ``BoundReport`` only inside ``_report``, which
    reads each bound's kind, target and anchor from ``_BOUNDS`` and clamps
    lower bounds, and it takes nothing from ``dataclasses`` but
    ``dataclass``: no report is relabelled by ``replace`` past the table."""
    tree = ast.parse((PACKAGE / "bounds.py").read_text(encoding="utf-8"))
    builders = [
        function.name
        for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "BoundReport"
    ]
    assert builders == ["_report"], f"BoundReport is built in {builders}"
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names if alias.name == "dataclasses")
    assert imported == {"dataclass"}, f"bounds imports {sorted(imported)} from dataclasses"
