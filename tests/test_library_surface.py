"""The package's surface: no module, and no test module, imports a name it
never uses, no function or method is defined that the package never names,
and `kt1sim.__all__` names only what exists.  Parsing the sources with `ast`
keeps the check in the standard library and in the fast tier."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import kt1sim

SRC = Path(kt1sim.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
TESTS = Path(__file__).parent
# test_acceptance.py is the frozen acceptance gate, kept byte for byte, so
# its two unused imports stay.
TEST_MODULES = sorted(p.stem for p in TESTS.glob("*.py") if p.stem != "test_acceptance")

# Names a module imports only so that they can be imported from it.
RE_EXPORTS = {"bfscover": {"bfs_tree_from_json", "bfs_tree_to_json"}}

# Functions named only from outside the package: the acceptance gate imports
# the first four, and _clear_stages is the tests' way to empty the harness
# stage memo.
CALLED_FROM_OUTSIDE = {"election_to_json", "sparsity_bound", "cover_to_json", "run_digest",
                       "_clear_stages"}

# Library pieces that no pipeline or CLI command reached, since removed.
REMOVED = (
    "AugmentResult", "AugmentedClusterTree", "DetBFSResult", "ExplorationResult",
    "OutgoingEdgeSet", "TreeOpResult", "bfs_exploration", "broadcast",
    "compute_augmented_tree", "convergecast", "cover_from_json",
    "det_election_to_json", "minimal_outgoing_edge_set", "report_to_json",
)


def _unused_imports(tree: ast.Module) -> set:
    imported = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in stmt.names)
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            imported.update(a.asname or a.name for a in stmt.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for stmt in tree.body:  # a name listed in __all__ is used by exporting it
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
            used.update(ast.literal_eval(stmt.value))
    return imported - used


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_import_is_used(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(), filename=f"{module}.py")
    assert _unused_imports(tree) == RE_EXPORTS.get(module, set())


@pytest.mark.parametrize("module", TEST_MODULES)
def test_every_test_module_import_is_used(module):
    tree = ast.parse((TESTS / f"{module}.py").read_text(), filename=f"{module}.py")
    assert _unused_imports(tree) == set()


def test_unused_import_check_sees_a_dead_import():
    tree = ast.parse("from __future__ import annotations\nimport json, os.path\n"
                     "from typing import Any, List\nx: List[int] = []\n")
    assert _unused_imports(tree) == {"json", "os", "Any"}


def _unnamed_functions(sources: dict) -> set:
    """Top-level functions and class methods, other than dunders, that no
    code in sources (module -> text) names: their name is no Name id,
    Attribute attr or imported name there.  Comments, docstrings and
    strings do not count."""
    defined, named = set(), set()
    for source in sources.values():
        tree = ast.parse(source)
        for stmt in tree.body:
            body = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
            defined.update(f.name for f in body if isinstance(f, ast.FunctionDef))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.update((node.name, node.asname))
    return {name for name in defined if not name.startswith("__")} - named


def test_every_function_is_named_in_the_package():
    sources = {m: (SRC / f"{m}.py").read_text() for m in MODULES}
    assert _unnamed_functions(sources) == CALLED_FROM_OUTSIDE


def test_unnamed_function_check_sees_a_dead_method():
    sources = {"a": "class A:\n    def used(self):\n        return self.helper()\n\n"
                    "    def helper(self):\n        pass\n\n    def dead(self):\n        pass\n",
               "b": "def __getattr__(name):\n    pass\n\ndef orphan():\n    pass\n\n"
                    "def mentioned():  # only this comment says mentioned again\n"
                    "    pass\n",
               "c": "from b import orphan as renamed\n# mentioned\n"}
    assert _unnamed_functions(sources) == {"used", "dead", "mentioned"}


def test_all_names_resolve_and_removed_names_stay_out():
    assert len(set(kt1sim.__all__)) == len(kt1sim.__all__)
    missing = [name for name in kt1sim.__all__ if not hasattr(kt1sim, name)]
    assert missing == []
    assert set(REMOVED).isdisjoint(kt1sim.__all__)
    assert not [name for name in REMOVED if hasattr(kt1sim, name)]
