"""The package imports no third-party module that pyproject.toml does not declare,
only the gateway reaches the standard library's thread-starting APIs, a handler
that catches every exception sits only where the error is recorded or re-raised,
only the full tree build and the tree loader construct a ContextTree, importing
the package sets numpy's OpenBLAS to one thread unless the environment sets its
thread count, and the per-query modules take every cosine from one full
matrix-vector product."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level_names(package_dir: Path) -> set[str]:
    names = set()
    for path in package_dir.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_exactly_the_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    imported = imported_top_level_names(ROOT / "src" / "construm")
    third_party = imported - set(sys.stdlib_module_names) - {"construm"}
    assert third_party == declared == {"numpy"}


def thread_starters(path: Path) -> set[str]:
    """The dotted names in ``path`` that reach an API which starts threads."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return {n for n in names if n.startswith("concurrent.futures") or n == "threading.Thread"
            or n.rsplit(".", 1)[-1] == "ThreadPoolExecutor"}


def test_only_the_gateway_starts_threads():
    package = ROOT / "src" / "construm"
    starters = {p.relative_to(package).as_posix(): thread_starters(p)
                for p in sorted(package.rglob("*.py"))}
    assert {name for name, found in starters.items() if found} == {"gateway.py"}


def package_scopes(holds) -> set[str]:
    """The dotted names (``module.function``, or the module's at top level) of
    the scopes in the package that hold an AST node for which ``holds`` is true."""
    package = ROOT / "src" / "construm"
    found = set()

    def visit(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if holds(child):
                found.add(scope)
            visit(child, scope)

    for path in package.rglob("*.py"):
        module = path.relative_to(package).with_suffix("").as_posix().replace("/", ".")
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), module)
    return found


def catches_everything(node: ast.AST) -> bool:
    """An ``except`` that is bare or catches ``Exception`` or ``BaseException``."""
    if not isinstance(node, ast.ExceptHandler):
        return False
    caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    return any(t is None or isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")
               for t in caught)


def test_broad_exception_handlers_only_record_or_re_raise():
    # anywhere else, a catch-all would pass a bug off as a degraded prompt
    allowed = ("cli.main",
               "evaluation.run_queries",  # records each query's failure
               "gateway.ModelGateway.concurrently")  # re-raises in the caller's thread
    found = package_scopes(catches_everything)
    assert found and {f for f in found
                      if not any(f == a or f.startswith(a + ".") for a in allowed)} == set()


def constructs_context_tree(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "ContextTree"
            or isinstance(func, ast.Attribute) and func.attr == "ContextTree")


def test_only_the_build_and_the_loader_construct_a_context_tree():
    # a side has one tree: the clustering adds nodes to the build's tree
    # rather than making a tree of its own
    assert package_scopes(constructs_context_tree) == {"tree.build_context_tree",
                                                       "tree.load_tree"}


# prints the thread count of numpy's OpenBLAS before and after ``import construm``,
# read through the library's own getter; prints nothing if no getter is found
BLAS_THREADS = """
import ctypes, pathlib, numpy
libs = pathlib.Path(numpy.__file__).parents[1] / "numpy.libs"
getters = [getattr(lib, symbol) for lib in map(ctypes.CDLL, map(str, libs.glob("*openblas*")))
           for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_")
           if hasattr(lib, symbol)]
if getters:
    before = getters[0]()
    import construm
    print(before, getters[0]())
"""


def blas_threads_around_import(**env: str) -> tuple[int, int]:
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", BLAS_THREADS], env={**base, **env},
                         capture_output=True, text=True, check=True).stdout.split()
    if not out:
        pytest.skip("numpy's BLAS is not a bundled OpenBLAS")
    return tuple(map(int, out))


def test_import_sets_openblas_to_one_thread():
    # OpenBLAS workers spin-wait after each multi-threaded product, on the
    # cores the gateway's pool needs
    assert blas_threads_around_import()[1] == 1


def test_import_keeps_a_blas_thread_count_the_environment_sets():
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS caps its thread count at the CPU count")
    assert blas_threads_around_import(OPENBLAS_NUM_THREADS="2") == (2, 2)


def test_per_query_cosines_use_no_row_by_row_products():
    # a per-row dot differs from the row of ``matrix @ vec`` in the last bit,
    # which can flip a near-tie or a ``>= tau`` test
    banned = {f"{mod}.{fn}" for mod in ("np", "numpy") for fn in ("dot", "inner", "vdot")}
    package = ROOT / "src" / "construm"
    found = {}
    for name in ("graph.py", "diff.py", "pipeline.py"):
        path = package / name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and f"{func.value.id}.{func.attr}" in banned):
                found.setdefault(name, []).append(node.lineno)
    assert found == {}


def test_diff_renders_packs_without_the_pipeline():
    # both prompt kinds render packs through tree.render_prompt_packs, so
    # the block prompts need nothing from the module that assembles the
    # decision prompt
    path = ROOT / "src" / "construm" / "diff.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert "construm.tree" in imported
    assert not {m for m in imported if m.endswith("pipeline")}
