"""numpy is the package's only runtime dependency outside the standard
library (scipy is often installed alongside, but is not declared)."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import invexreg

SRC = Path(__file__).resolve().parents[1] / "src" / "invexreg"


def test_package_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    paths = sorted(SRC.glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, n) for n in names if n.split(".")[0] not in allowed]
    assert outside == []


def test_every_exported_name_resolves():
    modules = [invexreg] + [importlib.import_module(f"invexreg.{path.stem}")
                            for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    missing = [(mod.__name__, name) for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_importing_the_package_loads_no_process_pool():
    """Only a sweep on more than one worker needs a process pool, so
    `run_sweep` imports it there and the package import stays lighter."""
    code = ("import sys, invexreg; print(sorted(m for m in sys.modules if m in "
            "('multiprocessing', 'concurrent.futures.process') "
            "or m.startswith('multiprocessing.')))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_a_trial_imports_no_module():
    """A module a trial imports on first use is paid inside that trial's wall,
    once in every pool worker.  Generating a process's first dataset imports
    numpy.random; after that no trial of any method may import anything
    (np.median's NaN check, for one, imports numpy.ma)."""
    code = ("import sys\n"
            "from invexreg import bench\n"
            "cfg = bench.ExperimentConfig(p=6, k=2, clean_count_rule=24, outlier_rule='half', "
            "C_values=(0.4, 0.8), c_lambda=0.1, seeds=(0, 1), sigma_e=0.1, "
            "max_resamples=500)\n"
            "cell = cfg.cells()[0]\n"
            "bench._dataset(cfg, cell['r'], cell['n_outliers'], 0)\n"
            "before = set(sys.modules)\n"
            "rows = [bench.run_trial(cfg, cell, 0, method)[0] for method in bench.METHODS]\n"
            "print([row['error'] for row in rows if row['error']])\n"
            "print(sorted(set(sys.modules) - before))\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["[]", "[]"]


def test_model_and_projections_import_nothing_from_the_package():
    """Every other module imports `model`, so it must stay a leaf; the
    projections are pure numpy."""
    for name in ("model.py", "projections.py"):
        path = SRC / name
        inside = []
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "invexreg"):
                inside.append(node.module)
            elif isinstance(node, ast.Import):
                inside += [a.name for a in node.names if a.name.split(".")[0] == "invexreg"]
        assert inside == [], name


def test_package_reads_no_environment_variable():
    """Every setting is an argument, so a run depends only on its call or
    command line; neither an import nor an attribute chain may reach
    os.environ, os.getenv or os.putenv."""
    banned = {"environ", "getenv", "putenv"}
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [(path.name, a.name) for a in node.names if a.name in banned]
            elif isinstance(node, ast.Attribute) and node.attr in banned \
                    and isinstance(node.value, ast.Name) and node.value.id == "os":
                found.append((path.name, node.lineno))
    assert found == []


def _private(dotted: str) -> bool:
    """A dotted name passes through a private module or attribute: a part
    that starts with '_' and is not a dunder such as __version__."""
    return any(part.startswith("_") and not (part.startswith("__") and part.endswith("__"))
               for part in dotted.split("."))


def _numpy_names(tree: ast.AST) -> tuple[list[str], dict[str, str]]:
    """(imported numpy names, local name -> the numpy name it is bound to)."""
    imported, bound = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    imported.append(alias.name)
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["numpy"] = "numpy"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "numpy":
            for alias in node.names:
                imported.append(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return imported, bound


def _attribute_chains(tree: ast.AST, bound: dict[str, str]) -> list[str]:
    """Every attribute chain rooted at a numpy-bound name, as a dotted numpy name."""
    chains = []
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in bound:
            chains.append(".".join([bound[node.id], *reversed(parts)]))
    return chains


def test_package_uses_no_private_numpy_api():
    """Private numpy modules such as numpy.linalg._umath_linalg change without
    notice between releases; neither an import nor an attribute chain may
    reach one."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    private = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported, bound = _numpy_names(tree)
        private += [(path.name, name) for name in imported + _attribute_chains(tree, bound)
                    if _private(name)]
    assert private == []


def test_private_numpy_guard_catches_imports_and_chains():
    snippets = {
        "import numpy.linalg._umath_linalg": True,
        "import numpy._core as c": True,
        "from numpy.linalg import _umath_linalg": True,
        "from numpy.linalg._umath_linalg import solve": True,
        "import numpy as np\nnp.linalg._umath_linalg.solve(a, b)": True,
        "import numpy\nnumpy._core.multiarray": True,
        "from numpy import linalg as la\nla._umath_linalg": True,
        "import numpy as np\nnp.linalg.solve(a, b)\nnp.__version__": False,
        "import numpy as np\nx._private\nnp.linalg.eigh": False,
    }
    for source, want in snippets.items():
        tree = ast.parse(source)
        imported, bound = _numpy_names(tree)
        got = any(_private(n) for n in imported + _attribute_chains(tree, bound))
        assert got == want, source


def _unused_imports(tree: ast.AST) -> list[str]:
    """Names a module imports and never reads, nor lists in `__all__`."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return [name for name in imported if name not in used]


def test_unused_import_guard_reads_uses_and_exports():
    snippets = {
        "from __future__ import annotations\nimport numpy as np\nnp.zeros(1)": [],
        "import os.path\nos.sep": [],
        "from .model import a, b\n__all__ = ['b']\na()": [],
        "import json\nfrom .model import a as b, c\nc": ["json", "b"],
    }
    for source, want in snippets.items():
        assert _unused_imports(ast.parse(source)) == want, source


def test_package_modules_import_no_unused_name(monkeypatch):
    """A name a module imports and never uses is dead code, unless the
    benchmark's traced run (benchmarks/workloads.py TRACE_TARGETS) looks it
    up on that module; those are the only unused imports allowed."""
    monkeypatch.syspath_prepend(str(SRC.parents[1] / "benchmarks"))
    traced = {(t.module, t.attr)
              for t in importlib.import_module("workloads").TRACE_TARGETS}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        module = "invexreg" if path.stem == "__init__" else f"invexreg.{path.stem}"
        tree = ast.parse(path.read_text(), filename=str(path))
        unused += [(module, name) for name in _unused_imports(tree)
                   if (module, name) not in traced]
    assert unused == []
