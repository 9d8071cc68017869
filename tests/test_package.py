import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import wsteenrod

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import child  # noqa: E402
from tracer import WRAPPED  # noqa: E402


# the public surface, by module; an export is added or removed here on purpose
EXPORTS = {
    # charts
    "ExtChart", "compare_charts", "koszul_chart", "polynomial_chart", "w_class_degree",
    # classical
    "ClassicalElement", "classical_product", "milnor_product", "to_classical",
    # gf2
    "BitMatrix", "BitVector", "Subspace", "kernel", "rank", "rref", "solve",
    # milnor
    "BiDegree", "DualElement", "DualMonomial", "MilnorAlgebra", "SteenrodElement",
    "WindowError", "algebra", "bidegree_basis",
    # modules
    "AlgebraModule", "GradedModule", "InvariantViolation", "QuotientModule",
    "TrivialModule", "margolis", "tensor_power",
    # resolution
    "FreeModule", "ModuleMap", "PartialResultError", "Resolution", "minimal_resolution",
    # towers
    "KwComplex", "WbpComplex", "k_invariant_check", "kw_chow_check", "kw_homology",
    "smash_chow_check", "vi_basis", "wbp_complex_check", "wbp_differential_check",
    # verify
    "VerificationReport",
}


def test_exports_are_known():
    assert set(wsteenrod.__all__) == EXPORTS


def test_all_exports_resolve_sorted_unique():
    names = wsteenrod.__all__
    missing = [name for name in names if not hasattr(wsteenrod, name)]
    assert missing == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_star_import_binds_the_submodule_objects():
    namespace: dict = {}
    exec("from wsteenrod import *", namespace)
    for name in wsteenrod.__all__:
        source = importlib.import_module(f"wsteenrod.{wsteenrod._SOURCES[name]}")
        assert namespace[name] is getattr(source, name), name


def test_lazy_exports_are_not_cached_in_the_package():
    # an export read during a traced run must not leave the tracer's wrapper
    # behind, so each access reads the submodule afresh
    assert wsteenrod.minimal_resolution is wsteenrod.resolution.minimal_resolution
    assert not set(wsteenrod.__all__) & set(vars(wsteenrod))


def test_dir_lists_exports_and_unknown_names_raise():
    assert set(wsteenrod.__all__) <= set(dir(wsteenrod))
    assert "__version__" in dir(wsteenrod)
    with pytest.raises(AttributeError, match="no_such_name"):
        wsteenrod.no_such_name


def _modules_after(code: str) -> list[str]:
    """sys.modules after running ``code`` in a fresh interpreter without site,
    so that every module listed was loaded by the library or by ``code``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = code + "\nimport sys, json\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_bare_import_loads_no_submodule():
    loaded = _modules_after("import wsteenrod")
    assert [m for m in loaded if m.startswith("wsteenrod")] == ["wsteenrod"]


def test_resolve_run_imports_only_what_it_executes(tmp_path):
    out = tmp_path / "wbp.json"
    loaded = set(_modules_after(
        "from wsteenrod import cli\n"
        "cli.main(['resolve', '--module', 'wbp', '--max-stem', '8', '--max-filt', '4',"
        f" '--out', {str(out)!r}])"
    ))
    assert out.exists()
    unused = {"dataclasses", "inspect"} | {
        f"wsteenrod.{m}" for m in ("towers", "classical", "svg", "grammar")
    }
    assert not loaded & unused
    # the benchmark's tracer wraps these, and finds them in sys.modules
    assert {f"wsteenrod.{module}" for module, _, _ in WRAPPED} <= loaded


def test_every_lru_cache_is_known_to_the_cold_run_guard():
    # the benchmark's samples are cold only if every module-level cache is
    # checked empty before the run starts; a cache it does not know of
    # could be warmed unnoticed
    caches = set()
    for info in pkgutil.iter_modules(wsteenrod.__path__):
        module = importlib.import_module(f"wsteenrod.{info.name}")
        for name, value in vars(module).items():
            owners = [(name, value)]
            if isinstance(value, type):
                owners += [(f"{name}.{k}", v) for k, v in vars(value).items()]
            for qualname, fn in owners:
                if hasattr(fn, "cache_info") and fn.__module__ == module.__name__:
                    caches.add((module.__name__, qualname))
    assert caches
    assert caches <= {("wsteenrod.milnor", name) for name in child.COLD_CACHES}


# the module-level dicts, sets and lists of wsteenrod that a resolve and a
# verify run fill; the cold-run guard reads only cache_info(), so each is
# listed here on purpose, and test_verify's _clear_hopf_caches empties it
GROWING_CONTAINERS = {"wsteenrod.milnor._SHARED"}

_GROWTH_SCRIPT = """
import importlib, json, pkgutil
import wsteenrod
from wsteenrod.milnor import MilnorAlgebra
from wsteenrod.modules import TrivialModule
from wsteenrod.resolution import minimal_resolution
from wsteenrod.verify import VerifyConfig, run_suites

modules = [wsteenrod] + [
    importlib.import_module(f"wsteenrod.{info.name}")
    for info in pkgutil.iter_modules(wsteenrod.__path__)
]

def sizes():
    return {
        f"{module.__name__}.{name}": len(value)
        for module in modules
        for name, value in vars(module).items()
        if not name.startswith("__") and isinstance(value, (dict, set, list))
    }

before = sizes()
minimal_resolution(TrivialModule(MilnorAlgebra(14)), 12, 6)
run_suites(["all"], VerifyConfig(12))
after = sizes()
print(json.dumps(sorted(name for name, n in after.items() if n > before.get(name, 0))))
"""


def test_only_known_module_level_containers_grow():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _GROWTH_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout.splitlines()[-1])) == GROWING_CONTAINERS
    # the Hopf tests' cold fixture empties each of them
    from test_verify import _clear_hopf_caches

    from wsteenrod import milnor

    milnor.antipode_monomial(milnor.xi_monomial(2))
    _clear_hopf_caches()
    for qualname in GROWING_CONTAINERS:
        module, name = qualname.rsplit(".", 1)
        assert not getattr(importlib.import_module(module), name), qualname


# every parameter of the library that has a default, as (module, function,
# parameter); a new default is a new knob, so it is added here on purpose
DEFAULTED_PARAMETERS = {
    ("charts", "ExtChart.__init__", "classes"),
    ("charts", "ExtChart.add", "mult"),
    ("charts", "chart_file_dumps", "partial"),
    ("charts", "compare_charts", "max_filt"),
    ("cli", "_bounded_int", "high"),
    ("cli", "main", "argv"),
    ("milnor", "dual_element", "degree"),
    ("milnor", "monomial", "eps"),
    ("milnor", "monomial", "r"),
    ("milnor", "steenrod_element", "degree"),
    ("milnor", "xi_monomial", "e"),
    ("modules", "GradedModule.support", "max_stem"),
    ("resolution", "minimal_resolution", "max_gens_per_bidegree"),
    ("resolution", "minimal_resolution", "progress"),
    ("verify", "VerificationReport.__init__", "verdict"),
    ("verify", "VerificationReport.__init__", "witnesses"),
    ("verify", "VerifyConfig.__init__", "seed"),
    ("verify", "run_suites", "progress"),
}


def _defaulted_parameters(module: str, tree: ast.AST, prefix: str = ""):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _defaulted_parameters(module, node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = prefix + getattr(node, "name", "<lambda>")
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for arg in defaulted:
                yield module, name, arg.arg
            yield from _defaulted_parameters(module, node, f"{name}.")
        else:
            yield from _defaulted_parameters(module, node, prefix)


def test_defaulted_parameters_are_known():
    found = set()
    for path in sorted((ROOT / "src" / "wsteenrod").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= set(_defaulted_parameters(path.stem, tree))
    assert found == DEFAULTED_PARAMETERS


def test_no_bidegree_is_rebuilt_from_its_fields():
    # a bidegree argument is a BiDegree, so no function rebuilds one with
    # BiDegree(*d) to accept a plain (stem, weight) tuple as well
    found = []
    for path in sorted((ROOT / "src" / "wsteenrod").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "BiDegree"
                and any(isinstance(arg, ast.Starred) for arg in node.args)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _unused_imports(path: Path) -> list[str]:
    """The names that a file imports and never reads, as "file:line name".
    __future__ imports and names on a line marked ``# noqa: F401`` are
    skipped."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    where = path.relative_to(ROOT)
    return [f"{where}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # no linter is installed, so this is the check for the library and tests
    paths = [*(ROOT / "src" / "wsteenrod").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    assert [entry for path in sorted(paths) for entry in _unused_imports(path)] == []
