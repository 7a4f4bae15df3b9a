import ast
import functools
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "adsgeo").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
MODULES = {path.stem for path in SOURCES} - {"__init__"}

# public functions kept on purpose even when nothing in src/ or perfbench/ reads them
UNREFERENCED_ALLOWED = {
    # identities of the linearized chain and the sharp connection that wait
    # for their report rows
    "rigidity.variation_formula_residual": "first variation of I#, a future row",
    "mess_metrics.sharp_metric_derivative_residual": "D# compatibility, a future row",
    # reference implementations that tests compare the batched paths against
    "embedding.christoffels": "Christoffel symbols of any metric field",
    "constructions.riemann_constant_curvature_residual":
        "curvature of any metric, the reference of extension_curvature",
    "constructions.extension_metric":
        "the extension metric itself, the reference of extension_curvature",
}

# names that perfbench traces or counts by string and the package no longer
# defines: their metrics read 0 until perfbench's next revision (ROADMAP item 10)
PERFBENCH_DEAD_NAMES = {
    "fd.d1", "fd.d2", "constructions.ExtensionMetric.__call__",
    "embedding.brioschi_curvature", "embedding.codazzi_residual_fields",
    "rigidity.rigidity_operator", "fuchsian.hyp_dist_small",
}
# the perfbench constants that list adsgeo names: a collection literal, or
# a call on one, whose entries (or a dict's keys) are "module.attr" names
PERFBENCH_NAME_LISTS = {"tracer.py": ("COUNTED", "SKIPPED"),
                        "run.py": ("INCLUSIVE", "SELF", "CALLS")}

# dataclasses whose fields are read by name, through dataclasses.fields
FIELDS_READ_BY_NAME = {"cli.RunConfig"}

# parameters kept on purpose although their function never reads them
UNREAD_PARAMETERS_ALLOWED = {
    ("rigidity.b_field_from_mu", "immersion"):
        "perfbench passes mu and cfg positionally until its next revision (ROADMAP item 10)",
}


def unread_imports(source: str) -> list:
    """Names an import binds in ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_unread_import_detected():
    source = ("from .embedding import codazzi_norm, inv\n"
              "import numpy as np\n"
              "x = np.eye(2) @ inv(y)\n")
    assert unread_imports(source) == [(1, "codazzi_norm")]


def is_dataclass_def(node) -> bool:
    """Whether the class definition ``node`` has a ``dataclass`` decorator,
    bare or called, by name or as an attribute."""
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(dec, "id", None) == "dataclass" or getattr(dec, "attr", None) == "dataclass":
            return True
    return False


def public_defs(tree):
    """(name, node) of each public function of a module, and of each public
    method and, in a dataclass, each public field of its public classes,
    named "Class.method" and "Class.field"."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            fields = is_dataclass_def(node)
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub
                elif (fields and isinstance(sub, ast.AnnAssign)
                      and isinstance(sub.target, ast.Name) and not sub.target.id.startswith("_")):
                    yield f"{node.name}.{sub.target.id}", sub


def unreferenced(modules: dict, others=()) -> list:
    """The public functions, methods and dataclass fields of the package
    ``modules`` (module name -> source) that no code in them or in
    ``others`` (sources) reads outside their own definition, as
    "module.name".

    A function is read by its name in its own module, by an import from its
    module, or as an attribute of a name bound to its module by
    ``from adsgeo import module``; a method or a field by any attribute of
    its name.
    """
    parsed = [(name, ast.parse(source)) for name, source in modules.items()]
    parsed += [(None, ast.parse(source)) for source in others]
    readers = {}                # (module, name) or (".", attribute) -> reading defs
    for module, tree in parsed:
        aliases = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module in (None, "adsgeo")
                   for alias in node.names}
        owner = {id(sub): name for name, node in public_defs(tree) for sub in ast.walk(node)}
        for node in ast.walk(tree):
            where = owner.get(id(node)) if module else None
            if isinstance(node, ast.ImportFrom) and node.module not in (None, "adsgeo"):
                keys = [(node.module.rsplit(".", 1)[-1], alias.name) for alias in node.names]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and module:
                keys = [(module, node.id)]
            elif isinstance(node, ast.Attribute):
                keys = [(".", node.attr)]
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    keys.append((aliases[node.value.id], node.attr))
            else:
                continue
            for key in keys:
                readers.setdefault(key, set()).add(where)
    unread = []
    for module, tree in parsed:
        for name, _ in public_defs(tree) if module else ():
            cls, _, attr = name.rpartition(".")
            if not readers.get(("." if cls else module, attr), set()) - {name}:
                unread.append(f"{module}.{name}")
    return unread


def test_every_public_function_is_read():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    others = [path.read_text(encoding="utf-8") for path in PERFBENCH]
    defined = {f"{module}.{name}": node for module, source in modules.items()
               for name, node in public_defs(ast.parse(source))}
    assert set(UNREFERENCED_ALLOWED) <= set(defined)
    # an allowed name that something does read is stale and must go
    unread = {name for name in unreferenced(modules, others)
              if not (isinstance(defined[name], ast.AnnAssign)
                      and name.rpartition(".")[0] in FIELDS_READ_BY_NAME)}
    assert sorted(unread ^ set(UNREFERENCED_ALLOWED)) == []


def test_unread_function_detected():
    modules = {
        "geo": ("def used():\n    return 1\n\n\n"
                "def only_itself():\n    return only_itself()\n\n\n"
                "def by_alias():\n    return 2\n"),
        "io": ("from .geo import used\n\n\n"
               "class Thing:\n    size: int\n\n"
               "    def read(self):\n        return used() + self.read() + self.x\n\n\n"
               "@dataclass(frozen=True)\nclass Point:\n    x: float\n    y: float\n"),
    }
    others = ["from adsgeo import geo as g\ng.by_alias()\n"]
    assert unreferenced(modules, others) == ["geo.only_itself", "io.Thing.read", "io.Point.y"]
    assert unreferenced(modules) == ["geo.only_itself", "geo.by_alias", "io.Thing.read",
                                     "io.Point.y"]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def parameter_names(function) -> list:
    args = function.args
    named = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    return [arg.arg for arg in named if arg]


def reads(function, name: str) -> bool:
    """Whether the body of ``function`` loads ``name``, in nested functions
    too unless they take a parameter of that name."""
    todo = list(function.body) if isinstance(function.body, list) else [function.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
            return True
        if isinstance(node, FUNCTIONS) and name in parameter_names(node):
            # its defaults and decorators still run in the enclosing scope
            todo += node.args.defaults + [d for d in node.args.kw_defaults if d]
            todo += getattr(node, "decorator_list", [])
        else:
            todo += ast.iter_child_nodes(node)
    return False


def unread_parameters(modules: dict) -> list:
    """(function, parameter) of each parameter that its function never
    reads, over every function, method and lambda of ``modules`` (module
    name -> source), nested ones included, named "module.Class.outer.inner"
    with "<lambda>" for a lambda."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.ClassDef,) + FUNCTIONS):
                name = f"{prefix}.{getattr(child, 'name', '<lambda>')}"
            if isinstance(child, FUNCTIONS):
                found.extend((name, p) for p in parameter_names(child) if not reads(child, p))
            visit(child, name)

    for module, source in modules.items():
        visit(ast.parse(source), module)
    return found


def test_every_parameter_is_read():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    # an allowed parameter that its function does read is stale and must go
    assert sorted(set(unread_parameters(modules)) ^ set(UNREAD_PARAMETERS_ALLOWED)) == []


def test_unread_parameter_detected():
    modules = {"geo": ("def used(a, /, b=1, *rest, key, **extra):\n"
                       "    return a + b + len(rest) + key + len(extra)\n\n\n"
                       "def outer(x, y, z):\n"
                       "    def inner(y, z=z):\n"
                       "        return y + z\n\n"
                       "    scale = lambda v, unit: v * x\n"
                       "    return inner(scale(1, 0))\n\n\n"
                       "class Thing:\n"
                       "    def size(self, units):\n"
                       "        return self.n\n")}
    assert unread_parameters(modules) == [("geo.outer", "y"), ("geo.outer.<lambda>", "unit"),
                                          ("geo.Thing.size", "units")]


def unresolved_names(text: str) -> list:
    """Each ``module.attr`` in ``text`` that does not resolve: a backticked
    name, or the head of a backticked call ``module.attr(...)``, whose module
    is an adsgeo module.  The others are left alone."""
    missing = []
    for module, attr in re.findall(r"`(\w+)\.([\w.]+)[`(]", text):
        if module not in MODULES:
            continue
        try:
            functools.reduce(getattr, attr.split("."),
                             importlib.import_module(f"adsgeo.{module}"))
        except AttributeError:
            missing.append(f"{module}.{attr}")
    return missing


def test_readme_names_resolve():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert re.search(r"`fd\.\w+`", text)       # the README does name package code
    assert unresolved_names(text) == []


def test_unresolved_name_detected():
    text = ("`fd.stencil` and `fd.gone(u)`, `cli.RunConfig.diff`, "
            "`cli.RunConfig.nothing`, `np.gone` and fd.also_gone unquoted")
    assert unresolved_names(text) == ["fd.gone", "cli.RunConfig.nothing"]


def doc_text(source: str) -> str:
    """The docstrings and comments of ``source``, one per line; the other
    string literals, such as the text a test feeds a checker, are left out."""
    docs = [ast.get_docstring(node, clean=False) for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))]
    comments = [token.string for token in tokenize.generate_tokens(io.StringIO(source).readline)
                if token.type == tokenize.COMMENT]
    return "\n".join([doc for doc in docs if doc] + comments)


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_docstring_names_resolve(path):
    assert unresolved_names(doc_text(path.read_text(encoding="utf-8"))) == []


def test_stale_docstring_name_detected():
    source = ('"""Module text names ``fd.gone``."""\n'
              'def f():\n'
              '    """Calls ``fd.stencil(u, s)``."""\n'
              '    # reads `fd.lost`\n'
              '    return "`fd.fixture` text"\n')
    assert unresolved_names(doc_text(source)) == ["fd.gone", "fd.lost"]


def perfbench_names() -> set:
    """Every adsgeo name in PERFBENCH_NAME_LISTS, read from the sources."""
    names = set()
    for file, constants in PERFBENCH_NAME_LISTS.items():
        found = set()
        for node in ast.parse((ROOT / "perfbench" / file).read_text(encoding="utf-8")).body:
            target = getattr(node, "targets", [None])[0]
            if getattr(target, "id", None) in constants:
                found.add(target.id)
                value = node.value.args[0] if isinstance(node.value, ast.Call) else node.value
                names |= set(ast.literal_eval(value))
        assert found == set(constants), file
    return names


def resolves(name: str) -> bool:
    """Whether ``module.attr`` or ``module.Class.attr`` is defined where the
    tracer looks for it: in the adsgeo module, then in the class's own dict
    (an attribute a class only inherits, such as ``__call__``, is not)."""
    module, *path = name.split(".")
    obj = importlib.import_module(f"adsgeo.{module}")
    for attr in path:
        if attr not in vars(obj):
            return False
        obj = vars(obj)[attr]
    return True


def test_perfbench_names_resolve():
    # a dead name that resolves again, or that perfbench stops naming, is stale
    names = perfbench_names()
    assert sorted(name for name in names if not resolves(name)) == sorted(PERFBENCH_DEAD_NAMES)


def test_unresolved_perfbench_name_detected():
    assert resolves("fuchsian.hyp_dist") and resolves("fuchsian.Genus2Mesh.area_elementwise")
    assert not resolves("fuchsian.Genus2Mesh.__call__")
    assert not resolves("fuchsian.gone") and not resolves("fd.FDScheme.gone")
