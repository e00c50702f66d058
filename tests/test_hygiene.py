"""Source hygiene: no module of the package or of the tests imports a name
it never uses. No module of the package imports a module outside the
standard library, ``numpy`` and the package; no module-level name it or
``tests/reference.py`` defines goes unread in ``src``, ``tests`` and
``perfbench``; no public function or class it defines
goes unread by the rest of the program, and no public method or property
unread as an attribute in ``src``, unless it is listed with a reason; no
parameter default it declares is one that no call there overrides; and
every file it or a test opens names its encoding.

``__init__`` is exempt from the unused-import check: its imports are the
package's public re-exports.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = sorted((ROOT / "src" / "heisensim").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]
TESTS = sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.AST) -> set[str]:
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations hold names too
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for a in annotations:
        if isinstance(a, ast.Constant) and isinstance(a.value, str):
            names |= used_names(ast.parse(a.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", [*SOURCES, *TESTS], ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = imported_names(tree) - used_names(tree)
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"


def imported_modules(tree: ast.AST) -> set[str]:
    """Top-level names of the modules a tree imports; ``.`` for a relative import."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." if node.level else node.module.split(".")[0])
    return modules


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.stem)
def test_imports_only_the_stdlib_numpy_and_the_package(path):
    # a test helper on sys.path would import fine under pytest and fail for a user
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = imported_modules(tree) - sys.stdlib_module_names - {"numpy", "heisensim", "."}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def defined_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def read_names(tree: ast.AST) -> set[str]:
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            # perfbench resolves traced functions by dotted name
            names.update(part for part in n.value.split(".") if part.isidentifier())
    return names


@pytest.fixture(scope="module")
def trees() -> list[ast.Module]:
    files = [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    return [ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in files]


@pytest.fixture(scope="module")
def names_read(trees) -> set[str]:
    return set().union(*(read_names(tree) for tree in trees))


@pytest.mark.parametrize("path", [*SOURCES, ROOT / "tests" / "reference.py"],
                         ids=lambda p: p.stem)
def test_no_unread_definitions(path, names_read):
    unread = defined_names(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) - names_read
    assert not unread, f"{path.name} defines {sorted(unread)} but nothing reads them"


#: public functions and classes that nothing in ``src`` outside their own
#: module and ``__init__``, nor ``perfbench``, reads, and public methods and
#: properties that nothing in ``src`` reads as an attribute: kept on purpose
PUBLIC_UNREAD = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "cli.build_parser": "tests compare the shared parser with a fresh one",
    "config.parse_config": "tests parse config text without a file",
    "eprb.singlet_entangler": "builds EPRB.entangler; tests check its action",
    "ghzm.ghz_entangler": "builds GHZM.entangler; tests check its action",
    "labels.SupportSet": "returned by support",
    "measure.InteractionSequence.total_unitary": "perfbench traces it; ROADMAP item 2 moves it",
    "measure.shift_operator": "names one entry of the shift table that measurement_block "
                              "reads; tests build reference blocks from it",
    "measure.spin_projector": "Experiment.sequence builds the same matrices as one stack; "
                              "tests build reference blocks from it",
}


def public_definitions(tree: ast.Module) -> set[str]:
    return {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
            and not n.name.startswith("_")}


@pytest.fixture(scope="module")
def program_reads() -> dict[str, set[str]]:
    """Names read by each module of the package but ``__init__``, by module
    name, and by ``perfbench`` as a whole."""
    reads = {p.stem: read_names(ast.parse(p.read_text(encoding="utf-8"))) for p in SOURCES}
    reads["perfbench"] = set().union(*(read_names(ast.parse(p.read_text(encoding="utf-8")))
                                       for p in (ROOT / "perfbench").rglob("*.py")))
    return reads


def unread_public(path: Path, program_reads) -> set[str]:
    others = set().union(*(names for module, names in program_reads.items()
                           if module != path.stem))
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {f"{path.stem}.{name}" for name in public_definitions(tree) - others}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_public_definitions_are_read_by_the_program(path, program_reads):
    unread = unread_public(path, program_reads) - PUBLIC_UNREAD.keys()
    assert not unread, (f"only tests read {sorted(unread)}: make them private, delete them "
                        "or list them in PUBLIC_UNREAD with a reason")


def attributes_read(tree: ast.AST) -> set[str]:
    """Every attribute name a tree reads, but off a module its ``import``
    statements bind: ``np.dot`` reads no method named ``dot``. A class bound
    by ``from ... import`` still counts, as in ``StateVector.basis``."""
    modules = {a.asname or a.name.split(".")[0]
               for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and not (isinstance(n.value, ast.Name) and n.value.id in modules)}


@pytest.fixture(scope="module")
def src_attributes() -> set[str]:
    """Every attribute name that the package reads."""
    return set().union(*(attributes_read(ast.parse(p.read_text(encoding="utf-8")))
                         for p in PACKAGE))


def unread_methods(path: Path, src_attributes) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {f"{path.stem}.{c.name}.{f.name}" for c in tree.body if isinstance(c, ast.ClassDef)
            for f in c.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not f.name.startswith("_") and f.name not in src_attributes}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_public_methods_are_read_by_the_program(path, src_attributes):
    unread = unread_methods(path, src_attributes) - PUBLIC_UNREAD.keys()
    assert not unread, (f"nothing in src reads {sorted(unread)}: make them private, delete "
                        "them or list them in PUBLIC_UNREAD with a reason")


def test_public_unread_list_is_current(program_reads, src_attributes):
    unread = set().union(*(unread_public(path, program_reads) | unread_methods(path, src_attributes)
                           for path in SOURCES))
    stale = sorted(PUBLIC_UNREAD.keys() - unread)
    assert not stale, f"PUBLIC_UNREAD lists {stale}, which the program reads or no longer defines"


def defaulted_parameters(node: ast.AST, cls: str | None = None):
    """``(callee name, parameter, positional index or None)`` of every
    parameter with a default; a method's index does not count ``self`` or
    ``cls``, and ``__init__`` is called by its class's name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from defaulted_parameters(child, child.name)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = child.args
            bound = cls is not None and not any(
                getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
            positional = (a.posonlyargs + a.args)[int(bound):]
            name = cls if bound and child.name == "__init__" else child.name
            first_defaulted = len(positional) - len(a.defaults)
            for k, arg in enumerate(positional[first_defaulted:], first_defaulted):
                yield name, arg.arg, k
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None
            yield from defaulted_parameters(child)


def overrides(call: ast.Call, parameter: str, index: int | None) -> bool:
    """Whether a call passes the parameter: by keyword, by position, or
    possibly through ``*args`` or ``**kwargs``."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


@pytest.fixture(scope="module")
def calls_by_name(trees) -> dict[str, list[ast.Call]]:
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                name = n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
                calls.setdefault(name, []).append(n)
    return calls


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_default_that_no_call_overrides(path, calls_by_name):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = [f"{name}({parameter})" for name, parameter, index in defaulted_parameters(tree)
              if not any(overrides(c, parameter, index) for c in calls_by_name.get(name, ()))]
    assert not unused, f"{path.name}: no call overrides the default of {unused}"


def unencoded_file_calls(tree: ast.AST) -> list[int]:
    """Line numbers of ``open``, ``read_text`` and ``write_text`` calls that
    leave the encoding to the locale."""
    lines = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Call):
            name = n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
            if name in ("open", "read_text", "write_text") and not any(
                    k.arg == "encoding" for k in n.keywords):
                lines.append(n.lineno)
    return lines


@pytest.mark.parametrize("path", [*PACKAGE, *TESTS], ids=lambda p: p.stem)
def test_file_io_names_its_encoding(path):
    lines = unencoded_file_calls(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert not lines, f"{path.name} reads or writes a file in the locale's encoding at {lines}"
