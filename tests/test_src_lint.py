"""Source checks that need no import of the package."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dgcat"


def test_src_has_no_assert_statements():
    """Verification must survive `python -O`, which strips `assert`: every
    check in src/dgcat raises or reports instead."""
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_src_has_no_mutable_default_arguments():
    """A default argument is made once per function, so a `{}`, `[]` or
    set default would carry state from one call to the next (a shared dict
    default on `DGCategory._associativity` would leak between `validate`
    calls).  No default in src/dgcat is a dict, list or set display, a
    comprehension of one, or a call of dict, list or set."""
    mutable = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for d in node.args.defaults + [d for d in node.args.kw_defaults if d is not None]:
                    call = isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id in ("dict", "list", "set")
                    if isinstance(d, mutable) or call:
                        found.append(f"{path.name}:{d.lineno}")
    assert not found, found


ITERATING_CALLS = {"all", "any", "dict", "enumerate", "filter", "iter", "len", "list", "map", "max", "min", "set", "sorted", "sum", "tuple", "zip"}


def _comp_reads_off_subscript(tree, walker="every_table"):
    """Line numbers where a `comp` (an attribute `.comp`, the name `comp`,
    or a name bound from `.comp`) is read other than by subscript: through
    an attribute such as `.get` or `.items`, by iteration, by `in`, or by
    a builtin that iterates.  Reads inside the function `walker` are
    exempt, and so is `Tables.operator`, which reads its table by
    subscript."""
    names = {"comp"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = zip(target.elts, node.value.elts) if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple) else [(target, node.value)]
                names |= {t.id for t, v in pairs if isinstance(t, ast.Name) and isinstance(v, ast.Attribute) and v.attr == "comp"}
    parent, exempt = {}, set()
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parent[child] = node
        if isinstance(node, ast.FunctionDef) and node.name == walker:
            exempt |= set(ast.walk(node))
    found = []
    for node in ast.walk(tree):
        is_comp = isinstance(node, ast.Attribute) and node.attr == "comp" or isinstance(node, ast.Name) and node.id in names
        if not is_comp or not isinstance(node.ctx, ast.Load) or node in exempt:
            continue
        up = parent[node]
        if (
            isinstance(up, ast.Attribute) and up.attr != "operator"
            or isinstance(up, (ast.For, ast.comprehension)) and up.iter is node
            or isinstance(up, (ast.Starred, ast.YieldFrom))
            or isinstance(up, ast.Dict) and None in up.keys and node in up.values
            or isinstance(up, ast.Compare) and node in up.comparators and any(isinstance(op, (ast.In, ast.NotIn)) for op in up.ops)
            or isinstance(up, ast.Call) and node in up.args and isinstance(up.func, ast.Name) and up.func.id in ITERATING_CALLS
        ):
            found.append(node.lineno)
    return sorted(found)


def test_src_reads_comp_only_by_subscript():
    """`DGCategory.comp` builds a missing table in `__missing__`, which only
    a subscript calls: `get`, `items`, iteration and `in` see only the
    tables built so far, so on a category whose tables are built on first
    read they silently see none.  In src/dgcat every read of `comp` is a
    subscript, except in `DGCategory.every_table`, the one reader of all
    the tables."""
    bad = """
def f(cat, key):
    comp, x = cat.comp, 1
    t = cat.comp.get(key, {})
    for k in comp:
        pass
    n = len(cat.comp) + (key in comp)
    return [v for v in cat.comp.values()], comp[key], cat.comp[key], comp.operator(key, 0, 0, 0)
"""
    assert _comp_reads_off_subscript(ast.parse(bad)) == [4, 5, 7, 7, 8]
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _comp_reads_off_subscript(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, found


def _callers(tree, name):
    """The module-level functions and classes of tree whose bodies call the
    name, as a function or as a method, and "<module>" for a call outside
    them."""
    return {
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }


def test_the_cli_has_one_report_path():
    """Each `cmd_*` of the CLI takes `args` alone and returns its report;
    `main` hands it to `emit`, which prints it and gives the exit code.  So
    in src/dgcat only `cli.emit` (the report) and `cli.main` (an input
    error) call `print`, and only `main` calls `emit`."""
    bad = """
def cmd_x(args, started):
    emit({}, args, started)
class C:
    def f(self):
        print(1)
print(2)
"""
    assert _callers(ast.parse(bad), "print") == {"C", "<module>"} and _callers(ast.parse(bad), "emit") == {"cmd_x"}
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    assert {f"{stem}.{f}" for stem, tree in trees.items() for f in _callers(tree, "print")} == {"cli.emit", "cli.main"}
    assert _callers(trees["cli"], "emit") == {"main"}
    commands = [f for f in trees["cli"].body if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")]
    assert len(commands) == 11
    for f in commands:
        a = f.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]]
        assert params == ["args"], (f.name, params)


def test_graded_dimensions_are_read_through_cohomology_dims():
    """Every "which H^n are nonzero" decision reads
    `ChainComplex.cohomology_dims`, the one graded-cohomology query; a loop
    over degrees calling `cohomology_dim` in each is a second copy of it.
    So in src/dgcat only `exactlin`, which defines both, and `pretr.ho_hom`,
    which answers for the one degree its caller names, call
    `cohomology_dim`."""
    bad = """
def ext_table(cat, objs):
    return [{n: h.cohomology_dim(n) for n in h.degrees()} for h in objs]
class C:
    def f(self, h):
        return cohomology_dim(h, 0)
def g(h):
    return h.cohomology_dims()
"""
    assert _callers(ast.parse(bad), "cohomology_dim") == {"ext_table", "C"}
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    found = {f"{stem}.{f}" for stem, tree in trees.items() if stem != "exactlin" for f in _callers(tree, "cohomology_dim")}
    assert found == {"pretr.ho_hom"}, found


def _imported_names(tree):
    """The names that tree's import statements bind or import from a module."""
    return {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


def test_pretr_forms_twist_products_without_contract():
    """`HomSpace._build` forms each twist block from `Tables.operator`, and
    entry products go through `DGCategory.mul`: pretr neither imports nor
    calls `dgcore.contract`, so a twist product has one path."""
    bad = """
from .dgcore import Blocks, contract
def build(fl, table):
    return dgcore.contract(fl, table, 0, {}, 0, {})
"""
    assert "contract" in _imported_names(ast.parse(bad)) and _callers(ast.parse(bad), "contract") == {"build"}
    tree = ast.parse((SRC / "pretr.py").read_text(), filename="pretr.py")
    assert "contract" not in _imported_names(tree)
    assert _callers(tree, "contract") == set()


CATEGORY_KINDS = {"category", "equiv-certificate", "functor", "gen-certificate", "sod-claim", "twisted-complex"}
AXIOM_CHECKS = {"_axioms_failure", "_check_claim_document", "_functor_axioms"}


def _unchecked_category_reads(tree, exempt=("cmd_ring",)):
    """The `cmd_*` functions of tree, other than those exempt, that call
    `_read` with a kind in CATEGORY_KINDS (or a kind that is not a string
    constant) and call no function of AXIOM_CHECKS."""
    found = []
    for f in tree.body:
        if not isinstance(f, ast.FunctionDef) or not f.name.startswith("cmd_") or f.name in exempt:
            continue
        calls = [node for node in ast.walk(f) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
        kinds = [c.args[1].value if isinstance(c.args[1], ast.Constant) else None for c in calls if c.func.id == "_read" and len(c.args) > 1]
        if any(k is None or k in CATEGORY_KINDS for k in kinds) and not {c.func.id for c in calls} & AXIOM_CHECKS:
            found.append(f.name)
    return found


def test_cli_commands_check_the_categories_they_read():
    """A command that computes on a document's category checks its axioms
    first (`tensor` of a category whose identity has degree 1 wrote a
    product of a non-DG category, or ended in a traceback): each `cmd_*`
    that reads a kind of document carrying a category also calls
    `_axioms_failure`, `_check_claim_document` or `_functor_axioms`.
    `cmd_ring` is exempt: the category of its `--claim` document must equal
    structurally the category that the ledger already validated on parse,
    or the relation is refused."""
    bad = """
def cmd_a(args):
    _, cat = _read(args.path, "category")
    return tensor(cat, cat)
def cmd_b(args):
    _, cat = _read(args.path, "twisted-complex")
    if bad := _axioms_failure(cat, []):
        return bad
def cmd_c(args):
    _, ledger = _read(args.path, "ledger")
def cmd_d(args, kind):
    _, payload = _read(args.path, kind)
def helper(args):
    _, cat = _read(args.path, "category")
"""
    assert _unchecked_category_reads(ast.parse(bad)) == ["cmd_a", "cmd_d"]
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    assert _unchecked_category_reads(tree, exempt=()) == ["cmd_ring"]
    assert _unchecked_category_reads(tree) == []


MUTATORS = {"clear", "pop", "popitem", "setdefault", "update", "__setitem__", "__delitem__"}


def _matrix_entry_writes(tree):
    """(kind, scope, line) for each call of `_adopt` ("adopt") and each
    write of an `entries` attribute other than `self.entries` ("write"): an
    assignment or `del` of it or of an item of it, a mutating method call
    on it, or a `setattr` of "entries".  scope is the dotted name of the
    enclosing classes and functions, "<module>" at top level."""
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def scope(node):
        names = []
        while node in parent:
            node = parent[node]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append(node.name)
        return ".".join(reversed(names)) or "<module>"

    def foreign_entries(node):
        return isinstance(node, ast.Attribute) and node.attr == "entries" and not (isinstance(node.value, ast.Name) and node.value.id == "self")

    found = []
    for node in ast.walk(tree):
        kind = None
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == "_adopt":
                kind = "adopt"
            elif name in ("setattr", "__setattr__") and any(isinstance(a, ast.Constant) and a.value == "entries" for a in node.args):
                kind = "write"
            elif isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS and foreign_entries(node.func.value):
                kind = "write"
        elif isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
            if foreign_entries(node) or isinstance(node, ast.Subscript) and foreign_entries(node.value):
                kind = "write"
        if kind:
            found.append((kind, scope(node), node.lineno))
    return sorted(found, key=lambda f: f[2])


def test_only_the_hom_build_adopts_unchecked_matrix_entries():
    """`Matrix._adopt` takes an entries dict without the constructor's
    bounds check and zero test, so the dict must be one its caller has
    checked.  Outside `exactlin`, only `pretr.HomSpace._build`, which
    checks each entry as it writes it, calls `_adopt`, and nothing writes
    a `Matrix`'s `entries` (a class's own `self.entries`, as in
    `TwistedMorphism`, is not one)."""
    bad = """
class HomSpace:
    def _build(self):
        return Matrix._adopt(fl, 1, 1, {})
    def other(self, m):
        m.entries = {}
        m.entries[(0, 0)] = 1
def helper(fl, m):
    setattr(m, "entries", {})
    m.entries.update({})
    del m.entries[(0, 0)]
    m.entries, n = {}, 1
    return exactlin.Matrix._adopt(fl, 0, 0, {})
class T:
    def __init__(self):
        self.entries = {}
        self.entries[0] = 1
        x = m.entries.get(0)
"""
    assert _matrix_entry_writes(ast.parse(bad)) == [
        ("adopt", "HomSpace._build", 4),
        ("write", "HomSpace.other", 6),
        ("write", "HomSpace.other", 7),
        ("write", "helper", 9),
        ("write", "helper", 10),
        ("write", "helper", 11),
        ("write", "helper", 12),
        ("adopt", "helper", 13),
    ]
    found = {
        (kind, f"{path.stem}.{where}")
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "exactlin"
        for kind, where, _ in _matrix_entry_writes(ast.parse(path.read_text(), filename=str(path)))
    }
    assert found == {("adopt", "pretr.HomSpace._build")}, found


def _definitions(tree):
    """(name, line) of each module-level function and class of tree and of
    each method of its classes whose name is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield item.name, item.lineno


def _references(tree):
    """The names tree reads: each name, each attribute, and each part of a
    string constant that is a name or a dotted or colon path (the tracer
    names its targets so, as in "dgcat.exactlin:Matrix" and "rank").
    Prose, such as a docstring, names nothing."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"[A-Za-z_][\w.:]*", node.value):
            names.update(re.split(r"[.:]", node.value))
    return names


def test_every_src_definition_is_referenced():
    """A definition that nothing names is dead code (`ptring.monomial` had
    no caller and no test from the first commit on): every module-level
    function and class and every non-dunder method in src/dgcat is named
    somewhere in src/, tests/ or dgbench/."""
    bad_src = '''
def used():
    pass
def unused():
    pass
class K:
    def __init__(self):
        pass
    def method(self):
        pass
    def traced(self):
        pass
    def idle(self):
        return unused
'''
    bad_refs = '''
"""method, traced and idle in prose name nothing."""
used(K().method)
SPANS = (("k.traced", "mod:K", "traced", None),)
'''
    refs = _references(ast.parse(bad_src)) | _references(ast.parse(bad_refs))
    assert [d for d in _definitions(ast.parse(bad_src)) if d[0] not in refs] == [("idle", 13)]
    root = SRC.parent.parent
    refs = set().union(*(_references(ast.parse(p.read_text(), filename=str(p))) for d in ("src", "tests", "dgbench") for p in sorted((root / d).rglob("*.py"))))
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        for name, line in _definitions(ast.parse(path.read_text(), filename=str(path)))
        if name not in refs
    ]
    assert not found, found


def test_only_the_hom_build_and_rank_adopt_matrix_entries():
    """Across src/dgcat, `exactlin` included, `Matrix._adopt` is called
    only from `pretr.HomSpace._build`, which checks each entry as it
    writes it, and `exactlin.Matrix.rank`, which relabels the columns of a
    matrix whose entries the constructor checked."""
    bad = """
class Matrix:
    def rank(self):
        return Matrix._adopt(self.field, 1, 1, {})
    def solve(self, b):
        return self._adopt(self.field, 1, 1, dict(self.entries))
def _reduced(m):
    return _adopt(m.field, 0, 0, {})
"""
    assert [(kind, where) for kind, where, _ in _matrix_entry_writes(ast.parse(bad)) if kind == "adopt"] == [
        ("adopt", "Matrix.rank"),
        ("adopt", "Matrix.solve"),
        ("adopt", "_reduced"),
    ]
    found = {
        f"{path.stem}.{where}"
        for path in sorted(SRC.glob("*.py"))
        for kind, where, _ in _matrix_entry_writes(ast.parse(path.read_text(), filename=str(path)))
        if kind == "adopt"
    }
    assert found == {"pretr.HomSpace._build", "exactlin.Matrix.rank"}, found
