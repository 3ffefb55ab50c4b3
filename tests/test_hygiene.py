"""Source hygiene: every name a module imports is used in that module,
every public name reaches a verdict, no module reaches into another
object's private attributes, and each numerical idiom (the tensor grid,
the finite-difference stencil, the kernel field, the support-box pruning,
the certification sweep) is called from one place only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nilharmonics"


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom math import pi, tau\n"
                          "print(pi)\n") == [(1, "os"), (2, "tau")]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def private_attributes(source):
    """(line, expression) of each x._name where x is not self or cls;
    dunder names are not private."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.endswith("__")
                and not (isinstance(node.value, ast.Name)
                         and node.value.id in ("self", "cls"))):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_private_attributes_are_found():
    source = ("class A:\n"
              "    def f(self, x):\n"
              "        x._tag = type(x).__name__\n"
              "        return self._a + x._b + cls._c\n")
    assert private_attributes(source) == [(3, "x._tag"), (4, "x._b")]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_private_attribute_access(module):
    assert private_attributes((SRC / module).read_text(encoding="utf-8")) \
        == []


def calls_of(source, name):
    """(line, innermost enclosing function or None) of each call of
    `name`, written either `name(...)` or `module.name(...)`."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                called = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                if called == name:
                    found.append((child.lineno, scope))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(ast.parse(source), None)
    return sorted(found, key=lambda item: item[0])


def test_calls_are_found():
    source = ("import numpy as np\n"
              "def tensor_grid(axes):\n"
              "    return np.meshgrid(*axes)\n"
              "def other(g):\n"
              "    return meshgrid(1) + g.meshgrid\n"
              "np.meshgrid(3)\n")
    assert calls_of(source, "meshgrid") == [
        (3, "tensor_grid"), (5, "other"), (6, None)]


def callers(name):
    """{(module, enclosing function)} over the modules of src/."""
    return {(path.name, scope) for path in SRC.glob("*.py")
            for _, scope in calls_of(path.read_text(encoding="utf-8"),
                                     name)}


def test_meshgrid_only_in_tensor_grid():
    assert callers("meshgrid") == {("group_core.py", "tensor_grid")}


def test_central_difference_only_in_calculus():
    assert {module for module, _ in callers("central_difference")} \
        == {"calculus.py"}


def test_distributions_has_no_group_law_loop():
    # the extensions reach the group law only through quadrature.convolve
    assert {caller for caller in callers("multiply")
            if caller[0] == "distributions.py"} == set()


def test_zero_pairs_are_pruned_in_the_pair_loop_only():
    # convolve's sub-boxes of the density's support are the one place
    # that cuts a grid by coordinate
    assert {module for module, _ in callers("searchsorted")} \
        == {"quadrature.py"}


def test_kernel_certificate_builds_one_pair_of_sweeps():
    # every estimate of the table is measured on the same two sweeps
    source = (SRC / "kernels.py").read_text(encoding="utf-8")
    assert [scope for _, scope in calls_of(source, "_sweep_points")] \
        == ["certify_RGamma"]


def test_certified_words_come_from_words_upto_weight():
    # kernels.py and distributions.py take the words of weight <= 2 from
    # calculus.words_upto_weight, not from a filtered multi_indices_upto
    assert {module for module, _ in callers("multi_indices_upto")} \
        == {"calculus.py"}


def test_kernels_build_one_field():
    # both kernel families are one formula over the gauge polynomial
    source = (SRC / "kernels.py").read_text(encoding="utf-8")
    assert [scope for _, scope in calls_of(source, "SmoothField")] \
        == ["__init__"]


def test_profiles_are_lambdified_in_one_place():
    # Profile.deriv_fn evaluates piecewise profiles branch by branch, so no
    # discarded branch has warnings to hide
    assert callers("lambdify") == {("polynomials.py", "deriv_fn")}
    assert callers("errstate") == set()


ROOT = SRC.parent.parent


def public_definitions(source):
    """(line, name) of each public name a module defines: its top-level
    functions, classes and assignments, and the methods, properties and
    fields of its public top-level classes."""
    found = []

    def collect(body, into_classes):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                found.append((node.lineno, node.name))
                if into_classes and isinstance(node, ast.ClassDef) \
                        and not node.name.startswith("_"):
                    collect(node.body, False)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                found.extend((node.lineno, t.id) for t in targets
                             if isinstance(t, ast.Name))

    collect(ast.parse(source).body, True)
    return sorted((line, name) for line, name in found
                  if not name.startswith("_"))


def names_used(source):
    """Every identifier a module reads: names and attribute names."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_public_definitions_are_found():
    source = ("X = 1\n"
              "_y = 2\n"
              "def f():\n"
              "    inner = 3\n"
              "class A:\n"
              "    n: int\n"
              "    def m(self):\n"
              "        pass\n"
              "    def _p(self):\n"
              "        pass\n"
              "class _B:\n"
              "    def m2(self):\n"
              "        pass\n")
    assert public_definitions(source) == [
        (1, "X"), (3, "f"), (5, "A"), (6, "n"), (7, "m")]
    assert names_used("a.b(c)\nd = 1\n") == {"a", "b", "c", "d"}


# public names that nothing in src/, no acceptance criterion and no
# benchmark workload reads, each kept for the reason given
UNREACHED_ALLOWED = {
    "distributions.flat_top_profile":
        "the test function equal to 1 on the unit ball that the witness "
        "of claim (A), necessity direction, is built on",
    "distributions.sconvolvability_witness":
        "the measured witnesses (a) and (b) of S'-convolvability, the base "
        "of the 'not convolvable' verdict of claim (A)",
    "distributions.certify":
        "TestFunction.certify, the decay-class certificate of a test "
        "function that the claim (A) verdicts pair against",
    "distributions.pair":
        "<T, phi> through the normal form: the weighted pairing that the "
        "necessity threshold of claim (A) measures",
    "quadrature.approximate_identity":
        "the numerical dilate a^{-Q} h(delta_{1/a} .) that tests compare "
        "the exact dilated_field against",
    "group_core.to_json":
        "the serial form of a group that GroupSpec.from_json and the CLI's "
        "--spec file read",
    "weak_l1.to_json":
        "the serial form of an atomic measure that the CLI's --measure "
        "file reads",
    "weak_l1.moment":
        "the (1 + |xi|)^{-(Q+Gamma)} moment that admits a measure to the "
        "weak-L1 estimates of claim (D)",
    "io.parse_table":
        "reads back the CSV and JSON tables the CLI writes",
}


def test_every_public_name_reaches_a_verdict():
    # a public name is read somewhere in src/ (a method may be read by its
    # own module), by the acceptance suite or by perfbench/; the rest are
    # the pinned allowlist
    modules = sorted(SRC.glob("*.py"))
    readers = [*modules, ROOT / "tests" / "test_acceptance.py",
               *sorted((ROOT / "perfbench").glob("*.py"))]
    read = set().union(*(names_used(path.read_text(encoding="utf-8"))
                         for path in readers))
    unreached = {f"{path.stem}.{name}" for path in modules
                 for _, name in public_definitions(
                     path.read_text(encoding="utf-8"))
                 if name not in read}
    assert unreached == set(UNREACHED_ALLOWED)
