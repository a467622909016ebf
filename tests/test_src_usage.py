"""`src/jetcalc` holds what the program runs, plus the API the paper names.

Every public top-level function or class of a `src/jetcalc` module, and
every public method of such a class, must be referenced somewhere in `src/`
or `perfbench/` outside its own definition, or be listed below with its
reason.  A helper only the tests call belongs in the tests.  Likewise every
optional parameter of such a function or method must be passed by some call
in `src/` or `perfbench/`, or be listed with its reason.

References are matched by name, not resolved: a method passes when any
attribute or name of the same spelling is used elsewhere (so
`CatalogData.syzygies` passes on the other `syzygies` in `src/`), and an
optional parameter passes when any call of that name writes its position or
keyword.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    "polarized_count": "paper-facing API: the polarized generator counts",
    "h0_minorant_e43": "paper-facing API: the dimension-3 section minorant",
    "format_chern_combo": "paper-facing API: Chern combinations as printed",
    "normal_form": "reference check the acceptance tests compare ideals with",
    "WeightedDeg": "the order tests use it for weight rows beyond 0 and +-1",
    "verify_vanishing": "reference check: relations vanish on their defining polynomials",
    "error": "argparse calls it: cli._Parser exits with the usage code on a bad command line",
}


def _references(tree):
    """Identifiers a tree uses, counted: names, attributes, imported names
    and the dotted parts of string constants (the benchmark wraps spans by
    name)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def _definitions(module):
    """The top-level functions and classes, and the methods of each class."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, ast.FunctionDef))


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = sorted((ROOT / "src" / "jetcalc").glob("*.py"))
    everywhere = Counter()
    for path in modules + sorted((ROOT / "perfbench").glob("*.py")):
        everywhere += _references(ast.parse(path.read_text()))
    defined, unused = set(), []
    for path in modules:
        for node in _definitions(ast.parse(path.read_text())):
            defined.add(node.name)
            if not node.name.startswith("_") and node.name not in ALLOWED and \
                    everywhere[node.name] == _references(node)[node.name]:
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []
    assert set(ALLOWED) <= defined, "allowlisted names must exist"


# optional parameters no call in `src/` or `perfbench/` passes, by callable
# and parameter (a constructor is called by its class's name)
OPTIONAL_ALLOWED = {
    "Polynomial.terms": "the tests' checked constructor; src/ passes clean _raw",
    "faa_di_bruno.normalized": "the tests compare the phi' = 1 matrix with the full one",
    "h0_minorant_e43.families": "paper-facing API: the minorant of any family list",
    "invariant_space_dimension.bi": "the bi-invariant dimension oracle of the tests",
    "subalgebra_membership.budget": "the tests bound a one-off membership call by steps or time",
}


def _optional_parameters(module):
    """(callable, parameter, position) of each public optional parameter of
    a public top-level function or method; the position counts the
    arguments a call writes (None for keyword-only), and a constructor is
    called by its class's name."""
    def optional(name, args, skip):
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for k, a in enumerate(positional[first:], start=first):
            yield name, a.arg, k - skip
        for a, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, a.arg, None

    found = []
    for node in module.body:
        if isinstance(node, ast.FunctionDef):
            found += optional(node.name, node.args, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    name = node.name if item.name == "__init__" else item.name
                    found += optional(name, item.args, 0 if static else 1)
    return [f for f in found if not f[0].startswith("_") and not f[1].startswith("_")]


def _passed(tree):
    """Per called name, what its calls write: positions, keywords, and "*" or
    "**" for an unpacked sequence or mapping."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            seen = out.setdefault(name, set())
            seen.update(range(len(node.args)))
            seen.update("*" for a in node.args if isinstance(a, ast.Starred))
            seen.update(kw.arg or "**" for kw in node.keywords)
    return out


def test_every_optional_parameter_is_passed_outside_the_tests():
    """An optional parameter that no program call passes is a second path
    only the tests run.  Calls are matched by name, as above."""
    modules = sorted((ROOT / "src" / "jetcalc").glob("*.py"))
    passed = {}
    for path in modules + sorted((ROOT / "perfbench").glob("*.py")):
        for name, seen in _passed(ast.parse(path.read_text())).items():
            passed.setdefault(name, set()).update(seen)
    defined, unpassed = set(), []
    for path in modules:
        for name, param, position in _optional_parameters(ast.parse(path.read_text())):
            defined.add(f"{name}.{param}")
            ways = {param, "**"} if position is None else {param, position, "*", "**"}
            if not passed.get(name, set()) & ways and f"{name}.{param}" not in OPTIONAL_ALLOWED:
                unpassed.append(f"{path.stem}.{name}.{param}")
    assert unpassed == []
    assert set(OPTIONAL_ALLOWED) <= defined, "allowlisted parameters must exist"


def _jetcalc_imports(path):
    """The jetcalc modules a module imports from, at any depth of its tree."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            package = ["jetcalc"] if node.level else []
            module = node.module.split(".") if node.module else []
            dotted = [package + module + [a.name] for a in node.names]
        elif isinstance(node, ast.Import):
            dotted = [a.name.split(".") for a in node.names]
        else:
            continue
        out.update(d[1] for d in dotted if d[0] == "jetcalc" and len(d) > 1)
    return out


def test_groebner_imports_only_polyring():
    """Groebner works on packed polynomials alone: the jet calculus is its
    callers' business."""
    assert _jetcalc_imports(ROOT / "src" / "jetcalc" / "groebner.py") == {"polyring"}


def test_no_assert_statement_in_src():
    """`python -O` strips `assert`, so a check in the program must raise."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "jetcalc").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_self_recursive_closure_in_src():
    """A nested function that calls itself refers to its own closure cell,
    so every call of the enclosing function leaves a reference cycle (and
    whatever the closure holds) for the cyclic collector; recursion belongs
    in a module-level helper or a loop."""
    found = []
    for path in sorted((ROOT / "src" / "jetcalc").glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text())):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and any(isinstance(node, ast.Name) and node.id == inner.name
                                for node in ast.walk(inner)):
                    found.append(f"{path.stem}.{outer.name}.{inner.name}")
    assert sorted(set(found)) == []
