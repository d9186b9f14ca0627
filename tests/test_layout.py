"""Dead-helper guard: every name defined in ``src/robustasr`` has a caller.

A top-level public function, class or constant, or a public method or
property, defined in the package must be named somewhere in the package
or in ``perfbench/`` other than its own definition. Tests do not count: a
helper only tests call belongs in ``tests/``, as the oracles in
``tests/oracles.py`` do. A private top-level name (``_name``) must be
named in its own module.

Dead-parameter guard: every parameter of a function or lambda in the
package is read in its body. ``self``, ``cls`` and names starting with
``_`` are exempt. A parameter with a default is a knob, and some call in
the package or in ``perfbench/`` must set it, by keyword or by position:
a knob that only tests turn has one value in use.

Import guard: every name ``perfbench/`` imports from the package, and
every attribute it reads through an imported package module, exists. So
a package change that drops a name the benchmark uses fails here, not
only when the benchmark runs.

Kind-check guard: no package code but the bodies of ``data.check_int``,
``data.check_real`` and ``data.check_len_range`` spells a check of a
value's kind, ``isinstance(v, bool)`` or ``type(v) is int``. A config
value, and a recipe's, is checked through them, so every field refuses a
bool, and a wrong type, in the same words.

``perfbench/out/`` holds run outputs, copies included, and is not read.
"""

import ast
import importlib
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "robustasr"


def _program_sources():
    """The package's modules and ``perfbench``'s scripts."""
    bench = ROOT / "perfbench"
    return sorted(PACKAGE.glob("*.py")) + sorted(
        p for p in bench.rglob("*.py") if p.relative_to(bench).parts[0] != "out")


def _top_level_names(tree):
    """The name of each top-level function, class and assigned constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id


def _public_definitions(tree):
    """(name, is_member) of each public top-level definition, constant and
    member."""
    for name in _top_level_names(tree):
        if not name.startswith("_"):
            yield name, False
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", True


def _names_used(tree):
    """(bare names read and imported names, attribute names) in ``tree``;
    an assignment does not name its target."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
    return names, attrs


def test_every_public_helper_has_a_caller_outside_tests():
    names, attrs = set(), set()
    defined = []
    for path in _program_sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        used_names, used_attrs = _names_used(tree)
        names |= used_names
        attrs |= used_attrs
        if path.parent == PACKAGE:
            defined += [(path.name, name, member)
                        for name, member in _public_definitions(tree)]
    # A member is reached through an attribute; a top-level name directly,
    # by import, or as an attribute of its module.
    unused = [f"{module}: {name}" for module, name, member in defined
              if name.rsplit(".", 1)[-1] not in (attrs if member else names | attrs)]
    assert not unused, "public names without a caller:\n" + "\n".join(unused)


def test_every_private_top_level_name_is_named_in_its_module():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names, _attrs = _names_used(tree)
        unused += [f"{path.name}: {name}" for name in _top_level_names(tree)
                   if name.startswith("_") and not name.startswith("__")
                   and name not in names]
    assert not unused, "private names without a caller in their module:\n" + \
        "\n".join(unused)


def _unread_parameters(tree):
    """(line, function, parameter) of each parameter its function never reads."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *(arg for arg in (a.vararg, a.kwarg) if arg)]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        yield from ((node.lineno, name, p.arg) for p in params
                    if p.arg not in read and p.arg not in ("self", "cls")
                    and not p.arg.startswith("_"))


def test_every_parameter_is_read():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        unread += [f"{path.name}:{line} {func}({param})"
                   for line, func, param in _unread_parameters(tree)]
    assert not unread, "parameters never read:\n" + "\n".join(unread)


def _defaulted_parameters(tree):
    """(line, callee, parameter, position) of each parameter with a default.

    ``callee`` is the name a call uses: the function's own, or its class's
    for ``__init__``. ``position`` is the parameter's index among the
    positional arguments a call passes (``self`` and ``cls`` not counted),
    None for a keyword-only parameter.
    """
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        callee = node.name
        if callee == "__init__" and isinstance(parents[node], ast.ClassDef):
            callee = parents[node].name
        a = node.args
        positional = [*a.posonlyargs, *a.args]
        if positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        first = len(positional) - len(a.defaults)
        for i, p in enumerate(positional[first:], first):
            yield node.lineno, callee, p.arg, i
        for p, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield node.lineno, callee, p.arg, None


def _calls(tree):
    """(callee, positional argument count, keyword names) of each call.

    The callee is a called name, with ``import ... as`` aliases resolved,
    or a called attribute's name. A starred argument counts as every
    position, and ``**`` as every keyword (the name None).
    """
    aliases = {a.asname: a.name.rsplit(".", 1)[-1] for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for a in node.names if a.asname}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            callee = aliases.get(node.func.id, node.func.id)
        elif isinstance(node.func, ast.Attribute):
            callee = node.func.attr
        else:
            continue
        n_args = math.inf if any(isinstance(a, ast.Starred) for a in node.args) \
            else len(node.args)
        yield callee, n_args, {k.arg for k in node.keywords}


def test_every_defaulted_parameter_is_set_by_a_program_call():
    calls = [call for path in _program_sources()
             for call in _calls(ast.parse(path.read_text(), filename=str(path)))]
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        unset += [f"{path.name}:{line} {callee}({param})"
                  for line, callee, param, position in _defaulted_parameters(tree)
                  if not any(name == callee and ({param, None} & keywords or
                                                 position is not None and n_args > position)
                             for name, n_args, keywords in calls)]
    assert not unset, "parameters with a default that no program call sets:\n" + \
        "\n".join(unset)


def _package_references(tree):
    """(line, module, name) of each ``from robustasr.<module> import <name>``
    and each ``<alias>.<name>`` read through ``from robustasr import <module>
    as <alias>``."""
    aliases = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level:
            continue
        if node.module == "robustasr":
            aliases.update({a.asname or a.name: a.name for a in node.names})
        elif node.module.startswith("robustasr."):
            module = node.module.split(".", 1)[1]
            yield from ((node.lineno, module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            yield node.lineno, aliases[node.value.id], node.attr


def test_every_package_name_perfbench_uses_exists():
    bench = ROOT / "perfbench"
    missing = []
    for path in _program_sources():
        if bench not in path.parents:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        missing += [f"{path.relative_to(ROOT)}:{line} robustasr.{module}.{name}"
                    for line, module, name in _package_references(tree)
                    if not hasattr(importlib.import_module(f"robustasr.{module}"), name)]
    assert not missing, "package names perfbench uses that do not exist:\n" + \
        "\n".join(missing)


def _kind_checks(tree):
    """The line of each ``isinstance(v, bool)`` (a tuple holding ``bool``
    too) and each ``type(v) is int`` or ``type(v) is not int``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" and len(node.args) == 2:
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                yield node.lineno
        elif isinstance(node, ast.Compare) and isinstance(node.left, ast.Call) \
                and isinstance(node.left.func, ast.Name) and node.left.func.id == "type" \
                and any(isinstance(op, (ast.Is, ast.IsNot))
                        and isinstance(c, ast.Name) and c.id == "int"
                        for op, c in zip(node.ops, node.comparators)):
            yield node.lineno


CHECKS = {"check_int", "check_real", "check_len_range"}


def test_only_data_spells_a_kind_check():
    spelled = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name == "data.py":
            tree.body = [node for node in tree.body
                         if not (isinstance(node, ast.FunctionDef) and node.name in CHECKS)]
        spelled += [f"{path.name}:{line}" for line in sorted(_kind_checks(tree))]
    assert not spelled, "kind checks outside data.check_int, data.check_real and " \
        "data.check_len_range:\n" + "\n".join(spelled)
