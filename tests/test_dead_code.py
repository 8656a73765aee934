"""Dead-code guards: every top-level function and method of the package is
named by some other line of its code, or is on the allow-list with a reason;
every defaulted parameter is passed by some call, or is on its allow-list
with a reason; every dataclass field is read, or is on its allow-list with a
reason; and every scenario setting is read by the code it configures.

A name counts when it appears as a code token; strings, comments and
docstrings do not name anything.  Dunder methods are called by Python itself
and are skipped.  A function that loses its last caller fails here until it
is deleted or allow-listed.  A defaulted parameter of a package function,
nested functions included, counts as passed when a call in the package or in
``perfbench/worker.py`` to a function of its name passes it by keyword, by
position, or through ``*args``/``**kwargs``, with a value other than the
default: a literal equal to the default, or the name of the module constant
the default names, does not set it.  A field of a package dataclass counts
as read when an attribute of its name is loaded somewhere in the package,
``perfbench/worker.py`` or ``perfbench/layers.py``, other than in its own
class's ``__post_init__``.  A ``ScenarioConfig`` field counts as read when
some module other than ``config.py`` reads it as ``cfg.<field>``.
"""

import ast
import io
import tokenize
from dataclasses import fields
from pathlib import Path

import contactlab
from contactlab.config import ScenarioConfig

PACKAGE = Path(contactlab.__file__).resolve().parent
WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
LAYERS = WORKER.with_name("layers.py")

# callers outside the package, or registration by decorator
ALLOWED = {
    "__init__.active_backend": "perfbench/worker.py stamps it into its environment record",
    "openbook.ExactSymplecticDomain.dlambda_matrix":
        "the tests' reference for dlambda_const, and a perfbench span",
    "sphere.dehn_twist_batch": "perfbench/worker.py uses it as a reference",
    "surgery.handle_membership":
        "the one-point membership the tests call; perfbench/layers.py traces it",
    **{f"suites.suite_{name}": "registered by @suite and called through SUITES"
       for name in ("binding", "dehn_twist", "giroux", "monodromy", "moves", "weinstein")},
}


def _definitions(module, tree):
    """(qualified name, name, line) of the top-level functions and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{node.name}", node.name, node.lineno
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{node.name}.{sub.name}", sub.name, sub.lineno


def _code_tokens(text):
    """The name and operator tokens of a module, without strings and comments."""
    return [tok for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type in (tokenize.NAME, tokenize.OP)]


def unnamed_definitions():
    defs, uses = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        defs.extend((path, *d) for d in _definitions(path.stem, ast.parse(text)))
        for tok in _code_tokens(text):
            if tok.type == tokenize.NAME:
                uses.setdefault(tok.string, set()).add((path, tok.start[0]))
    return sorted(qual for path, qual, name, line in defs
                  if not (name.startswith("__") and name.endswith("__"))
                  and not uses[name] - {(path, line)})


def test_every_function_is_named_or_allow_listed():
    assert unnamed_definitions() == sorted(ALLOWED)


# defaulted parameters that only callers outside the package and the worker set
UNPASSED_ALLOWED = {
    "moves.equivalent_up_to_moves.max_nodes": "the tests lower the search budget",
    "cli.main.argv": "the tests' entry point; the console script passes none",
    "openbook.standard_disk_domain.half_width":
        "perfbench/worker.py passes it, at the default value",
}


def _defaulted_parameters(node, prefix):
    """(qualified name, function name, parameter, position or None, default)
    of every defaulted parameter of the functions under node; a position
    counts the arguments of a call, so a method's self or cls is not
    counted."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = args.posonlyargs + args.args
            skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
            first = len(positional) - len(args.defaults)
            for index, (arg, default) in enumerate(zip(positional[first:], args.defaults), first):
                yield (f"{prefix}{child.name}.{arg.arg}", child.name, arg.arg,
                       index - skip, default)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{prefix}{child.name}.{arg.arg}", child.name, arg.arg, None, default
            yield from _defaulted_parameters(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _defaulted_parameters(child, f"{prefix}{child.name}.")
        else:
            yield from _defaulted_parameters(child, prefix)


_UNKNOWN = object()


def _module_constants(trees):
    """name -> value of the module-level constants ``NAME = literal``; a name
    bound to two values is left out."""
    bound = {}
    for tree in trees:
        for node in tree.body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                bound.setdefault(node.targets[0].id, []).append(_literal(node.value, {}))
    return {name: values[0] for name, values in bound.items()
            if values[0] is not _UNKNOWN and all(v == values[0] for v in values)}


def _literal(node, constants):
    """The value of a literal expression, or of the name of a module
    constant (bare or as a module attribute); else ``_UNKNOWN``."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        return constants.get(getattr(node, "id", None) or node.attr, _UNKNOWN)
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return _UNKNOWN


def _passes(call, param, index, default, constants):
    """Whether the call sets the parameter: passes it a value that is not
    known to equal its default."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None for k in call.keywords):
        return True
    passed = [k.value for k in call.keywords if k.arg == param]
    if index is not None and len(call.args) > index:
        passed.append(call.args[index])
    default_value = _literal(default, constants)
    return any(default_value is _UNKNOWN or _literal(a, constants) != default_value
               for a in passed)


def unpassed_defaults():
    """The defaulted parameters that no call in the package or the worker sets."""
    modules = sorted(PACKAGE.glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in [*modules, WORKER]}
    constants = _module_constants(trees.values())
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return sorted(qual for path in modules
                  for qual, name, param, index, default in
                  _defaulted_parameters(trees[path], f"{path.stem}.")
                  if not any(_passes(c, param, index, default, constants)
                             for c in calls.get(name, [])))


def test_every_default_is_passed_or_allow_listed():
    assert unpassed_defaults() == sorted(UNPASSED_ALLOWED)


# dataclass fields that nothing outside their own __post_init__ loads
UNREAD_FIELDS_ALLOWED = {}


def _is_dataclass(cls):
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (getattr(target, "id", None) or getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _field_names(cls):
    """The annotated names of a dataclass body, less ``InitVar`` and ``ClassVar``."""
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            ann = stmt.annotation
            ann = ann.value if isinstance(ann, ast.Subscript) else ann
            if (getattr(ann, "id", None) or getattr(ann, "attr", None)) not in ("InitVar",
                                                                                 "ClassVar"):
                yield stmt.target.id


def unread_dataclass_fields():
    """The fields of the package's dataclasses that no code loads as an
    attribute, outside their own class's ``__post_init__``."""
    loads, fields_ = {}, []
    for path in [*sorted(PACKAGE.glob("*.py")), WORKER, LAYERS]:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.attr, []).append((path, node.lineno))
            elif (isinstance(node, ast.ClassDef) and path.parent == PACKAGE
                  and _is_dataclass(node)):
                own = [(f.lineno, f.end_lineno) for f in node.body
                       if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"]
                fields_.extend((f"{path.stem}.{node.name}.{name}", path, name, own)
                               for name in _field_names(node))

    def read(path, name, own):
        return any(where != path or not any(lo <= line <= hi for lo, hi in own)
                   for where, line in loads.get(name, []))

    return sorted(qual for qual, path, name, own in fields_ if not read(path, name, own))


def test_every_dataclass_field_is_read():
    assert unread_dataclass_fields() == sorted(UNREAD_FIELDS_ALLOWED)


def unread_scenario_fields():
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "config.py":
            toks = _code_tokens(path.read_text())
            read.update(name.string for cfg, dot, name in zip(toks, toks[1:], toks[2:])
                        if (cfg.string, dot.string, name.type) == ("cfg", ".", tokenize.NAME))
    return [f.name for f in fields(ScenarioConfig) if f.name not in read]


def test_every_scenario_field_is_read():
    assert unread_scenario_fields() == []
