"""Dead-code guards: every top-level function and method of the package is
loaded by code outside its own definition, or is on the allow-list with a
reason; every defaulted parameter is passed by some call, or is on its allow-list
with a reason; every dataclass field is read, or is on its allow-list with a
reason; every scenario setting is read by the code it configures; and every
local name a package function binds is read, or is on its allow-list with a
reason; and every parameter typed as a settings record is passed on whole
or read through more than one field, or is on its allow-list with a reason.
An allow-list entry whose reason cites ``perfbench`` names a function that
the benchmark's worker or layers still name.

A function counts as loaded when some code outside its definition loads
its name as a bare name, as an attribute or by import; a method only when
its name is loaded as an attribute, so a local variable of the same name
does not keep it.  Strings, comments and docstrings load nothing.  Dunder
methods are called by Python itself and are skipped.  A function that loses
its last caller fails here until it is deleted or allow-listed.  A defaulted parameter of a package function,
nested functions included, counts as passed when a call in the package or in
``perfbench/worker.py`` to a function of its name passes it by keyword, by
position, or through ``*args``/``**kwargs``, with a value other than the
default: a literal equal to the default, or the name of the module constant
the default names, does not set it.  A field of a package dataclass counts
as read when an attribute of its name is loaded somewhere in the package,
``perfbench/worker.py`` or ``perfbench/layers.py``, other than in its own
class's ``__post_init__``.  A ``ScenarioConfig`` field counts as read when
some module other than ``config.py`` reads it as ``cfg.<field>``.  A local
name counts as read when the function that binds it, or a function nested in
it, loads it; a name bound by tuple unpacking, or with a leading underscore,
is skipped, as is a name the function declares ``global`` or ``nonlocal``.
A parameter annotated with one of the records in ``RECORDS`` is read through
one field when every load of its name in its function, nested scopes
included, is the object of an attribute, and those attributes have at most
one name; such a parameter should take that field's value instead.
"""

import ast
import io
import re
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
    "monodromy.post_surgery_pipeline":
        "perfbench/worker.py calls it and perfbench/layers.py traces it",
    "sphere.dehn_twist": "perfbench/worker.py calls it and perfbench/layers.py traces it",
    "sphere.dehn_twist_batch": "perfbench/worker.py uses it as a reference",
    "surgery.handle_membership":
        "the one-point membership the tests call; perfbench/layers.py traces it",
    "surgery.limit_transfer_to_s1":
        "the tests' one-point transfer; perfbench/layers.py traces it",
    **{f"suites.suite_{name}": "registered by @suite and called through SUITES"
       for name in ("binding", "dehn_twist", "giroux", "monodromy", "moves", "weinstein")},
}


def _definitions(module, tree):
    """(qualified name, node, whether a method) of the top-level functions and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{node.name}", node, False
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{node.name}.{sub.name}", sub, True


def _loads(tree):
    """(name, line, whether as an attribute) of every name a module loads as
    a bare name, as an attribute or by import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno, False) for alias in node.names)


def _code_tokens(text):
    """The name and operator tokens of a module, without strings and comments."""
    return [tok for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type in (tokenize.NAME, tokenize.OP)]


def unnamed_definitions(sources):
    """The functions and methods of ``sources`` (module name -> text) that
    no code outside their own definition loads."""
    defs, loads = [], {}
    for module, text in sources.items():
        tree = ast.parse(text)
        defs.extend((module, *d) for d in _definitions(module, tree))
        for name, line, as_attribute in _loads(tree):
            loads.setdefault(name, []).append((module, line, as_attribute))

    def loaded(module, node, is_method):
        return any((as_attribute or not is_method)
                   and not (where == module and node.lineno <= line <= node.end_lineno)
                   for where, line, as_attribute in loads.get(node.name, []))

    return sorted(qual for module, qual, node, is_method in defs
                  if not (node.name.startswith("__") and node.name.endswith("__"))
                  and not loaded(module, node, is_method))


def test_every_function_is_named_or_allow_listed():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unnamed_definitions(sources) == sorted(ALLOWED)


def test_a_local_named_like_a_method_does_not_keep_the_method():
    # a local of the method's name, a string and a comment load no method;
    # an attribute load does, and a function also counts when loaded by name
    text = ("class Point:\n"
            "    def theta(self):\n"
            "        return 0.0\n"
            "\n\n"
            "def page(z, w):\n"
            "    theta = z * w  # theta\n"
            "    return theta, 'theta'\n"
            "\n\n"
            "def unused(n):\n"
            "    return unused(n - 1)\n"
            "\n\n"
            "page(1, 2)\n")
    assert unnamed_definitions({"scratch": text}) == ["scratch.Point.theta", "scratch.unused"]
    assert unnamed_definitions({"scratch": text + "Point().theta()\nunused(3)\n"}) == []


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


def test_allow_list_benchmark_reasons_name_what_the_benchmark_uses():
    # a function allow-listed for the benchmark's sake, or the function of a
    # parameter so allow-listed, must still be named in the benchmark's text
    # (layers.py names the functions it traces in strings)
    bench = WORKER.read_text() + LAYERS.read_text()
    cited = [qual.split(".")[-1] for qual, why in ALLOWED.items() if "perfbench" in why]
    cited += [qual.split(".")[-2] for allowed in (UNPASSED_ALLOWED, ONE_FIELD_ALLOWED)
              for qual, why in allowed.items() if "perfbench" in why]
    assert cited
    assert [name for name in cited if not re.search(rf"\b{name}\b", bench)] == []


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


# local names that a package function binds and never reads
UNREAD_LOCALS_ALLOWED = {}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _own_nodes(scope):
    """The nodes of a function's own scope: its body, without the bodies of
    the functions, lambdas, classes and comprehensions nested in it."""
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _functions(node, prefix):
    """(qualified name, node) of every function under node, nested ones too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{prefix}{child.name}"
            yield qual, child
            yield from _functions(child, f"{qual}.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix)


def unread_locals():
    """The names a package function binds, other than by tuple unpacking or
    with a leading underscore, that no code in it, nested scopes included,
    loads."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qual, func in _functions(ast.parse(path.read_text()), f"{path.stem}."):
            unpacked = {id(elt) for node in _own_nodes(func)
                        if isinstance(node, (ast.Tuple, ast.List))
                        for elt in ast.walk(node) if elt is not node}
            declared = {name for node in _own_nodes(func)
                        if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names}
            bound = {node.id for node in _own_nodes(func)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                     and id(node) not in unpacked and not node.id.startswith("_")}
            loaded = {node.id for node in ast.walk(func)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            out.extend(f"{qual}.{name}" for name in bound - loaded - declared)
    return sorted(out)


def test_every_local_is_read():
    assert unread_locals() == sorted(UNREAD_LOCALS_ALLOWED)


# settings-record parameters that read one field and are never passed on whole
RECORDS = {"ScenarioConfig", "IntegratorConfig", "SurgeryConfig", "HandleProfile"}
ONE_FIELD_ALLOWED = {
    "monodromy.post_surgery_pipeline.config":
        "perfbench/worker.py passes post_surgery_pipeline a SurgeryConfig",
    "monodromy.post_surgery_pipeline.profile":
        "perfbench/worker.py passes post_surgery_pipeline a HandleProfile",
    "openbook.giroux_correction.flow_cfg":
        "perfbench/worker.py passes giroux_correction an IntegratorConfig",
    "suites.suite_binding.cfg": "the registry calls every suite body as body(cfg, check)",
}


def one_field_records():
    """The parameters annotated with a record of ``RECORDS`` that their
    function, nested scopes included, never loads other than as the object
    of an attribute, with at most one attribute name among those loads."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qual, func in _functions(ast.parse(path.read_text()), f"{path.stem}."):
            args = func.args
            params = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs
                      if (getattr(arg.annotation, "id", None)
                          or getattr(arg.annotation, "attr", None)) in RECORDS}
            if not params:
                continue
            through = {id(node.value): node.attr for node in ast.walk(func)
                       if isinstance(node, ast.Attribute)}
            fields_, whole = {name: set() for name in params}, set()
            for node in ast.walk(func):
                if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        and node.id in params):
                    if id(node) in through:
                        fields_[node.id].add(through[id(node)])
                    else:
                        whole.add(node.id)
            out.extend(f"{qual}.{name}" for name, read in fields_.items()
                       if name not in whole and len(read) <= 1)
    return sorted(out)


def test_every_record_parameter_reads_more_than_one_field_or_is_allow_listed():
    assert one_field_records() == sorted(ONE_FIELD_ALLOWED)
