"""Rules on the package source that no behaviour test sees: one home for
the tolerances, one integer rule for the containers' index fields, one
number rule for their number fields and the generators' scalar
parameters, one owner of the level pass, and no import left unused.

Parses `src/screenkit` with `ast`; it imports and compiles nothing.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "screenkit"

#: The flow's own unit pair: the slack of the integer max flow and the mass
#: it stands for, which a `DiscreteDistribution` is checked against.
FLOW_UNITS = {("stochastics.py", "MASS_TOL"), ("stochastics.py", "_FLOW_SLACK")}


def _trees():
    return [(path.name, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(SRC.glob("*.py"))]


def _module_names(tree) -> list:
    """Names a module's top level binds by assignment."""
    names = []
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            names += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return names


def test_tolerances_are_defined_in_model_alone():
    stray = [(module, name) for module, tree in _trees() if module != "model.py"
             for name in _module_names(tree)
             if name.endswith(("_TOL", "_SLACK")) and (module, name) not in FLOW_UNITS]
    assert stray == []


#: Small float literals allowed outside model.py's tolerance block: the
#: converse's discount, which is a construction parameter, not a tolerance.
SMALL_LITERALS = {("theorems.py", "_CONVERSE_EPS")}


def test_small_float_literals_are_named_tolerances():
    # a float literal below 1e-3 is a tolerance in all but name: it may
    # appear only as the value of one of model.py's top-level *_TOL names
    stray = []
    for module, tree in _trees():
        named = {id(node.value) for node in tree.body if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)
                 and ((module == "model.py" and target.id.endswith("_TOL"))
                      or (module, target.id) in SMALL_LITERALS)}
        stray += [f"{module}:{node.lineno}:{node.value!r}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)
                  and 0 < node.value < 1e-3 and id(node) not in named]
    assert stray == []


def _builtin_calls(node, name: str) -> list:
    """Calls of the builtin `name` under `node`."""
    return [call for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == name]


def _reads_params(node) -> bool:
    """Whether `node` is `params.get(...)` or `params[...]`."""
    if isinstance(node, ast.Call):
        node = node.func
        lookup = isinstance(node, ast.Attribute) and node.attr == "get"
    else:
        lookup = isinstance(node, ast.Subscript)
    return lookup and isinstance(node.value, ast.Name) and node.value.id == "params"


def _post_init_calls(name: str) -> list:
    """Calls of the builtin `name` in every container's __post_init__."""
    return [f"{module}:{cls.name}:{call.lineno}" for module, tree in _trees()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
            for call in _builtin_calls(fn, name)]


def test_post_init_never_truncates_with_int():
    # an index goes through model._as_index, which refuses what int() would
    # cut: no int() at all in a container's __post_init__
    assert _post_init_calls("int") == []


def test_post_init_reads_numbers_through_the_number_rules():
    # a number goes through model._as_real and a table through
    # model.float_table, which refuse the bool, str and None that float()
    # reads as numbers: no float() in a container's __post_init__, and no
    # second array rule named frozen_array defined, imported or called
    assert _post_init_calls("float") == []
    names = [f"{module}:{node.lineno}" for module, tree in _trees()
             for node in ast.walk(tree)
             if "frozen_array" in (getattr(node, "name", None),
                                   getattr(node, "id", None),
                                   getattr(node, "attr", None))]
    assert names == []


def test_generators_never_truncate_a_parameter_with_int():
    """The application generators read their `params` dictionaries through
    model._as_index too. The rule matches only a dictionary named `params`,
    the name every generator gives it."""
    calls = [f"{module}:{call.lineno}" for module, tree in _trees()
             for call in _builtin_calls(tree, "int")
             if any(_reads_params(arg) for arg in call.args)]
    assert calls == []


def test_generators_never_convert_a_parameter_with_float():
    """Scalar parameters go through model._as_real, which refuses the bool,
    str and None that float() would read as numbers; the rule matches a
    dictionary named `params` as the one above does."""
    calls = [f"{module}:{call.lineno}" for module, tree in _trees()
             for call in _builtin_calls(tree, "float")
             if any(_reads_params(arg) for arg in call.args)]
    assert calls == []


def _imported_names(tree) -> list:
    """(name, line) for every name a module's import statements bind."""
    return [((alias.asname or alias.name).split(".")[0], node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names]


def test_every_import_is_used():
    unused = []
    for module, tree in _trees():
        if module == "__init__.py":  # imports to re-export
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{module}:{line}:{name}" for name, line in _imported_names(tree)
                   if name not in used]
    assert unused == []


def _mentions_support(node) -> bool:
    """Whether `node` reads `<...>dist.support`."""
    return any(isinstance(n, ast.Attribute) and n.attr == "support"
               and (getattr(n.value, "id", None) == "dist"
                    or getattr(n.value, "attr", None) == "dist")
               for n in ast.walk(node))


def test_payoffs_and_support_arrays_have_one_home():
    # `ScreeningInstance.payoffs` prices every option and bounds its
    # indices, and `JointDistribution.pairs` is the support as an array:
    # no module but model.py turns `dist.support` into an array, and no
    # scalar or batch payoff copy is defined, imported or called
    arrays = [f"{module}:{call.lineno}" for module, tree in _trees()
              if module != "model.py"
              for call in ast.walk(tree) if isinstance(call, ast.Call)
              and getattr(call.func, "attr", None) in ("array", "asarray")
              and any(_mentions_support(arg) for arg in call.args)]
    assert arrays == []
    copies = {"payoff_tables", "agent_payoff", "principal_payoff"}
    names = [f"{module}:{node.lineno}" for module, tree in _trees()
             for node in ast.walk(tree)
             if copies & {getattr(node, "name", None), getattr(node, "id", None),
                          getattr(node, "attr", None)}]
    assert names == []


def _callers(name: str) -> list:
    """module:class.function or module:function of every call of `name`,
    called by its bare name or as an attribute."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                out.append(f"{module}:{scope}")
            visit(child, inner)

    for module, tree in _trees():
        visit(tree, "")
    return sorted(out)


def test_the_level_pass_has_one_owner():
    # the instance groups its support by productive level and couples the
    # adjacent levels, once each; the bundling ratio check is the one other
    # user of the two kernels, on its own conditional laws
    ratio = "applications.py:_check_ratio_monotonicity"
    assert _callers("_level_table") == sorted(
        [ratio, "model.py:ScreeningInstance.levels"])
    assert _callers("_adjacent_couplings") == sorted(
        [ratio, "model.py:ScreeningInstance.level_couplings"])
