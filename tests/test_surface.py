"""Every public name of the package is reached from the package itself, or kept.

A module's public names are its ``__all__``; a module without one exports
every top-level name that does not start with an underscore.  The public
methods and properties of a module-level class count as public names too,
spelled ``Class.method``.  A name is reached when some module of the package
refers to it outside its own definition and outside ``__all__``; importing it
does not count.  A method is reached only by a call of an attribute of its
name, and a property only by a read of an attribute of its name that is not
called; a bare name reaches neither, so a local variable or a dict's
``values()`` does not keep a method or property of that name.  A name that
nothing refers to stays only if it is listed in ``KEPT`` with the reason it
stays; the list is empty.  Every option has a caller: a defaulted
parameter of a public function or method is set by some call of the
package, by keyword, by position or through ``*``/``**``, unless it is
listed in ``KEPT_OPTIONS`` with the reason it stays.
The oracles live in ``tests/oracles.py``, and no name defined there is
defined in the package too.  The oracles take
nothing from ``ffcount``, the module they check most, but the exception of
its budget guard.  A public name that is neither reached nor kept goes,
with its tests.  The next check
keeps the pairing of M_{0,n} layers with a configuration type in one place,
the type pairings with their two readers (the stable table, whose
numerator they are, and the column cells), the one row formula of the rank checks with its callers, the
per-degree table of cycle-type codes, z's and signs with its readers, the
walk over the orbits of leading forms with the one coset census that gives
both the raw count and its strata, the generators of GL_2(F_q) and the
substitution matrix of one of them with the walk and its certificate
``ffcount.orbit_invariance_check``, the square-free bitmap with the census,
the psi check and that certificate, the division matrices of basis forms
with the coset labels, the census and the psi check, the reader of the
codes of forms with the sieve, the coset labels, the orbit walk, the
census and the certificate, and the checks of a case with the three entry points that
take one: only the definitions in ``CALLERS`` call those routes.  The twisted counts of M_{0,n} take one route as well:
only ``m0n.equivariant_poincare_m0n`` divides a count by q^3 - q, and only
it and their own recursion call ``m0n._twisted_counts``.  The cycle types
of a layer file are spelled by ``m0n._cycle_type_labels`` for the writer
and the reader alone, and only the reader builds ``m0n._LoadedLayers``.
The column code
works on integer cells, so ``spectral`` imports nothing from ``series``;
``ffcount`` imports nothing from ``m0n``, and ``linalg``, which owns the
seed of the random draws, nothing from ``ffcount``; no module but ``cli`` imports
``csv`` or ``io``, so every report is written in ``cli`` and the others
hold only mathematics.  The last test
keeps one division of binary forms: only ``ffcount._divide`` calls
``fq.divmod``, and only ``ffcount._division_matrices`` builds the quotient
and remainder matrices, dividing basis forms in a comprehension, for its three
callers in ``CALLERS``.  The layout of the layer files of ``m0n`` is stated
once: no function but the writer ``m0n._cache_text`` and its inverse
``m0n._read_written`` spells a key of it in a string.  No module
names a BLAS product (``np.dot``, ``np.linalg``, ``x.dot``, ...) or a float
dtype, so every product runs on integers without BLAS.  No module imports
``hashlib``, which loads OpenSSL, but in an ``except ImportError`` handler:
the manifest's SHA-256 comes from CPython's built-in module.
"""

import ast
from pathlib import Path

import numpy

import hyperstab

PACKAGE = Path(hyperstab.__file__).parent
ORACLES = Path(__file__).with_name("oracles.py")

# (module, name, why it stays although no module of the package refers to it)
KEPT = ()

# (module, function, parameter, why it keeps its default although no call in
# the package sets it)
KEPT_OPTIONS = (
    ("cli", "main", "argv", "tests drive the CLI through it; the console script reads sys.argv"),
    ("ffcount", "enumerate_count", "tuple_budget",
     "runs the census past the default guard (ROADMAP items 7 and 22)"),
    ("ffcount", "stratified_count", "tuple_budget",
     "runs the census past the default guard (ROADMAP items 7 and 22)"),
)


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
    )


def _definitions(tree) -> dict:
    """Top-level name -> the node that defines it."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, ast.Assign) and not _is_all(node):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node
    return out


def _public_names(tree) -> tuple:
    for node in tree.body:
        if _is_all(node):
            return tuple(ast.literal_eval(node.value))
    return tuple(name for name in _definitions(tree) if not name.startswith("_"))


def _is_property(node) -> bool:
    return any(
        isinstance(decorator, ast.Name) and decorator.id == "property"
        for decorator in node.decorator_list
    )


def _public(tree) -> dict:
    """Public name -> (its defining node, the top-level node that holds it, its kind).

    The public methods and properties of each module-level class come in as
    ``Class.method``, of kind ``"call"`` and ``"read"``; every other public
    name is of kind ``"name"``.  The kind is the key of `_references` that
    reaches it.
    """
    definitions = _definitions(tree)
    out = {name: (definitions.get(name),) * 2 + ("name",) for name in _public_names(tree)}
    for name, node in definitions.items():
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    kind = "read" if _is_property(sub) else "call"
                    out[f"{name}.{sub.name}"] = (sub, node, kind)
    return out


def _references(node, skip=None) -> dict:
    """What ``node`` uses anywhere outside ``skip``, by kind.

    ``"name"``: every name and attribute name; ``"call"``: the attribute
    names that are called; ``"read"``: the attribute names read without a
    call.
    """
    found = {"name": set(), "call": set(), "read": set()}
    called = set()  # the ids of the attributes that are the func of a call
    stack = [node]
    while stack:
        sub = stack.pop()
        if sub is skip:
            continue
        if isinstance(sub, ast.Call):
            called.add(id(sub.func))  # a call is visited before its func
        if isinstance(sub, ast.Name):
            found["name"].add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found["name"].add(sub.attr)
            if id(sub) in called:
                found["call"].add(sub.attr)
            elif isinstance(sub.ctx, ast.Load):
                found["read"].add(sub.attr)
        stack.extend(ast.iter_child_nodes(sub))
    return found


def _unreached() -> set:
    modules = _modules()
    # one reference set per top-level node of the package, __all__ left out
    uses = [
        (node, _references(node))
        for tree in modules.values()
        for node in tree.body
        if not _is_all(node)
    ]
    out = set()
    for module, tree in modules.items():
        for name, (own, holder, kind) in _public(tree).items():
            bare = name.rpartition(".")[2]
            reached = any(bare in refs[kind] for node, refs in uses if node is not holder)
            if not reached and own is not holder:
                # a method is also reached from its own class, outside its def
                reached = bare in _references(holder, skip=own)[kind]
            if not reached:
                out.add((module, name))
    return out


def test_every_public_name_is_reached_or_kept():
    kept = {(module, name) for module, name, _ in KEPT}
    assert sorted(_unreached() - kept) == []


def test_kept_names_are_public_unreached_and_explained():
    modules = _modules()
    unreached = _unreached()
    for module, name, reason in KEPT:
        assert name in _public(modules[module]), (module, name)
        assert (module, name) in unreached, f"{module}.{name} is reached; drop it from KEPT"
        assert reason, (module, name)


def _called_name(func):
    """The name a call's func spells: ``f`` of ``f(...)`` and of ``x.f(...)``."""
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _options(function, is_method) -> dict:
    """Defaulted parameter of ``function`` -> the index of the positional
    argument that sets it, None for a keyword-only one; a method's index
    leaves out its self or cls."""
    args = function.args
    positional = args.posonlyargs + args.args
    bound = is_method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in function.decorator_list
    )
    first = len(positional) - len(args.defaults)
    out = {arg.arg: i - bound for i, arg in enumerate(positional) if i >= first}
    keyword_only = zip(args.kwonlyargs, args.kw_defaults)
    out.update((arg.arg, None) for arg, default in keyword_only if default is not None)
    return out


def _sets(call, param, index) -> bool:
    """Whether ``call`` passes ``param``: by keyword or ``**``, or at ``index`` or by ``*``."""
    if any(keyword.arg in (param, None) for keyword in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index or any(isinstance(arg, ast.Starred) for arg in call.args)
    )


def _unset_options() -> set:
    """(module, public function, parameter) of every option no package call sets."""
    modules = _modules()
    calls = [
        sub for tree in modules.values() for sub in ast.walk(tree) if isinstance(sub, ast.Call)
    ]
    out = set()
    for module, tree in modules.items():
        for name, (own, holder, _) in _public(tree).items():
            if not isinstance(own, ast.FunctionDef):
                continue
            bare = name.rpartition(".")[2]
            its_calls = [call for call in calls if _called_name(call.func) == bare]
            for param, index in _options(own, own is not holder).items():
                if not any(_sets(call, param, index) for call in its_calls):
                    out.add((module, name, param))
    return out


def test_every_option_is_set_by_a_caller_or_kept():
    unset = _unset_options()
    kept = {(module, name, param) for module, name, param, _ in KEPT_OPTIONS}
    assert sorted(unset - kept) == []
    for module, name, param, reason in KEPT_OPTIONS:
        assert (module, name, param) in unset, f"{module}.{name}({param}) is set by a call"
        assert reason, (module, name, param)


def test_an_oracle_lives_in_one_place():
    # no name that tests/oracles.py defines is defined in the package too,
    # at the top level of a module or as a method of one of its classes
    oracles = set(_definitions(ast.parse(ORACLES.read_text())))
    forked = []
    for module, tree in _modules().items():
        for name, node in _definitions(tree).items():
            names = {name}
            if isinstance(node, ast.ClassDef):
                names.update(sub.name for sub in node.body if isinstance(sub, ast.FunctionDef))
            forked.extend((module, bare) for bare in sorted(names & oracles))
    assert forked == []


def test_the_oracles_take_nothing_from_ffcount_but_its_budget_error():
    imported = set()
    for node in ast.walk(ast.parse(ORACLES.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    from_ffcount = {name for name in imported if "ffcount" in name.split(".")}
    assert from_ffcount <= {"hyperstab.ffcount.ResourceGuardError"}


# function -> the (module, top-level definition) pairs that may call it: the
# pairing of M_{0,n} layers with a configuration type is decided in one place,
# the twisted counts of M_{0,n} are built and divided for the layers alone,
# the one row formula of the rank checks has one set of callers, and their one
# modular and one fraction-free elimination one caller each, the
# per-degree table of cycle-type codes, z's and signs has one owner, its own
# recursion, and three readers, one coset census per case walks the alpha
# orbits for both the raw count and its strata, the orbit walk and its
# certificate read one list of generators and substitute them by one
# matrix, the square-free bitmap serves the census and the two checks that
# read it, the division matrices of basis forms serve the coset labels, the
# census and the psi check, one reader of the codes of forms serves the
# sieve, the coset labels, the census and the certificate, one guard
# checks a case for the three entry points that take one, and the layer
# files spell their cycle types one way, for the writer and the reader,
# which alone builds the loaded layers
CALLERS = {
    "hall_inner_product_induced": {("stable", "type_pairings")},
    "equivariant_poincare_m0n": {("stable", "type_pairings"), ("cli", "cmd_m0n")},
    "type_pairings": {("stable", "stable_series"), ("spectral", "type_cells")},
    "_row_array": {("linalg", "verify_bundle_rank"), ("linalg", "_pairs_certified")},
    "_ranks_mod_p": {("linalg", "verify_bundle_rank")},
    "_rank_bareiss": {("linalg", "kernel_dimension")},
    "_divide": {("ffcount", "_division_matrices"), ("ffcount", "_factor_form")},
    "_division_matrices": {("ffcount", "_labels"), ("ffcount", "_coset_census"),
                           ("ffcount", "psi_roundtrip_check")},
    "_cycle_types": {("symfunc", "_cycle_types"), ("symfunc", "_code_positions"),
                     ("symfunc", "_block_weights"), ("symfunc", "schur_expand")},
    "_alpha_orbits": {("ffcount", "_coset_census")},
    "_gl2_generators": {("ffcount", "_alpha_orbits"), ("ffcount", "orbit_invariance_check")},
    "_substitution_matrix": {("ffcount", "_alpha_orbits"),
                             ("ffcount", "orbit_invariance_check")},
    "_codes": {("ffcount", "_squarefree_bitmap"), ("ffcount", "_labels"),
               ("ffcount", "_alpha_orbits"), ("ffcount", "_coset_census"),
               ("ffcount", "orbit_invariance_check")},
    "_validate_case": {("ffcount", "enumerate_count"), ("ffcount", "stratified_count"),
                       ("ffcount", "psi_roundtrip_check")},
    "_squarefree_bitmap": {("ffcount", "_coset_census"), ("ffcount", "psi_roundtrip_check"),
                           ("ffcount", "orbit_invariance_check")},
    "_coset_census": {("ffcount", "enumerate_count"), ("ffcount", "stratified_count")},
    "_twisted_counts": {("m0n", "equivariant_poincare_m0n"), ("m0n", "_twisted_counts")},
    "_divide_by_pgl2": {("m0n", "equivariant_poincare_m0n")},
    "_cycle_type_labels": {("m0n", "_cache_text"), ("m0n", "_read_written")},
    "_LoadedLayers": {("m0n", "_read_written")},
}


def _call_sites(name) -> set:
    """(module, top-level definition) of every call of ``name`` in the package."""
    out = set()
    for module, tree in _modules().items():
        for node in tree.body:
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                if _called_name(sub.func) == name:
                    out.add((module, getattr(node, "name", None)))
    return out


def test_type_pairings_are_the_one_caller_of_the_layer_route():
    for name, allowed in CALLERS.items():
        assert _call_sites(name) <= allowed, name


def _imported_modules(module) -> set:
    """The last dotted part of every module that ``module`` imports from."""
    imported = set()
    for node in ast.walk(_modules()[module]):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return {name.rpartition(".")[2] for name in imported}


def test_spectral_imports_nothing_from_series():
    assert "series" not in _imported_modules("spectral")


def test_ffcount_imports_nothing_from_m0n():
    assert "m0n" not in _imported_modules("ffcount")


def test_linalg_imports_nothing_from_ffcount():
    assert "ffcount" not in _imported_modules("linalg")


def test_reports_are_rendered_in_cli_only():
    writers = {"csv", "io"}
    assert {
        module for module in _modules()
        if module != "cli" and writers & _imported_modules(module)
    } == set()


def _definitions_calling(matches, scopes=None) -> set:
    """(module, top-level definition) of every call that ``matches``; with
    ``scopes``, of every such call inside a node of one of those types."""
    out = set()
    for module, tree in _modules().items():
        for node in tree.body:
            inner = [s for s in ast.walk(node) if isinstance(s, scopes)] if scopes else [node]
            if any(
                isinstance(sub, ast.Call) and matches(sub.func)
                for scope in inner
                for sub in ast.walk(scope)
            ):
                out.add((module, getattr(node, "name", None)))
    return out


def test_binary_forms_are_divided_in_one_place():
    # fq.divmod is matched by its module, so np.divmod and
    # TatePolynomial.divmod do not count
    assert _definitions_calling(
        lambda f: isinstance(f, ast.Attribute) and f.attr == "divmod"
        and isinstance(f.value, ast.Name) and f.value.id == "fq"
    ) == {("ffcount", "_divide")}
    assert _definitions_calling(
        lambda f: isinstance(f, ast.Name) and f.id == "_divide",
        (ast.ListComp, ast.GeneratorExp),
    ) == {("ffcount", "_division_matrices")}


def _strings(node):
    """The string constants under ``node``, f-string parts among them, docstrings left out."""
    docstrings = {
        id(sub.body[0].value)
        for sub in ast.walk(node)
        if isinstance(sub, (ast.FunctionDef, ast.ClassDef)) and sub.body
        and isinstance(sub.body[0], ast.Expr) and isinstance(sub.body[0].value, ast.Constant)
    }
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if id(sub) not in docstrings:
                yield sub.value


def test_the_layer_file_layout_is_stated_once():
    spelled = {
        (module, node.name)
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any("cycle_types" in text or "trace" in text for text in _strings(node))
    }
    assert spelled == {("m0n", "_cache_text"), ("m0n", "_read_written")}


# The names of numpy's BLAS-backed products.  On int64 and object arrays
# ``@`` runs numpy's own loops, so with no float dtype in the package either,
# no BLAS routine runs and the CLI can start OpenBLAS with one thread.
BLAS_ATTRIBUTES = {"linalg", "dot", "vdot", "matmul", "einsum", "tensordot", "inner"}


def _is_float_type(name: str) -> bool:
    """Whether ``numpy.<name>`` is a float or complex scalar type (np.float64, np.double, ...)."""
    kind = getattr(numpy, name, None)
    return isinstance(kind, type) and issubclass(kind, numpy.inexact)


def _is_float_dtype(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("float", "complex")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return numpy.dtype(node.value).kind in "fc"
    return False


def test_no_blas_product_and_no_float_dtype():
    found = set()
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (
                node.attr in BLAS_ATTRIBUTES or _is_float_type(node.attr)
            ):
                found.add((module, node.lineno, node.attr))
            if isinstance(node, ast.Call):
                dtypes = [k.value for k in node.keywords if k.arg == "dtype"]
                if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
                    dtypes += node.args[:1]
                found.update(
                    (module, node.lineno, "dtype") for d in dtypes if _is_float_dtype(d)
                )
    assert found == set()


def _imports_hashlib(node) -> bool:
    """An import statement of hashlib, or a call that imports it by name."""
    if isinstance(node, ast.Import):
        return any(alias.name.partition(".")[0] == "hashlib" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").partition(".")[0] == "hashlib"
    return isinstance(node, ast.Call) and any(
        isinstance(arg, ast.Constant) and arg.value == "hashlib" for arg in node.args
    )


def _catches_import_error(handler) -> bool:
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(kind, ast.Name) and kind.id == "ImportError" for kind in caught)


def test_hashlib_is_imported_only_as_a_fallback():
    # hashlib loads OpenSSL's libcrypto; the manifest takes SHA-256 from
    # CPython's built-in module and needs hashlib only where that is missing
    found = set()
    for module, tree in _modules().items():
        fallback = {
            id(sub)
            for handler in ast.walk(tree)
            if isinstance(handler, ast.ExceptHandler) and _catches_import_error(handler)
            for sub in ast.walk(handler)
        }
        found.update(
            (module, node.lineno)
            for node in ast.walk(tree)
            if _imports_hashlib(node) and id(node) not in fallback
        )
    assert found == set()
