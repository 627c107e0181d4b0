"""Every public definition of the package has a caller, and band fields
have one layout.

A public name (no leading underscore) must be referenced somewhere in
src/pdhyp outside its own definition.  The names checked are those of
top-level functions and classes, of module-level constants, and of the
methods and properties of top-level classes.  A top-level name counts as
referenced when it is read bare or as an attribute, a method or property
only when it is read as an attribute: a local variable of the same
spelling calls nothing.  Re-exports in __init__.py do not count as
callers, and neither do the tests, demos or the benchmark: code that only
they read belongs with them, not in the package.

Every field of the package is a band field on the 2/3 band's cube, or on
the line grid of one axis (the weighted norms): no module defines, reads
or imports an n^d table (full_xi_norm, full_xi_axes, r2_centered) or a
full-grid transform (full_spectral, scipy's fftn and ifftn).

The modules form layers in the order of LAYERS, and each imports only
modules earlier in it; experiments' read of __version__ from __init__ is
the one exemption.  The package keeps every name it exports (EXPORTS).
"""

import ast
from pathlib import Path

import pdhyp

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pdhyp"
FULL_GRID_NAMES = {"full_xi_norm", "full_xi_axes", "r2_centered",
                   "full_spectral", "fftn", "ifftn"}
LAYERS = ("errors", "grid", "spectra", "symbols", "pseudoproduct", "norms",
          "evolution", "experiments", "acceptance", "cli")
LAYER_EXEMPT = {("experiments", "__init__.__version__")}
EXPORTS = (
    "__version__", "SpectralGrid", "ModelMatrices", "LinearSymbolCache",
    "three_component_model", "two_component_model", "check_sk",
    "build_symbol_cache", "green_function", "BilinearSymbol", "wave_phase",
    "dissipative_phase", "make_nonresonant_symbol", "mu0_symbol",
    "symbol_preset", "PseudoproductPlan", "apply", "apply_direct",
    "holder_bound_ratio", "lambda_power", "riesz", "fractional_ratio",
    "ModelSpec", "Coefficients", "StateField", "Stepper", "BlowupGuard",
    "rhs", "wave_profile", "NormSpec", "BootstrapReport", "evaluate_norm",
    "m0_functional", "fit_decay", "fit_exponential_rate", "initial_energy",
    "ExperimentConfig", "make_initial_data", "run")


def _used_names(node, skip=None):
    """(bare names, attribute names) read under `node`, leaving out the
    subtree `skip`."""
    bare, attrs = set(), set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            bare.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            attrs.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return bare, attrs


def _public_definitions(tree):
    """(qualified name, name, node, member) of each public top-level def,
    class and constant, and of each public method or property of a
    top-level class (member True); `node` is the subtree that defines
    it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    yield (f"{node.name}.{member.name}", member.name, member,
                           True)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id, node, False


def uncalled_public_definitions(package=PACKAGE):
    """(module, qualified name) of each public definition that nothing in
    the package references outside its own definition."""
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted(package.glob("*.py")) if p.stem != "__init__"}
    everywhere = {stem: _used_names(tree) for stem, tree in trees.items()}
    missing = []
    for stem, tree in trees.items():
        others = [used for other, used in everywhere.items() if other != stem]
        for qualname, name, node, member in _public_definitions(tree):
            if name.startswith("_"):
                continue
            if not any(name in attrs or (name in bare and not member)
                       for bare, attrs in others + [_used_names(tree, node)]):
                missing.append((stem, qualname))
    return missing


def _identifiers(node):
    """The name an AST node reads, writes, defines or imports, if any."""
    for kind, field in ((ast.Attribute, "attr"), (ast.Name, "id"),
                        (ast.FunctionDef, "name"), (ast.alias, "name")):
        if isinstance(node, kind):
            return getattr(node, field)
    return None


def layout_violations(package=PACKAGE):
    """(module, line, name) of each use of a name of FULL_GRID_NAMES in
    the package: a read or write of an n^d table, a call or definition of
    a full-grid transform, or its import."""
    return sorted((path.stem, n.lineno, _identifiers(n))
                  for path in package.glob("*.py")
                  for n in ast.walk(ast.parse(path.read_text()))
                  if _identifiers(n) in FULL_GRID_NAMES)


def test_every_public_definition_has_a_caller():
    missing = uncalled_public_definitions()
    assert not missing, "no caller in src/pdhyp: " + ", ".join(
        f"{module}.{name}" for module, name in missing)


def test_a_local_of_the_same_name_calls_no_method(tmp_path):
    # reading the loop variable `band` is not a call of Grid.band; the bare
    # call of helper and the bare read of Grid are
    (tmp_path / "a.py").write_text(
        "class Grid:\n"
        "    def band(self):\n"
        "        return 0\n"
        "\n"
        "    def used(self):\n"
        "        return 1\n"
        "\n"
        "\n"
        "def helper(grid):\n"
        "    for band in range(2):\n"
        "        grid.used(band)\n")
    (tmp_path / "b.py").write_text("from a import Grid, helper\n"
                                   "helper(Grid())\n")
    assert uncalled_public_definitions(tmp_path) == [("a", "Grid.band")]


def test_band_fields_have_one_layout():
    found = layout_violations()
    assert not found, "n^d layout in src/pdhyp: " + ", ".join(
        f"{module}:{line} {name}" for module, line, name in found)


def test_the_layout_guard_names_each_full_grid_use(tmp_path):
    # a call of full_spectral or fftn, a read of an n^d table, an import
    # and a definition are named, with their lines, in every module;
    # band and line transforms pass
    (tmp_path / "a.py").write_text(
        "from scipy.fft import ifftn\n"
        "def weighted(grid, f):\n"
        "    spec = grid.full_spectral(f)\n"
        "    return grid.full_xi_norm * spec\n")
    (tmp_path / "b.py").write_text(
        "def product(grid, f, h):\n"
        "    line = grid.line_spectral(grid.line_physical(f, 0))\n"
        "    return grid.to_spectral(grid.to_physical(f)"
        " * grid.to_physical(h)), line\n")
    (tmp_path / "grid.py").write_text(
        "class SpectralGrid:\n"
        "    def full_spectral(self, f):\n"
        "        return scipy.fft.fftn(f * self.r2_centered)\n")
    assert layout_violations(tmp_path) == [
        ("a", 1, "ifftn"), ("a", 3, "full_spectral"), ("a", 4, "full_xi_norm"),
        ("grid", 2, "full_spectral"), ("grid", 3, "fftn"),
        ("grid", 3, "r2_centered")]


def _package_imports(path):
    """(line, module) of each import of the package in the module at
    `path`: `from .x import ...` and `from . import x` import module x, and
    a name of __init__ that is no module reads as __init__.<name>."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0:
            if module.partition(".")[0] != "pdhyp":
                continue
            module = module.partition(".")[2]
        if module:
            yield node.lineno, module.partition(".")[0]
            continue
        for alias in node.names:
            is_module = (path.parent / f"{alias.name}.py").exists()
            yield node.lineno, (alias.name if is_module
                                else f"__init__.{alias.name}")


def layering_violations(package=PACKAGE, layers=LAYERS):
    """(module, line, imported) of each package import that does not reach
    a layer earlier than the importer's; a module outside `layers` fails as
    importer and as imported module."""
    rank = {name: i for i, name in enumerate(layers)}
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        for line, imported in _package_imports(path):
            if (path.stem, imported) in LAYER_EXEMPT:
                continue
            if (path.stem not in rank or imported not in rank
                    or rank[imported] >= rank[path.stem]):
                found.append((path.stem, line, imported))
    return found


def test_each_module_imports_only_earlier_layers():
    found = layering_violations()
    assert not found, "imports against the layer order: " + ", ".join(
        f"{module}:{line} imports {imported}"
        for module, line, imported in found)


def test_the_layering_guard_names_each_import_against_the_order(tmp_path):
    # an import of a later or the same layer, of a module outside the
    # order, and a read of __init__ other than experiments' __version__
    # are named; imports of earlier layers pass, however they are spelled
    files = {
        "__init__.py": "from .grid import SpectralGrid\n",
        "errors.py": "",
        "grid.py": "from .errors import GridMismatch\n",
        "symbols.py": "from . import grid\nfrom pdhyp.norms import riesz\n",
        "norms.py": "from . import symbols, norms\nfrom .extra import x\n",
        "extra.py": "from . import errors\n",
        "experiments.py": "from . import __version__\n"
                          "from . import SpectralGrid\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    layers = ("errors", "grid", "symbols", "norms", "experiments")
    assert layering_violations(tmp_path, layers) == [
        ("experiments", 2, "__init__.SpectralGrid"), ("extra", 1, "errors"),
        ("norms", 1, "norms"), ("norms", 2, "extra"),
        ("symbols", 2, "norms")]


def test_the_package_keeps_its_exports():
    missing = [name for name in EXPORTS if not hasattr(pdhyp, name)]
    assert not missing, "no longer exported by pdhyp: " + ", ".join(missing)
