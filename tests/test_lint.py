"""Source checks on the library itself."""

import ast
import re
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tilechain"


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so every re-verification in the
    # library must raise AssertionError explicitly.
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _self_calls(tree: ast.AST) -> list[str]:
    """Calls of a function to itself, by its bare name or as ``self.<name>``.

    A call through another object, such as ``SparseVector.__init__(self)``
    in a subclass's ``__init__``, reaches a different function and is not
    counted."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name):
                name = callee.id
            elif (isinstance(callee, ast.Attribute)
                  and isinstance(callee.value, ast.Name)
                  and callee.value.id == "self"):
                name = callee.attr
            else:
                continue
            if name == func.name:
                found.append(f"{func.name}:{node.lineno}")
    return found


def test_searches_have_no_recursion():
    # Forced search and the module searches must reach depths far past the
    # interpreter's recursion limit, so no function in deduce.py or
    # modules.py may call itself and no generator may delegate with
    # `yield from`.
    for name in ("deduce.py", "modules.py"):
        tree = ast.parse((SRC / name).read_text())
        assert _self_calls(tree) == [], name
        assert not any(isinstance(node, ast.YieldFrom)
                       for node in ast.walk(tree)), name


def test_rational_searches_have_no_recursion():
    # The sweep walk, the two searches on it, the bound builders, the
    # compiled automaton (the methods of _NfaSim included) and the lamp
    # code (its encoder, decoder and digit add, the methods of _LampCode)
    # must not recurse either.  They are checked by name: the expression
    # parser and printer in rational.py recurse over the syntax tree,
    # which is legitimate.
    names = {"_sweep_walk", "rational_member_bounded",
             "enumerate_zero_position_hits", "_search_bounds",
             "_sweep_letters", "_cursor_steps", "_cursor_distance",
             "_compiled", "_final_distances", "_NfaSim",
             "_lamp_index", "_lamp_at", "_LampCode"}
    tree = ast.parse((SRC / "rational.py").read_text())
    funcs = [node for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and node.name in names]
    assert sorted(func.name for func in funcs) == sorted(names)
    for func in funcs:
        assert _self_calls(func) == [], func.name
        assert not any(isinstance(node, ast.YieldFrom)
                       for node in ast.walk(func)), func.name


def test_self_calls_skip_calls_through_a_class():
    tree = ast.parse(textwrap.dedent("""
        class Child(Base):
            def __init__(self):
                Base.__init__(self)

            def walk(self, n):
                return self.walk(n - 1)

        def count(n):
            return count(n - 1)
    """))
    assert sorted(_self_calls(tree)) == ["count:10", "walk:7"]


_ELEMENT_METHODS = ("__mul__", "inv", "__eq__", "__hash__", "__reduce__")


def _classes_defining(tree: ast.AST, names) -> dict[str, list[str]]:
    """For each method name, the classes whose own body defines it."""
    found = {name: [] for name in names}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and node.name in found:
                found[node.name].append(cls.name)
    return found


def test_group_elements_share_one_product():
    # Both group flavors are the same semidirect product, so its
    # arithmetic is written once, on the shared base class.
    tree = ast.parse((SRC / "groups.py").read_text())
    found = _classes_defining(tree, _ELEMENT_METHODS)
    owners = found["__mul__"]
    assert len(owners) == 1, found
    assert all(classes == owners for classes in found.values()), found


def test_classes_defining_counts_each_class():
    tree = ast.parse(textwrap.dedent("""
        class Lamps:
            def __mul__(self, other): ...
            def inv(self): ...

        class Flows:
            def __mul__(self, other): ...

            class Inner:
                def __hash__(self): ...
    """))
    found = _classes_defining(tree, _ELEMENT_METHODS)
    assert found["__mul__"] == ["Lamps", "Flows"]
    assert found["inv"] == ["Lamps"] and found["__hash__"] == ["Inner"]
    assert found["__eq__"] == [] == found["__reduce__"]


def _referrers(tree: ast.AST, name: str) -> list[str]:
    """The top-level statements that refer to ``name`` by bare or
    attribute name, nested bodies included: a function or class by its
    own name, any other statement as ``<module>``.  The definition of
    ``name`` itself is skipped."""
    found = []
    for top in tree.body:
        own = getattr(top, "name", None)
        if own != name and any(
                (isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                for node in ast.walk(top)):
            found.append(own or "<module>")
    return found


def test_bindings_are_read_in_one_place():
    # What a letter's binding contributes, and which bindings are refused
    # (missing, of the other group, over another ring), is decided by one
    # reader; word evaluation, certificate checks and the sweep searches
    # all go through it, and its steps fill one lazy table class.
    found = [f"{path.name}:{referrer}" for path in sorted(SRC.glob("*.py"))
             for referrer in _referrers(ast.parse(path.read_text()),
                                        "_bound")]
    assert found == ["groups.py:_letter_steps"]
    tree = ast.parse((SRC / "groups.py").read_text())
    assert len(_classes_defining(tree, ["__missing__"])["__missing__"]) == 1


def test_referrers_see_nested_attribute_and_module_level_uses():
    tree = ast.parse(textwrap.dedent("""
        from .groups import _bound

        def _bound(bindings, letter):
            return _bound(bindings, letter)

        def reader(bindings):
            def read(letter):
                return _bound(bindings, letter)
            return read

        class Walk:
            def step(self):
                return groups._bound(self.bindings, "x")

        def other(bindings):
            return bound(bindings, "x")

        FIRST = _bound({"x": 1}, "x")
    """))
    assert _referrers(tree, "_bound") == ["reader", "Walk", "<module>"]


_TOKEN_BUILDERS = {"pow_tokens", "word_from_tokens", "_conjugate"}
_TEXT_SPELLERS = {
    "groups.py": {"module_to_word", "cells_to_word", "make_submonoid_instance",
                  "_spell", "_generator_words", "_spell_walk", "_walk"},
    "rational.py": {"certificate_to_word"},
}


def _callee_name(call: ast.Call):
    """The bare name or attribute name a call goes through, if any."""
    callee = call.func
    return (callee.id if isinstance(callee, ast.Name) else
            callee.attr if isinstance(callee, ast.Attribute) else None)


def _calls_by_name(tree: ast.AST, callers, callees) -> list[str]:
    """Calls, by bare name or attribute name, of any of ``callees`` inside
    the functions named in ``callers``, nested functions included."""
    found = []
    for func in ast.walk(tree):
        if not (isinstance(func, ast.FunctionDef) and func.name in callers):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and _callee_name(node) in callees:
                found.append(f"{func.name}:{node.lineno}:{_callee_name(node)}")
    return found


def test_words_are_not_spelled_token_by_token():
    # The generated words are spelled by string repetition; building token
    # lists one letter at a time made instance construction a fifth of the
    # transport chain's time.
    for name, spellers in _TEXT_SPELLERS.items():
        tree = ast.parse((SRC / name).read_text())
        funcs = {node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
        assert spellers <= funcs, name
        assert _calls_by_name(tree, spellers, _TOKEN_BUILDERS) == [], name


def test_calls_by_name_sees_names_attributes_and_nested_calls():
    tree = ast.parse(textwrap.dedent("""
        def module_to_word(e):
            def spell(v):
                return groups.pow_tokens("g", v)
            return word_from_tokens(spell(v) for v in e)

        def other(e):
            return _conjugate(0, 0, [], "x", "y")

        def cells_to_word(cells):
            return conjugate(cells) + pow_tokens_like(cells)
    """))
    found = _calls_by_name(tree, _TEXT_SPELLERS["groups.py"], _TOKEN_BUILDERS)
    assert sorted(found) == ["module_to_word:4:pow_tokens",
                             "module_to_word:5:word_from_tokens"]


def test_every_loader_reads_through_fields():
    # One reader, documents.fields, decides what a malformed document is.
    # A loader with checks of its own would let a missing field or a wrong
    # container type escape as a bare KeyError or TypeError again.
    loaders, readers = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name.endswith("_from_dict")}
        loaders |= names
        readers |= {found.split(":")[0]
                    for found in _calls_by_name(tree, names, {"fields"})}
        if path.name != "documents.py":
            assert not re.search(r"(unknown|missing|unexpected) [\w ]*"
                                 r"fields: ", path.read_text()), path.name
    assert len(loaders) == 12
    assert sorted(loaders - readers) == []


_ELEMENT_MAKERS = {"ModuleElement", "zero_element", "unit", "plus", "scale",
                   "translate"}


def _element_sums_in_loops(tree: ast.AST, callers) -> list[str]:
    """``+`` and ``+=`` inside a loop of the functions named in ``callers``
    with a module element as an operand: a name the function binds to a
    call of an element maker, or an item of ``gens``."""
    found = set()
    for func in ast.walk(tree):
        if not (isinstance(func, ast.FunctionDef) and func.name in callers):
            continue
        elements = {target.id for node in ast.walk(func)
                    if isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and _callee_name(node.value) in _ELEMENT_MAKERS
                    for target in node.targets
                    if isinstance(target, ast.Name)}

        def is_element(expr) -> bool:
            if isinstance(expr, ast.Subscript):
                expr = expr.value
                return isinstance(expr, ast.Name) and expr.id == "gens"
            return isinstance(expr, ast.Name) and expr.id in elements

        for loop in ast.walk(func):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in ast.walk(loop):
                if isinstance(node, ast.BinOp):
                    operands = (node.left, node.right)
                elif isinstance(node, ast.AugAssign):
                    operands = (node.target, node.value)
                else:
                    continue
                if isinstance(node.op, ast.Add) and any(map(is_element,
                                                            operands)):
                    found.add((func.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_witness_sum_adds_no_elements_in_its_loop():
    # Adding one term at a time to an immutable element copies the running
    # total for every term, so checking a witness was quadratic in its
    # size; the terms go into one mutable dict instead.
    tree = ast.parse((SRC / "modules.py").read_text())
    callers = {"eval_member_witness"}
    assert _calls_by_name(tree, callers, {"plus", "__add__"}) == []
    assert _element_sums_in_loops(tree, callers) == []


def test_element_sums_in_loops_sees_names_items_and_augmented_adds():
    tree = ast.parse(textwrap.dedent("""
        def eval_member_witness(instance, terms):
            total = zero_element(instance.ring, instance.rank)
            sums = {}
            for gen, dx, dy, coeff in terms:
                sums[dx] = sums.get(dx, 0) + coeff
                total = total + gens[gen]
                total += gens[gen].translate(dx, dy)
                while coeff:
                    coeff -= 1
                    total = gens[gen] + total
            return total + zero_element(instance.ring, instance.rank)
    """))
    assert _element_sums_in_loops(tree, {"eval_member_witness"}) == [
        "eval_member_witness:7", "eval_member_witness:8",
        "eval_member_witness:11"]


def _per_iteration_parts(loop: ast.AST) -> list[ast.AST]:
    """The parts of a loop or comprehension that run once per iteration;
    a loop's first iterable and a ``for`` loop's ``else`` run once."""
    if isinstance(loop, ast.For):
        return loop.body
    if isinstance(loop, ast.While):
        return [loop.test, *loop.body]
    if isinstance(loop, ast.DictComp):
        parts = [loop.key, loop.value]
    elif isinstance(loop, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        parts = [loop.elt]
    else:
        return []
    for i, gen in enumerate(loop.generators):
        parts += gen.ifs
        if i:
            parts.append(gen.iter)
    return parts


def _calls_in_loops(tree: ast.AST, callers, callees) -> list[str]:
    """Calls of any of ``callees`` that run once per iteration of a loop or
    comprehension in the functions named in ``callers``: called by bare or
    attribute name, or passed by name to another call, as to ``map``."""
    found = set()
    for func in ast.walk(tree):
        if not (isinstance(func, ast.FunctionDef) and func.name in callers):
            continue
        for loop in ast.walk(func):
            for part in _per_iteration_parts(loop):
                for node in ast.walk(part):
                    if not isinstance(node, ast.Call):
                        continue
                    names = [_callee_name(node)]
                    names += [arg.id for arg in node.args
                              if isinstance(arg, ast.Name)]
                    found.update((func.name, node.lineno, name)
                                 for name in names if name in callees)
    return [f"{name}:{line}:{callee}"
            for name, line, callee in sorted(found)]


_CERTIFICATE_RENDERERS = {"render_certificate_ascii", "render_certificate_svg"}
_TILE_DRAWERS = {"color_glyph", "_glyphs_by_tile"}


def test_renderers_draw_each_tile_outside_their_loops():
    # A certificate has thousands of placements but a few dozen distinct
    # tiles; drawing glyphs per placement made rendering a third of the
    # certify chain.  Each distinct tile is drawn once, before the loops.
    tree = ast.parse((SRC / "render.py").read_text())
    funcs = {node.name for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    assert _CERTIFICATE_RENDERERS | {"_glyphs_by_tile"} <= funcs
    assert _calls_in_loops(tree, _CERTIFICATE_RENDERERS, _TILE_DRAWERS) == []


def test_calls_in_loops_sees_per_iteration_parts_only():
    tree = ast.parse(textwrap.dedent("""
        def render_certificate_svg(cert):
            glyphs = _glyphs_by_tile(p.tile for p in cert.placements)
            for key, sides in _glyphs_by_tile(cert.placements).items():
                boxes[key] = tiling.color_glyph(sides)
                for side in sides:
                    names.append(color_glyph(side))
            else:
                color_glyph(None)
            while todo:
                todo.pop().draw(color_glyph)
            return {c: color_glyph(c) for c in cert.colors
                    for d in color_glyph(c) if keep(color_glyph(d))}

        def other(cert):
            for p in cert.placements:
                color_glyph(p)
    """))
    assert _calls_in_loops(tree, _CERTIFICATE_RENDERERS, _TILE_DRAWERS) == [
        "render_certificate_svg:5:color_glyph",
        "render_certificate_svg:7:color_glyph",
        "render_certificate_svg:11:color_glyph",
        "render_certificate_svg:12:color_glyph",
        "render_certificate_svg:13:color_glyph"]


ROOT = SRC.parent.parent
_USER_DIRS = ("tests", "demos", "perfbench")

# Public functions with no caller in src/, perfbench/, demos/ or the README,
# each kept for the reason given.
_UNCALLED_ON_PURPOSE = {
    "witness_from_dict": "reads the witness JSON that `solve` writes",
    "submonoid_from_dict": "reads the instance JSON of `reduce submonoid`",
    "nfa_from_dict": "reads the automaton JSON of `reduce rational --nfa`",
    "witness_to_certificate": "reverse direction: a subset-sum witness "
                              "is a tiling",
    "word_plants": "reverse direction: a sweep word spells its picks",
    "from_edgemap": "the edge map -> module element map of the reduction, "
                    "which tiling_to_instance applies with a shared table",
    "certificate_to_dict": "the certificate's dict form; dump_certificate "
                           "writes its json.dumps byte for byte",
}


def _readme_blocks() -> list[tuple[str, str]]:
    """The README's fenced code blocks as (language, code) pairs."""
    blocks = (ROOT / "README.md").read_text().split("```")[1::2]
    return [tuple(block.split("\n", 1)) for block in blocks]


def _root_imports(tree: ast.AST) -> set[str]:
    """Names taken from the package root: ``from tilechain import name`` or
    ``tilechain.name`` after ``import tilechain``, also in a script held in
    a string, as a test runs in a subprocess."""
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module == "tilechain"
                and not node.level):
            found.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "tilechain"):
            found.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and "tilechain" in node.value):
            try:
                script = ast.parse(textwrap.dedent(node.value))
            except SyntaxError:
                continue
            found |= _root_imports(script)
    return found


def _references(tree: ast.AST) -> set[str]:
    """Bare and attribute names a module refers to, the body of each
    top-level function that bears the name excluded."""
    found = set()
    for top in tree.body:
        own = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None and name != own:
                found.add(name)
    return found


def _python_files(*dirs) -> list[Path]:
    return sorted(path for name in dirs for path in (ROOT / name).rglob("*.py"))


def test_package_root_exports_only_what_is_imported_from_it():
    # The root re-exports a short list of names; everything else is
    # imported from its submodule, so a name nobody takes from the root
    # does not belong there.
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {alias.name for node in init.body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert exported
    imported = set()
    for path in _python_files(*_USER_DIRS):
        imported |= _root_imports(ast.parse(path.read_text(), str(path)))
    for language, code in _readme_blocks():
        if language == "python":
            imported |= _root_imports(ast.parse(code))
    assert sorted(exported - imported) == []


def test_every_public_function_has_a_caller():
    # A public function that only tests call is a second way to say what
    # the tests could say with the functions that stay.
    defined = {node.name for path in sorted(SRC.glob("*.py"))
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("_")}
    called = {word for _, code in _readme_blocks()
              for word in re.findall(r"\w+", code)}
    for path in _python_files("src", "perfbench", "demos"):
        called |= _references(ast.parse(path.read_text(), str(path)))
    uncalled = defined - called
    assert sorted(uncalled - set(_UNCALLED_ON_PURPOSE)) == []
    # Each allow-list entry names a public function that still has no
    # caller, so the list cannot go stale.
    assert sorted(set(_UNCALLED_ON_PURPOSE) - uncalled) == []


def test_references_skip_a_function_naming_itself():
    tree = ast.parse(textwrap.dedent("""
        def walk(node):
            return [walk(child) for child in node.children]

        def spell(word):
            return helpers.join(word)

        TABLE = {"k": spell}
    """))
    assert _references(tree) >= {"spell", "join", "helpers", "node"}
    assert "walk" not in _references(tree)
    assert _root_imports(ast.parse(textwrap.dedent('''
        import tilechain
        from tilechain import alpha, beta as b
        from tilechain.tm import gamma
        tilechain.delta()
        SCRIPT = """
            from tilechain import epsilon
            print("from tilechain import not code")
        """
    '''))) == {"alpha", "beta", "delta", "epsilon"}


def _table(tree: ast.AST, name: str):
    """The literal value a module assigns to ``name`` at its top level."""
    values = [node.value for node in tree.body
              if isinstance(node, ast.Assign)
              and any(isinstance(target, ast.Name) and target.id == name
                      for target in node.targets)]
    assert len(values) == 1, name
    return ast.literal_eval(values[0])


def test_cli_surface_is_one_table():
    # A command is one row of _COMMANDS and a flag one entry of _OPTIONS;
    # only build_parser turns them into parsers, so no handler or helper
    # becomes a second place where the surface is spelled.
    tree = ast.parse((SRC / "cli.py").read_text())
    surface_calls = {"add_parser", "add_argument"}
    every = sorted(f"{node.lineno}:{_callee_name(node)}"
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and _callee_name(node) in surface_calls)
    inside = sorted(found.split(":", 1)[1]
                    for found in _calls_by_name(tree, {"build_parser"},
                                                surface_calls))
    assert inside and every == inside
    handlers = {node.name for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name.startswith("_cmd_")}
    named = {row[4] for row in _table(tree, "_COMMANDS")}
    assert sorted(named - handlers) == [] and sorted(handlers - named) == []


def test_table_reads_a_top_level_literal():
    tree = ast.parse(textwrap.dedent("""
        ROWS = (("tm", "run", None, "tm fuel", "_cmd_tm_run", ("k", 1)),)
        def f():
            ROWS = ()
    """))
    assert _table(tree, "ROWS") == (
        ("tm", "run", None, "tm fuel", "_cmd_tm_run", ("k", 1)),)


def _unbounded_caches(tree: ast.AST) -> list[str]:
    """Uses of functools' memos without an explicit finite size: ``cache``,
    ``lru_cache`` bare or called without a size, and a ``maxsize`` that is
    not a positive int literal (``None`` makes it unbounded)."""
    imported = {alias.asname or alias.name: alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "functools"
                for alias in node.names}

    def memo(node):
        if isinstance(node, ast.Name):
            return imported.get(node.id)
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "functools"):
            return node.attr
        return None

    calls = {id(node.func): node for node in ast.walk(tree)
             if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        kind = memo(node)
        if kind not in ("cache", "lru_cache"):
            continue
        call = calls.get(id(node))
        if kind == "lru_cache" and call is not None:
            sizes = call.args[:1] + [keyword.value for keyword in call.keywords
                                     if keyword.arg == "maxsize"]
            if (len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
                    and type(sizes[0].value) is int and sizes[0].value > 0):
                continue
        found.append((node.lineno, kind))
    return [f"{line}:{kind}" for line, kind in sorted(found)]


def test_every_memo_has_a_finite_size():
    # A memo keyed by content grows with every distinct key it sees; in a
    # long-running process only an explicit bound keeps it from holding
    # every machine, automaton and instance ever reduced.
    files = sorted(SRC.glob("*.py"))
    found = [f"{path.name}:{where}" for path in files
             for where in _unbounded_caches(ast.parse(path.read_text()))]
    assert found == []
    assert any("lru_cache(maxsize=" in path.read_text() for path in files)


def test_unbounded_caches_sees_every_unbounded_form():
    tree = ast.parse(textwrap.dedent("""
        import functools
        from functools import cache, lru_cache, lru_cache as memo

        @lru_cache(maxsize=32)
        def a(): ...

        @lru_cache(8)
        def b(): ...

        @lru_cache
        def c(): ...

        @lru_cache()
        def d(): ...

        @memo(maxsize=None)
        def e(): ...

        @cache
        def f(): ...

        @functools.lru_cache(maxsize=0)
        def g(): ...

        h = functools.cache(len)
        i = functools.lru_cache(maxsize=4)(len)
        cache_size = lru_cache(size)
    """))
    assert _unbounded_caches(tree) == [
        "11:lru_cache", "14:lru_cache", "17:lru_cache", "20:cache",
        "23:lru_cache", "26:cache", "28:lru_cache"]


def _placement_reads(tree: ast.AST) -> list[str]:
    """Reads of a ``.placements`` attribute other than an emptiness test
    (``not x.placements``, or ``x.placements`` as the test of an ``if``,
    ``while`` or conditional expression) or a ``len`` of it."""
    parents = {id(child): node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr == "placements"
                and isinstance(node.ctx, ast.Load)):
            continue
        parent = parents[id(node)]
        if isinstance(parent, ast.UnaryOp) and isinstance(parent.op, ast.Not):
            continue
        if (isinstance(parent, (ast.If, ast.While, ast.IfExp))
                and parent.test is node):
            continue
        if (isinstance(parent, ast.Call) and isinstance(parent.func, ast.Name)
                and parent.func.id == "len" and parent.args == [node]):
            continue
        found.append(node.lineno)
    return sorted(found)


def test_only_tiling_reads_placements():
    # A certificate's readers work from its run view, which the certificate
    # makes once, with its integer check; a reader that walks the
    # placements would bring back a per-placement path beside it.
    files = sorted(SRC.glob("*.py"))
    found = [f"{path.name}:{line}" for path in files
             if path.name != "tiling.py"
             for line in _placement_reads(ast.parse(path.read_text()))]
    assert found == []
    assert _placement_reads(ast.parse((SRC / "tiling.py").read_text()))


def test_placement_reads_see_iteration_indexing_and_slicing():
    tree = ast.parse(textwrap.dedent("""
        if not cert.placements:
            pass
        if cert.placements:
            pass
        size = len(cert.placements)
        shown = cert.placements if cert.placements else ()
        for p in cert.placements:
            pass
        first = cert.placements[0]
        rest = cert.placements[1:]
        xs = [p.x for p in cert.placements]
        copied = tuple(cert.placements)
        alias = cert.placements
        cert.placements = ()
    """))
    assert _placement_reads(tree) == [7, 8, 10, 11, 12, 13, 14]


def _placement_makers(tree: ast.AST) -> list[int]:
    """Lines that name the ``Placement`` class other than in an import:
    a call, a ``map(Placement, ...)``, a ``tuple.__new__(Placement, ...)``
    or an annotation."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Name) and node.id == "Placement")
                  or (isinstance(node, ast.Attribute)
                      and node.attr == "Placement"))


def test_only_tiling_makes_placements():
    # Producers hand a certificate its runs, and tiling.py expands them
    # into placements when they are read; a Placement made elsewhere
    # would bring back a per-cell producer beside the runs.
    files = sorted(SRC.glob("*.py"))
    found = [f"{path.name}:{line}" for path in files
             if path.name != "tiling.py"
             for line in _placement_makers(ast.parse(path.read_text()))]
    assert found == []
    assert _placement_makers(ast.parse((SRC / "tiling.py").read_text()))


def test_placement_makers_see_calls_references_and_annotations():
    tree = ast.parse(textwrap.dedent("""
        from .tiling import Placement
        from . import tiling
        a = Placement(tile, 0, 0)
        b = map(Placement, tiles, xs, ys)
        c = tuple.__new__(Placement, (tile, 0, 0))
        d = tiling.Placement(tile, 0, 0)
        e: list[Placement] = []
        f = placement(tile)
        g = cert.placements
    """))
    assert _placement_makers(tree) == [4, 5, 6, 7, 8]


def _transition_lookups(tree: ast.AST) -> list[int]:
    """Lines that look up one table entry: a read of a subscript of a
    ``.transitions`` attribute or a call of its ``get``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            table = node.value
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get"):
            table = node.func.value
        else:
            continue
        if isinstance(table, ast.Attribute) and table.attr == "transitions":
            found.append(node.lineno)
    return sorted(found)


def test_only_tm_looks_up_a_transition():
    # tm.run records what each step did, and the builder transcribes
    # those changes; a second reader of single table entries would apply
    # the transition rule a second time.  Reading the whole table, as
    # compile_tiles does, is not a lookup.
    files = sorted(SRC.glob("*.py"))
    found = [f"{path.name}:{line}" for path in files
             if path.name != "tm.py"
             for line in _transition_lookups(ast.parse(path.read_text()))]
    assert found == []
    assert _transition_lookups(ast.parse((SRC / "tm.py").read_text()))


def test_transition_lookups_see_subscripts_and_get():
    tree = ast.parse(textwrap.dedent("""
        entry = tm.transitions[(q, a)]
        other = tm.transitions.get((q, a))
        for key, value in tm.transitions.items():
            pass
        table = dict(tm.transitions)
        row = rows[(q, a)]
        fallback = options.get("transitions")
        tm.transitions[(q, a)] = entry
    """))
    assert _transition_lookups(tree) == [2, 3]
