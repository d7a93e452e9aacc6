"""Static checks of the library's source, with the standard library's ast: no linter is needed."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "crbkit").glob("*.py"))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    # __init__.py imports to re-export, so it is left out; every other module reads what it imports
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in read} == {}


def test_every_private_function_is_read():
    # a helper that a refactor leaves behind is defined and never called: every function or method whose name
    # starts with one underscore is read somewhere in the package, as a name or as an attribute
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}
    nodes = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)]
    private = {
        node.name: f"{name}:{node.lineno}"
        for name, node in nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    }
    read = {node.id for _, node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for _, node in nodes if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert len(private) > 20
    assert {name: where for name, where in private.items() if name not in read} == {}


def test_each_factorization_and_inverse_has_one_home():
    # every svd, inv, eigh and qr of the package is read in one function, so each is grouped by shape in one place;
    # eigvalsh is left out, as J's chart (the sampler's X) and the frame route (U'J_rU) need separate calls
    homes = {"svd": "null_complements", "inv": "_bounds", "eigh": "_factored", "qr": "orthonormal_columns"}
    found = {name: [] for name in homes}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:  # a function or class, or a statement of the module
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in homes and ast.unparse(node.value) == "np.linalg":
                    found[node.attr].append(getattr(top, "name", "<module>"))
    assert found == {name: [home] for name, home in homes.items()}


def test_the_theorem_table_has_one_home():
    # which theorems a certify stage checks, in which order, and which failure comes first is decided in verify.py:
    # no other module reads THEOREM_IDS or a _<theorem>_stage named from it, as a name, an attribute or an import
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}
    (table,) = [ast.literal_eval(node.value) for node in trees["verify.py"].body
                if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["THEOREM_IDS"]]
    names = {"THEOREM_IDS", *(f"_{theorem}_stage" for theorem in table)}
    assert len(names) == 7
    readers = set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                used = {alias.name for alias in node.names}
            else:
                used = {getattr(node, "id", None), getattr(node, "attr", None)}
            readers |= {(name, found) for found in used & names}
    assert {name for name, _ in readers} == {"verify.py"}


def test_what_a_certify_matrix_draws_after_j_has_one_home():
    # which frames and constraints a certify matrix's stream draws after J, and in which order, is decided in
    # verify.py: no other module reads _suite_frames, _sample_stacks or min_rank_trials, as a name, an attribute or
    # an import, but constraint.py, whose sample_minimum_stack samples on an integer seed's own stream, and
    # __init__.py, which only re-exports the public min_rank_trials
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}
    names = {"_suite_frames", "_sample_stacks", "min_rank_trials"}
    readers = set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                used = {alias.name for alias in node.names}
            else:
                used = {getattr(node, "id", None), getattr(node, "attr", None)}
            readers |= {(name, found) for found in used & names if name != "__init__.py"}
    assert readers == {("verify.py", found) for found in names} | {("constraint.py", "_sample_stacks")}


def test_every_constant_is_read():
    # a constant that a refactor leaves behind is assigned and never read: every module-level UPPER_CASE name
    # assigned in the package is read somewhere in it, as a loaded name or as an attribute
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}
    constants = {}
    for name, tree in trees.items():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                for leaf in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if isinstance(leaf, ast.Name) and leaf.id.isupper():
                        constants[leaf.id] = f"{name}:{node.lineno}"
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    read = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for node in nodes if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert len(constants) > 20
    assert {name: where for name, where in constants.items() if name not in read} == {}


def test_every_file_is_written_one_way():
    # each output file is written by Path.write_text with encoding="ascii", its text formed first so that a refused
    # value leaves no file: no open() or Path.open() with a mode that writes (a mode that is not a literal counts)
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}
    calls = [(name, node) for name, tree in trees.items() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    writers, unencoded = [], []
    for name, call in calls:
        callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        keywords = {keyword.arg: keyword.value for keyword in call.keywords}
        if callee == "open":
            mode = keywords.get("mode", call.args[1] if len(call.args) > 1 else ast.Constant("r"))
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                writers.append(f"{name}:{call.lineno}")
        elif callee == "write_text":
            encoding = keywords.get("encoding")
            if not (isinstance(encoding, ast.Constant) and encoding.value == "ascii"):
                unencoded.append(f"{name}:{call.lineno}")
    assert (writers, unencoded) == ([], [])
    assert sum(getattr(call.func, "attr", None) == "write_text" for _, call in calls) >= 7


def test_no_statement_in_cli_writes_into_a_run_config():
    # a RunConfig is resolved once: no statement in cli.py assigns to, or deletes, an attribute of a name config
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    writes = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del))
        and isinstance(node.value, ast.Name) and node.value.id == "config"
    ]
    assert writes == []


def test_every_error_class_is_read_by_another_module():
    # a class exists for a condition that some caller tells apart: every class errors.py defines is read, as a loaded
    # name, by a module of the package other than errors.py and __init__.py, which only re-exports
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}
    defined = {node.name for node in trees["errors.py"].body if isinstance(node, ast.ClassDef)}
    read = {
        node.id
        for name, tree in trees.items() if name not in ("errors.py", "__init__.py")
        for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert "CrbKitError" in defined and len(defined) > 1
    assert defined - read == set()


def test_every_stream_is_one_seed_sequence_of_the_seed():
    # one seed derivation: np.random.SeedSequence is built only in matlin.seed_sequence, and no module reads a
    # stream's generate_state, so no stream is seeded from another stream's output
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}
    builders, states = [], []
    for name, tree in trees.items():
        for top in tree.body:
            for node in ast.walk(top):
                callee = isinstance(node, ast.Call) and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
                if callee == "SeedSequence":
                    builders.append((name, getattr(top, "name", "<module>")))
                if isinstance(node, ast.Attribute) and node.attr == "generate_state":
                    states.append(f"{name}:{node.lineno}")
    assert (builders, states) == ([("matlin.py", "seed_sequence")], [])


def _cli_calls() -> list[tuple[str, str, int]]:
    """Each call in cli.py: the function or class that makes it (<module> for a module statement), the name it calls
    and its line."""
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(getattr(top, "name", "<module>"), getattr(node.func, "id", None) or getattr(node.func, "attr", None),
             node.lineno) for top in tree.body for node in ast.walk(top) if isinstance(node, ast.Call)]


def test_only_write_manifest_removes_outputs():
    # which earlier outputs a run removes from --out is decided in one place: nothing in cli.py but write_manifest
    # calls unlink, rmtree or os.remove
    assert {name for name, callee, _ in _cli_calls() if callee in ("unlink", "rmtree", "remove")} == {"write_manifest"}


def test_every_command_calls_write_manifest_before_it_writes():
    # write_manifest, which clears --out, is each command's first write: in each cmd_* of cli.py the first call to
    # write_manifest comes before, in source order, every call that writes a file or makes a directory
    writers = {"write_text", "save_matrix", "save_constraint_spec", "write_certificate_witnesses", "makedirs", "mkdir"}
    first = {}
    for name, callee, line in sorted(_cli_calls(), key=lambda call: call[2]):
        if name.startswith("cmd_") and callee in writers | {"write_manifest"}:
            first.setdefault(name, callee)
    assert first == dict.fromkeys(["cmd_analyze", "cmd_certify", "cmd_experiment"], "write_manifest")
