"""`src/lagcheck` is what the CLI runs: every function the package defines is
entered by `cli.main` on a fixed list of small configs, one body per family,
every report format, a scan, two reports and the invalid configs that reach
the error paths.  Reference code that only the tests call lives in
`tests/reference.py`, not in the package.

The run is traced with `sys.setprofile`, which sees every Python frame the
commands enter, closures, lambdas and methods included.  The functions no
command enters on purpose are named in `ALLOWED_UNREACHED`, each with its
reason.
"""

import inspect
import json
import sys
import types
from pathlib import Path

import lagcheck
from lagcheck import cli

PACKAGE = Path(lagcheck.__file__).resolve().parent

PINNED_BY_TRACER = "wrapped by perfbench/tracer.py until the benchmark re-anchor un-wraps it"
ALLOWED_UNREACHED = {
    **{f"geometry.{name}": PINNED_BY_TRACER
       for name in ("geometry_state", "closedness_residual", "maslov_tensor_gradient", "scalar_laplacian")},
    **{f"jets.Jet.{name}": "listed in the tracer's JET_METHODS"
       for name in ("__rsub__", "__rmul__", "__truediv__", "partial", "sqrt", "sin", "cos", "exp")},
    "geometry.cached": "runs at import time, before any command",
}

IDENT = {"samples": 2, "seed": 3}
DEG = {"degree": 3}
CONFIGS = [
    # identities: one body per family, heavy and light, JSON and table
    ("identities", {"family": "whitney_cn", "r": 1.0, "n": 2, "A": [0.1, [0.2, -0.1]], **IDENT}, "json"),
    ("identities", {"family": "whitney_cn", "r": 1.0, "n": 2, "heavy": False, **IDENT}, "table"),
    ("identities", {"family": "product_torus", "radii": [1.0, 1.5], **IDENT}, "json"),
    ("identities", {"family": "lagrangian_plane", "n": 2, **IDENT}, "table"),
    ("identities", {"family": "perturbed_whitney", "r": 1.0, "eps": 0.05, "mode": 1, "n": 2, **IDENT}, "json"),
    ("identities", {"family": "whitney_cpn", "theta": 0.7, "n": 2, **IDENT}, "json"),
    ("identities", {"family": "rpn", "n": 2, **IDENT}, "json"),
    ("identities", {"family": "cpn_torus", "moduli": [1.0, 0.7, 1.2], **IDENT}, "json"),
    # energy: every compact family, every format
    ("energy", {"family": "whitney_cn", "r": 1.0, "n": 2, **DEG}, "json"),
    ("energy", {"family": "product_torus", "radii": [1.0, 2.0], **DEG}, "csv"),
    ("energy", {"family": "perturbed_whitney", "r": 1.0, "eps": 0.05, "mode": 1, "n": 2, **DEG}, "table"),
    ("energy", {"family": "whitney_cpn", "theta": 0.7, "n": 2, **DEG}, "json"),
    ("energy", {"family": "rpn", "n": 2, **DEG}, "json"),
    ("energy", {"family": "cpn_torus", "moduli": [1.0, 1.0, 1.0], **DEG}, "json"),
    # a scan over an entry of a list parameter
    ("scan", {"family": "product_torus", "radii": [1.0, 2.0], **DEG, "scan_param": "radii.1",
              "values": [1.5, 2.5]}, "csv"),
    # error paths
    ("identities", {"family": "nonlagrangian_plane", "n": 2, **IDENT}, "json"),
    ("identities", {"family": "whitney_cn", "r": True, "n": 2, **IDENT}, "json"),
    ("identities", {"family": "whitney_cn", "radius": 2.0, "n": 2, **IDENT}, "json"),
]


def _defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> qualified name of every function, method,
    closure and lambda defined in the package's source."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(compile(path.read_text(), str(path), "exec"), path.stem + ".")]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if not isinstance(const, types.CodeType):
                    continue
                name = prefix + const.co_name
                if not const.co_flags & inspect.CO_OPTIMIZED:  # a class body
                    stack.append((const, name + "."))
                elif not const.co_name.startswith("<") or const.co_name == "<lambda>":  # not a comprehension
                    out[(str(path), const.co_firstlineno)] = name
                    stack.append((const, name + ".<locals>."))
    return out


def _run_commands(tmp_path) -> tuple[list[int], set[tuple[str, int]]]:
    """The exit codes of the commands, and the (file, first line) of every
    package function they enter."""
    for module in list(sys.modules.values()):  # a cached result would hide the function behind it
        if getattr(module, "__name__", "").startswith("lagcheck"):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    argvs = []
    for k, (command, cfg, fmt) in enumerate(CONFIGS):
        path = tmp_path / f"cfg{k}.json"
        path.write_text(json.dumps(cfg))
        argvs.append([command, "--config", str(path), "--format", fmt, "--out", str(tmp_path / f"out{k}")])
    argvs += [["report", str(tmp_path / "out0")], ["report", str(tmp_path / "out8")]]

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    sys.setprofile(profile)
    try:
        for argv in argvs:
            codes.append(cli.main(argv))
    finally:
        sys.setprofile(None)
    return codes, {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in entered}


def test_every_package_function_is_entered_by_a_command(tmp_path, capsys):
    defined = _defined_functions()
    codes, entered = _run_commands(tmp_path)
    capsys.readouterr()
    unreached = sorted(name for key, name in defined.items() if key not in entered and name not in ALLOWED_UNREACHED)
    assert not unreached, "no command enters " + ", ".join(unreached)
    assert codes == [0] * 15 + [4, 3, 2] + [0, 0]


def test_every_allowlist_entry_names_a_defined_function():
    names = set(_defined_functions().values())
    assert [name for name in ALLOWED_UNREACHED if name not in names] == []
