"""``cli.main`` pauses the cyclic garbage collector while a command runs and
gives the caller back the state it had; no other library code touches the
collector, and a command's own objects hold no reference cycles, so the
pause leaves nothing of the library's behind for a later collection."""

import ast
import gc
import os
import sys
from pathlib import Path

import pytest

import tropfan
from tropfan import cli

PACKAGE = Path(tropfan.__file__).parent


class ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its descriptor is a scratch file's, which ``_emit`` points at
    os.devnull, so the test process's own stdout is left alone."""

    def __init__(self, fd: int):
        self.fd = fd

    def fileno(self) -> int:
        return self.fd

    def write(self, text):
        raise BrokenPipeError

    def writelines(self, lines):
        raise BrokenPipeError

    def flush(self):
        pass


def run_closed_stdout(tmp_path):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    saved = sys.stdout
    sys.stdout = ClosedPipe(fd)
    try:
        with pytest.raises(SystemExit) as exc:
            cli.main(["counts", "--complete", "3"])
        return exc.value.code
    finally:
        sys.stdout = saved
        os.close(fd)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("path", ["success", "malformed", "closed-stdout"])
def test_main_restores_the_callers_collector_state(enabled, path, capsys, tmp_path):
    was = gc.isenabled()
    seen = []
    real = cli.cmd_counts

    def counts(args):
        seen.append(gc.isenabled())
        return real(args)

    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "cmd_counts", counts)
            if path == "success":
                assert cli.main(["counts", "--complete", "3"]) == 0
            elif path == "malformed":
                assert cli.main(["counts", "--complete", "99"]) == 2
            else:
                assert run_closed_stdout(tmp_path) == 1
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert seen == [False]  # the command itself ran with the collector paused


def test_only_main_calls_the_collector():
    """``gc`` is imported by ``cli`` alone and named only inside ``cli.main``:
    library calls made outside the CLI keep the caller's collector."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 7
    imports, names = [], []
    for path in modules:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            where = (path.name, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names):
                    imports.append(path.name)
                if isinstance(node, ast.ImportFrom) and node.module == "gc":
                    imports.append(path.name)
                if isinstance(node, ast.Name) and node.id == "gc":
                    names.append(where)
    assert imports == ["cli.py"]
    assert names and set(names) == {("cli.py", "main")}
    calls = [
        node.func.attr
        for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "gc"
    ]
    assert sorted(calls) == ["disable", "enable", "isenabled"]


@pytest.mark.parametrize(
    "argv",
    [
        ["fan", "--graph", "complete:5", "--format", "json"],
        ["moduli", "--n", "6", "--format", "json"],
        ["moduli", "--n", "6", "--graph", "2-3,3-4,4-5,5-6", "--format", "json"],
        ["project", "--graph", "k2-2", "--format", "json"],
        ["lattice", "--graph", "complete:5", "--format", "dot"],
        ["verify", "theorem", "--max-vertices", "5"],
    ],
    ids=["fan", "moduli-complete", "moduli-path", "project", "lattice", "theorem"],
)
def test_commands_leave_no_library_cycles(argv, tmp_path):
    """With the collector paused, a command leaves in cycles only objects of
    the standard library's parser and encoders: no tropfan object, and no
    function of tropfan's, whose closure would keep its lists alive until
    the next collection."""
    gc.collect()
    was = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert cli.main(argv + ["-o", str(tmp_path / "out")]) == 0
        gc.collect()
        # a tropfan instance reads its class's module, a function its own
        ours = [
            o for o in gc.garbage
            if (getattr(o, "__module__", None) or "").startswith("tropfan")
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was:
            gc.enable()
    assert ours == []
