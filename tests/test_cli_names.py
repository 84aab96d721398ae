"""A command reads only names that its own modules export.

``relaydof.cli`` binds the public names (``__all__``) of a command's
modules just before running it, so a global that a command reads and no
module of that command exports would fail only on that command's path, as
a ``NameError``.  Here the globals each command's code reads are read from
its bytecode and checked against what it binds.
"""

import builtins
import dis
import importlib.util
import types
from importlib import import_module

import pytest

from relaydof import cli


def own_names() -> set[str]:
    """The module-level names of cli's own code, before any command binds
    one: a fresh copy of the module, which no command has run in."""
    spec = importlib.util.spec_from_file_location("relaydof._cli_copy", cli.__file__)
    copy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(copy)
    return set(vars(copy))


OWN = own_names()
EXPORTED = {m: set(import_module(f"relaydof.{m}").__all__) for ms in cli._COMMAND_MODULES.values() for m in ms}


def globals_read(function) -> set[str]:
    """The globals a function reads, in its own code, in the code nested in
    it, and in the cli helpers (``_``-prefixed functions) it calls."""
    names, codes = set(), [function.__code__]
    while codes:
        code = codes.pop()
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        for ins in dis.get_instructions(code):
            if ins.opname == "LOAD_GLOBAL" and ins.argval not in names:
                names.add(ins.argval)
                helper = vars(cli).get(ins.argval)
                if ins.argval.startswith("_") and isinstance(helper, types.FunctionType):
                    codes.append(helper.__code__)
    return names


def unbound(function, modules) -> set[str]:
    exported = set().union(*(EXPORTED[m] for m in modules))
    return {n for n in globals_read(function) if not (hasattr(builtins, n) or n in OWN or n in exported)}


def test_every_command_function_has_a_module_entry():
    commands = {name[len("cmd_"):] for name in OWN if name.startswith("cmd_")}
    assert commands == set(cli._COMMAND_MODULES)


@pytest.mark.parametrize("command", sorted(cli._COMMAND_MODULES))
def test_a_command_reads_only_what_its_modules_export(command):
    assert unbound(getattr(cli, f"cmd_{command}"), cli._COMMAND_MODULES[command]) == set()


def test_main_reads_only_what_every_command_binds():
    common = set.intersection(*(set(ms) for ms in cli._COMMAND_MODULES.values()))
    assert unbound(cli.main, common) == set()


def test_an_exported_name_shadows_no_builtin_and_no_cli_name():
    for module, names in EXPORTED.items():
        assert {n for n in names if hasattr(builtins, n) or n in OWN} == set(), module
