"""Tests for the Overlog REPL (scripted, no TTY needed)."""

import pytest

from repro.overlog.repl import Repl, _coerce

PROGRAM = """
program demo;
define(link, keys(0, 1), {Str, Str});
define(path, keys(0, 1), {Str, Str});
event(out, 2);
path(X, Y) :- link(X, Y);
path(X, Z) :- link(X, Y), path(Y, Z);
out(@X, Y) :- link(X, Y), X != "repl";
"""


@pytest.fixture()
def repl():
    return Repl(PROGRAM)


class TestCoerce:
    def test_types(self):
        assert _coerce("42") == 42
        assert _coerce("2.5") == 2.5
        assert _coerce("true") is True
        assert _coerce("false") is False
        assert _coerce("nil") is None
        assert _coerce("hello") == "hello"
        assert _coerce('"quoted"') == "quoted"


class TestCommands:
    def test_insert_and_tick_and_dump(self, repl):
        repl.execute("insert link a b")
        repl.execute("insert link b c")
        out = repl.execute("tick")
        assert "derivations" in out
        dump = repl.execute("dump path")
        assert "path('a', 'c')" in dump

    def test_sends_reported(self, repl):
        repl.execute("insert link a b")
        out = repl.execute("tick")
        assert "send -> a: out" in out

    def test_install(self, repl):
        repl.execute("install link x y")
        repl.execute("tick")
        assert "('x', 'y')" in repl.execute("dump link")

    def test_tables_and_rules_and_strata(self, repl):
        tables = repl.execute("tables")
        assert "link" in tables and "path" in tables
        rules = repl.execute("rules")
        assert ":-" in rules
        strata = repl.execute("strata")
        assert "stratum 0" in strata

    def test_empty_dump(self, repl):
        assert "(empty)" in repl.execute("dump path")

    def test_unknown_command(self, repl):
        assert "unknown command" in repl.execute("frobnicate")

    def test_error_surfaced_not_raised(self, repl):
        out = repl.execute("dump nonexistent")
        assert out.startswith("error:")

    def test_help(self, repl):
        assert "insert" in repl.execute("help")

    def test_blank_line(self, repl):
        assert repl.execute("") == ""

    def test_why_command(self, repl):
        repl.execute("insert link a b")
        repl.execute("insert link b c")
        repl.execute("tick")
        out = repl.execute("\\why path a c")
        assert "why" in out and "external input" in out

    def test_whynot_command_with_unknown(self, repl):
        repl.execute("insert link a b")
        repl.execute("tick")
        out = repl.execute("\\whynot path c ?")
        assert "why not path" in out and "fails at" in out

    def test_profile_command(self, repl):
        repl.execute("insert link a b")
        repl.execute("tick")
        out = repl.execute("\\profile")
        assert "hot rules" in out

    def test_explain_command(self, repl):
        repl.execute("insert link a b")
        repl.execute("tick")
        out = repl.execute("\\explain")
        assert "fires:" in out

    def test_src_command_dumps_generated_source(self, repl):
        out = repl.execute("\\src")
        assert "def _" in out  # codegen tier is the default
        one_rule = repl.execute("\\src demo_r2")
        assert "rule demo_r2" in one_rule and "def _demo_r2_" in one_rule
        assert "rule demo_r1" not in one_rule
        assert "no generated source" in repl.execute("\\src nosuchrule")

    def test_commands_work_without_backslash(self, repl):
        repl.execute("insert link a b")
        repl.execute("tick")
        assert "hot rules" in repl.execute("profile")

    def test_boomfs_program_loads(self):
        from repro.sim.node import program_source

        repl = Repl(program_source("boomfs/programs/boomfs_master.olg"))
        repl.execute("install file 0 -1 \"\" true")
        repl.execute("install repfactor 2")
        repl.execute("install dn_timeout 3000")
        repl.execute("insert request 1 client mkdir /x nil")
        repl.execute("tick 1")
        assert "('/x', 1)" in repl.execute("dump fqpath")
