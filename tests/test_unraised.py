"""tools/unraised.py: the finder of statements, the tracer that records
which lines ran, and the list of statements none of whose lines ran."""

import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "unraised.py"
spec = importlib.util.spec_from_file_location("unraised", TOOL)
unraised = importlib.util.module_from_spec(spec)
spec.loader.exec_module(unraised)

FIXTURE = textwrap.dedent(
    '''\
    """raise in a docstring is no statement"""
    import sys

    if sys.argv is None:
        raise SystemExit(1)


    class Box:
        def check(self, x):
            if x < 0:
                raise ValueError(
                    f"negative {x}"
                )

            def inner():
                raise KeyError(x)  # raise KeyError in a comment

            try:
                inner()
            except KeyError:
                raise
            return x


    async def fetch():
        raise RuntimeError("never awaited")
    '''
)


def test_the_finder_names_every_statement_and_its_function():
    # no docstring, no except clause; a statement spans its lines (11-13),
    # a compound one its header only (8, 9, 10, 18)
    assert unraised.statements(FIXTURE) == [
        (2, 2, "<module>"),
        (4, 4, "<module>"),
        (5, 5, "<module>"),
        (8, 8, "<module>"),
        (9, 9, "Box"),
        (10, 10, "Box.check"),
        (11, 13, "Box.check"),
        (15, 15, "Box.check"),
        (16, 16, "Box.check.inner"),
        (18, 18, "Box.check"),
        (19, 19, "Box.check"),
        (21, 21, "Box.check"),
        (22, 22, "Box.check"),
        (25, 25, "<module>"),
        (26, 26, "fetch"),
    ]


def test_the_tracer_records_the_lines_that_ran(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    path = package / "fixture.py"
    path.write_text(FIXTURE)
    code = compile(FIXTURE, str(path), "exec")
    namespace: dict = {}
    exec(code, namespace)
    box = namespace["Box"]()

    def run():
        try:
            box.check(-1)
        except ValueError:
            return "refused"

    result, executed = unraised.traced(run, package)
    ran = executed[str(path.resolve())]
    assert result == "refused"
    # the raise ran, its message's own line too; the module body did not
    assert {10, 11, 12} <= ran
    assert ran.isdisjoint({2, 4, 5, 8, 15, 16, 18, 25, 26})
    assert unraised.traced(run, tmp_path / "elsewhere")[1] == {}


def test_the_list_names_every_statement_that_never_ran(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    code = compile(FIXTURE, str(path), "exec")
    namespace: dict = {}

    def run():
        exec(code, namespace)
        try:
            namespace["Box"]().check(-1)
        except ValueError:
            return "refused"

    assert unraised.traced(run, tmp_path)[0] == "refused"
    ran = unraised.traced(run, tmp_path)[1][str(path.resolve())]
    # the docstring is no statement; the def of inner and the try after the
    # raise never ran, nor did the other raise statements; a compound
    # statement counts by its header, so the class and check lines ran
    assert unraised.unexecuted(FIXTURE, ran) == [
        (5, "<module>"),
        (15, "Box.check"),
        (16, "Box.check.inner"),
        (18, "Box.check"),
        (19, "Box.check"),
        (21, "Box.check"),
        (22, "Box.check"),
        (26, "fetch"),
    ]
    assert unraised.unexecuted(FIXTURE, set(range(1, 27))) == []


def test_main_prints_the_list_and_its_count(tmp_path, monkeypatch, capsys):
    library = tmp_path / "src" / "pkg"
    library.mkdir(parents=True)
    (library / "fixture.py").write_text(FIXTURE)
    ran = {str((library / "fixture.py").resolve()): {2, 4, 8, 9, 10, 11, 25}}
    monkeypatch.setattr(unraised, "ROOT", tmp_path)
    monkeypatch.setattr(unraised, "LIBRARY", library)
    monkeypatch.setattr(unraised, "traced", lambda run, directory: (0, ran))
    monkeypatch.setattr(unraised.sys, "path", list(unraised.sys.path))
    monkeypatch.chdir(tmp_path)
    assert unraised.main(["tests/test_x.py"]) == 0
    listed = capsys.readouterr().out.splitlines()
    assert listed[0] == "src/pkg/fixture.py:5: <module>: raise SystemExit(1)"
    assert listed[-1] == "8 statements never executed"
    assert len(listed) == 9
