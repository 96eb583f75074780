"""tools/unraised.py: the finder of ``raise`` lines and the tracer that
records which lines ran."""

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


def test_the_finder_names_every_raise_statement_and_its_function():
    assert unraised.raise_lines(FIXTURE) == [
        (5, "<module>"),
        (11, "Box.check"),
        (16, "Box.check.inner"),
        (21, "Box.check"),
        (26, "fetch"),
    ]


def test_the_tracer_records_the_first_line_of_a_raise_that_ran(tmp_path):
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
    # the message's own line ran too, but only the statement's first line counts
    assert 12 in ran
    assert [line for line, _ in unraised.raise_lines(FIXTURE) if line in ran] == [11]
    assert unraised.traced(run, tmp_path / "elsewhere")[1] == {}


def test_the_lines_mode_lists_every_statement_that_never_ran(tmp_path):
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


def test_the_lines_flag_selects_the_lines_mode(tmp_path, monkeypatch, capsys):
    library = tmp_path / "src" / "pkg"
    library.mkdir(parents=True)
    (library / "fixture.py").write_text(FIXTURE)
    ran = {str((library / "fixture.py").resolve()): {2, 4, 8, 9, 10, 11, 25}}
    monkeypatch.setattr(unraised, "ROOT", tmp_path)
    monkeypatch.setattr(unraised, "LIBRARY", library)
    monkeypatch.setattr(unraised, "traced", lambda run, directory: (0, ran))
    monkeypatch.setattr(unraised.sys, "path", list(unraised.sys.path))
    monkeypatch.chdir(tmp_path)
    assert unraised.main(["--lines", "tests/test_x.py"]) == 0
    every = capsys.readouterr().out.splitlines()
    assert every[0] == "src/pkg/fixture.py:5: <module>: raise SystemExit(1)"
    assert every[-1] == "8 statements never executed"
    assert unraised.main([]) == 0
    raises = capsys.readouterr().out.splitlines()
    assert raises[-1] == "4 raise statements never executed"
