"""CLI transcript: fixed commands with their stdout, stderr and exit code.

``tests/golden/cli.txt`` records each command as a ``$ argv`` line, then its
stdout, then its stderr with every line prefixed ``2> ``, then ``exit <code>``.
The test replays every command in process through ``cli.main``, in a
directory holding the small tied CSV that ``_write_tied_csv`` writes, which
the ``estimate`` commands read by its relative name.  Regenerate the file with

    PYTHONPATH=src python tests/test_transcript.py

which rewrites it byte for byte from the current tree.  A change that moves
any output regenerates the transcript and lists the changed commands.
"""

import contextlib
import io
import os
import re
import tempfile
from pathlib import Path

from qtcorr.cli import main
from qtcorr.tables import TABLE_IDS

TRANSCRIPT = Path(__file__).resolve().with_name("golden") / "cli.txt"

_COPULAS = (
    "independence", "fgm:0.5", "gb:1", "amh:0.5", "gaussian:0.6", "frechet-upper",
    "frechet-lower",
)
_MARGINS = ("--fx", "weibull:1:2", "--gy", "exp:1", "--h", "logistic:0:1", "--all")
_MC = ("--method", "mc", "--samples", "50000", "--seed", "7")  # small, to keep the replay cheap
_PARETO = ("corr", "--copula", "fgm:0.5", "--fx", "pareto:0.9", "--gy", "exp:1", "--h")
_ESTIMATE = ("estimate", "--input", "tied.csv")

COMMANDS = (
    *(("table", t) for t in TABLE_IDS),
    ("table", "symmetric", "--format", "json"),
    *(
        ("corr", "--copula", c, *_MARGINS, *form)
        for c in _COPULAS
        for form in ((), ("--format", "json"), _MC)
    ),
    (*_PARETO, "pareto:0.2"),  # finite, but the tail collar exceeds abs_tol
    (*_PARETO, "pareto:0.05"),  # divergent
    ("corr", "--copula", "fgm:0.5", "--fx", "exp:1", "--gy", "exp:1", "--h", "exp:1",
     "--quad-tol", "inf"),
    ("decompose", "--components", "exp:1,weibull:1:2", "--g", "exp:1", "--samples", "50000",
     "--seed", "7"),
    *((*_ESTIMATE, "--named", *named) for named in (("pearson",), ("gini",), ("rho_t",))),
    (*_ESTIMATE, "--named", "egini", "--nu", "3"),
    (*_ESTIMATE, "--h", "logistic:0:1", "--format", "json"),
)


def _write_tied_csv(directory: Path) -> None:
    """Forty pairs under a header: x distinct, y whole numbers with ties."""
    rows = [(i * 37 % 41 / 8, (i * 37 % 41 + 3 * (i * 11 % 13)) // 6) for i in range(1, 41)]
    (directory / _ESTIMATE[2]).write_text("x,y\n" + "".join(f"{x},{y}\n" for x, y in rows))


def _record(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    stderr = "".join(f"2> {line}\n" for line in err.getvalue().splitlines())
    return f"$ {' '.join(argv)}\n{out.getvalue()}{stderr}exit {code}\n"


def _blocks(text: str) -> list[str]:
    return re.split(r"(?m)^(?=\$ )", text)[1:]


def test_every_command_replays_its_transcript(tmp_path, monkeypatch):
    _write_tied_csv(tmp_path)
    monkeypatch.chdir(tmp_path)
    golden = _blocks(TRANSCRIPT.read_text())
    assert [b.partition("\n")[0] for b in golden] == [f"$ {' '.join(a)}" for a in COMMANDS]
    for argv, want in zip(COMMANDS, golden):
        assert _record(argv) == want


if __name__ == "__main__":
    TRANSCRIPT.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        _write_tied_csv(Path(scratch))
        os.chdir(scratch)
        TRANSCRIPT.write_text("".join(map(_record, COMMANDS)))
