"""The whole plain-text output of a full pipeline run, pinned literally.

Each expectation was recorded once and is not regenerated by the code under
test: any change to what the pipeline computes or how it renders shows here.
The three specs between them cover every Somos-fit outcome the renderer
prints (InsufficientData, Unique, Family), a J-fraction that terminates
early, and a b-file comparison.
"""

import pathlib

import pytest

from riordan import cli

SPECS = pathlib.Path(__file__).parent.parent / "specs"
FLAGS = (
    "--triangle", "--production", "--aseq", "--zseq", "--hankel", "--somos-fit",
    "--jfraction", "--order", "16", "--rows", "6",
)

PASCAL = """\
column: 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1
triangle:
  1
  1 1
  1 2 1
  1 3 3 1
  1 4 6 4 1
  1 5 10 10 5 1
production:
  1 1 0 0 0 0
  0 1 1 0 0 0
  0 0 1 1 0 0
  0 0 0 1 1 0
  0 0 0 0 1 1
  0 0 0 0 0 1
Z: 1 0 0 0 0 0
A: 1 1 0 0 0 0
A-sequence: 1 1 0 0 0 0 0 0 0 0 0 0 0 0
Z-sequence: 1 0 0 0 0 0 0 0 0 0 0 0 0 0
hankel: 1 0 0 0 0 0
somos fit: InsufficientData
J-fraction b:      1
J-fraction lambda: 0
J-fraction terminated early (a lambda vanished)
"""

A171416 = """\
column: 1 1 2 3 7 13 31 65 156 351 849 1993 4866 11733 28921
triangle:
  1
  1 1
  2 2 1
  3 5 3 1
  7 10 9 4 1
  13 24 22 14 5 1
production:
  1 1 0 0 0 0
  1 1 1 0 0 0
  -1 1 1 1 0 0
  2 -1 1 1 1 0
  -3 2 -1 1 1 1
  3 -3 2 -1 1 1
Z: 1 1 -1 2 -3 3
A: 1 1 1 -1 2 -3
A-sequence: 1 1 1 -1 2 -3 3 1 -15 47 -98 133 -17 -579
Z-sequence: 1 1 -1 2 -3 3 1 -15 47 -98 133 -17 -579 2204
hankel: 1 1 2 3 7 23
somos fit: Unique alpha=1 beta=1
J-fraction b:      1 0 1/2 5/6 -4/21 145/161
J-fraction lambda: 1 2 3/4 14/9 69/49
b-file check: match on 5 terms
"""

MOTZKIN = """\
column: 1 1 2 4 9 21 51 127 323 835 2188 5798 15511 41835 113634
triangle:
  1
  1 1
  2 2 1
  4 5 3 1
  9 12 9 4 1
  21 30 25 14 5 1
production:
  1 1 0 0 0 0
  1 1 1 0 0 0
  0 1 1 1 0 0
  0 0 1 1 1 0
  0 0 0 1 1 1
  0 0 0 0 1 1
Z: 1 1 0 0 0 0
A: 1 1 1 0 0 0
A-sequence: 1 1 1 0 0 0 0 0 0 0 0 0 0 0
Z-sequence: 1 1 0 0 0 0 0 0 0 0 0 0 0 0
hankel: 1 1 1 1 1 1
somos fit: Family 1*alpha + 1*beta = 1
J-fraction b:      1 1 1 1 1 1
J-fraction lambda: 1 1 1 1 1
"""


@pytest.mark.parametrize(
    "spec,want,bfile",
    [
        ("pascal.json", PASCAL, None),
        ("a171416.json", A171416, "0 1\n1 1\n2 2\n3 3\n4 7\n"),
        ("motzkin.json", MOTZKIN, None),
    ],
)
def test_full_pipeline_plain_output_is_pinned(spec, want, bfile, tmp_path, capsys):
    argv = ["pipeline", str(SPECS / spec), *FLAGS]
    if bfile is not None:
        path = tmp_path / "b.txt"
        path.write_text(bfile)
        argv += ["--bfile", str(path)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == want
