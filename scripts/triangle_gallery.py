#!/usr/bin/env python3
"""Print the gallery of bundled example specs: triangle, production data,
Hankel transform and Somos-4 fit for each JSON file under specs/.

Usage, with the package installed or on the path:
    PYTHONPATH=src python scripts/triangle_gallery.py
"""

import json
import pathlib
import sys

from riordan.amatrix import AMatrixSpec, solve_f
from riordan.core import bell_from_f, production_matrix, riordan_triangle
from riordan.hankel import hankel_transform, somos_fit
from riordan.series import Sequence, format_rational


def show(path: pathlib.Path) -> None:
    spec = AMatrixSpec.from_dict(json.loads(path.read_text()))
    pair = bell_from_f(solve_f(spec, 24).f)
    print(f"== {path.stem} ==")
    print("rows:", spec.to_dict()["rows"], "rho:", spec.to_dict()["rho"])
    for row in riordan_triangle(pair, 7).rows:
        print("   " + " ".join(format_rational(v) for v in row))
    prod = production_matrix(pair, 6)
    print("Z:", " ".join(format_rational(v) for v in prod.z.terms))
    print("A:", " ".join(format_rational(v) for v in prod.a.terms))
    h = hankel_transform(Sequence(pair.g.coeffs), 8)
    print("Hankel:", " ".join(format_rational(v) for v in h.terms))
    fit = somos_fit(h)
    if fit.kind == "Unique":
        print(f"Somos-4 fit: ({format_rational(fit.alpha)}, {format_rational(fit.beta)})")
    else:
        print(f"Somos-4 fit: {fit.kind}")
    print()


def main() -> int:
    specs_dir = pathlib.Path(__file__).resolve().parent.parent / "specs"
    for path in sorted(specs_dir.glob("*.json")):
        show(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
