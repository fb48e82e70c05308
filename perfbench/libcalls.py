"""Library jobs: circle computations the CLI does not expose.

    python perfbench/libcalls.py band-product LEFT.json RIGHT.json ROWS
    python perfbench/libcalls.py band-mu-norm OP.json

``band-product`` composes two band operators and takes a ROWS-row
finite section of the product; it prints the product and a digest of
the section.  ``band-mu-norm`` prints both routes of ``dt_mu_norm_sq``.
The library is reached through module attributes, so a tracer that
rebinds them sees every call.
"""

from __future__ import annotations

import json
import sys

from munorm import circle
from munorm import io as mio

from jobs import section_digest


def band_product(left: str, right: str, rows: str) -> dict:
    a = mio.bandop_from_obj(mio.load_json(left))
    b = mio.bandop_from_obj(mio.load_json(right))
    product = circle.dt_compose(a, b)
    n = int(rows)
    section = circle.finite_section(product, range(-n // 2, n // 2))
    return {"product": mio.bandop_to_obj(product), "section": section_digest(section)}


def band_mu_norm(path: str) -> dict:
    res = circle.dt_mu_norm_sq(mio.bandop_from_obj(mio.load_json(path)))
    return {"quadrature": res.quadrature, "closed_form": res.closed_form}


COMMANDS = {"band-product": band_product, "band-mu-norm": band_mu_norm}


def main(argv: list[str]) -> int:
    result = COMMANDS[argv[0]](*argv[1:])
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
