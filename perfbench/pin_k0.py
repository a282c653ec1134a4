"""Pin the k0-dense references into k0_pinned.json.

    python3 perfbench/pin_k0.py

The references are computed with sympy alone, never with critvals.  For each
pool member f the K0 eliminant is the squarefree part of the characteristic
polynomial of multiplication by f on Q[x, y]/<f_x, f_y> (Stickelberger: its
roots are the values of f at the critical points).  The quotient's monomial
basis and the normal forms come from sympy's grevlex Groebner basis.  For the
small-coefficient degree-4 members the script also runs sympy's lex
elimination of <f_x, f_y, t - f> and requires the same result; that
elimination does not finish in reasonable time at degree 5, which is why
references are pinned at all.  Takes a few minutes; the benchmark only reads
the output.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import sympy

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import PINNED, normalized, pool  # noqa: E402

X, Y, T = sympy.symbols("x y t")


def _coeffs(expr) -> dict[int, int]:
    sqf = sympy.Poly(sympy.sqf_part(sympy.Poly(expr, T).as_expr(), T), T)
    return normalized({d: Fraction(int(c.p), int(c.q)) for (d,), c in sqf.terms()})


def stickelberger(f) -> dict[int, int]:
    grads = [sympy.diff(f, X), sympy.diff(f, Y)]
    basis = sympy.groebner(grads, X, Y, order="grevlex")
    leads = [sympy.Poly(g, X, Y).monoms(order="grevlex")[0] for g in basis.exprs]
    bound = 1 + max(max(m) for m in leads)
    standard = [
        (i, j) for i in range(bound) for j in range(bound)
        if not any(i >= a and j >= b for a, b in leads)
    ]
    index = {m: k for k, m in enumerate(standard)}
    M = sympy.zeros(len(standard), len(standard))
    for col, (i, j) in enumerate(standard):
        _, rem = basis.reduce(sympy.expand(f * X**i * Y**j))
        for mono, c in sympy.Poly(rem, X, Y).terms():
            M[index[mono], col] = c
    return _coeffs(M.charpoly(T).as_expr())


def lex_elimination(f) -> dict[int, int]:
    basis = sympy.groebner([sympy.diff(f, X), sympy.diff(f, Y), T - f], X, Y, T, order="lex")
    pure = [e for e in basis.exprs if not e.free_symbols - {T}]
    return _coeffs(pure[0])


def main() -> int:
    members = []
    for k, (text, degree, fixed) in enumerate(pool()):
        f = sympy.parse_expr(text.replace("^", "**"), local_dict={"x": X, "y": Y})
        start = time.perf_counter()
        ref = stickelberger(f)
        method = "sympy: squarefree charpoly of multiplication by f modulo <f_x, f_y>"
        if degree == 4 and not fixed:
            if lex_elimination(f) != ref:
                print(f"member {k}: the two sympy methods disagree", file=sys.stderr)
                return 1
            method += "; equal to sympy lex elimination of <f_x, f_y, t - f>"
        print(f"member {k} degree {degree}: eliminant degree {max(ref)} in {time.perf_counter() - start:.1f} s", flush=True)
        members.append({"id": k, "degree": degree, "fixed": fixed, "text": text, "method": method,
                        "eliminant": {str(d): str(c) for d, c in sorted(ref.items())}})
    PINNED.write_text(json.dumps({"pool": members}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
