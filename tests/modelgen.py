"""Model-language texts of gauge theories in any base dimension n.

Test data for the report corpus (``test_corpus.py``): free Maxwell
electrodynamics and su(2) Yang-Mills theory, each in BV form with a
foliation at time 0, written out term by term over the diagonal metric
diag(1, -1, ..., -1).  ``maxwell(4)`` is exactly the text of the shipped
``maxwell.vtc``.

A field strength is F_mn = A_n,m - A_m,n for m < n, and the action sums
-1/2 eta^mm eta^nn F_mn^2 over those pairs.  In Yang-Mills the colour
index a runs over the cyclic triples (a, b, c) of su(2), and three signs
(s1, s2, s3) set the couplings: s1 in the field strength, F^a_mn gets
s1*(A^b_m A^c_n - A^c_m A^b_n); s2 in the covariant derivative of the
ghost, D_m C^a = C^a,m + s2*(A^b_m C^c - A^c_m C^b); s3 in the ghost term
s3*Cs_a C^b C^c.  The Hamiltonian is 1/2 E.E plus 1/2 the sum of the
spatial F_ij^2.
"""

# the cyclic index triples (a, b, c) of the su(2) structure constants
CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _sum(terms):
    """``+``/``-`` joined text of (sign, text) terms; a leading ``-`` only
    when the first term is negative."""
    out = ""
    for sign, text in terms:
        if out:
            out += " - " if sign < 0 else " + "
        elif sign < 0:
            out = "-"
        out += text
    return out


def _header(name, n):
    return (f"model {name}\n"
            f"dim {n}\n"
            f"metric {' '.join(['1'] + ['-1'] * (n - 1))}\n")


def _eta(m):
    return 1 if m == 0 else -1


def maxwell(n):
    """Maxwell electrodynamics in dimension ``n`` >= 2."""
    def F(m, k, lo=0):
        return f"(A[{k}],[{m - lo}] - A[{m}],[{k - lo}])"

    pairs = [(m, k) for m in range(n) for k in range(m + 1, n)]
    S = [(-_eta(m) * _eta(k), f"1/2*{F(m, k)}*{F(m, k)}") for m, k in pairs]
    gauss = _sum([(_eta(m), f"As[{m}],[{m}]") for m in range(n)])
    S.append((-1, f"C*({gauss})"))
    E2 = " + ".join(f"E[{i}]*E[{i}]" for i in range(n - 1))
    H = [(1, f"1/2*({E2})")]
    H += [(1, f"1/2*{F(i, j, 1)}*{F(i, j, 1)}")
          for i in range(1, n) for j in range(i + 1, n)]
    phase = [f"  phase A[0],[0] := lam\n"]
    phase += [f"  phase A[{i}],[0] := A[0],[{i - 1}] - E[{i - 1}]\n"
              for i in range(1, n)]
    return (_header("maxwell", n)
            + f"field A {{ parity 0, ghost 0, role field, shape {n} }}\n"
            "field C { parity 1, ghost 1, role field }\n"
            f"field As {{ parity 1, ghost -1, role antifield, shape {n}, "
            "conjugate A }\n"
            "field Cs { parity 0, ghost -2, role antifield, conjugate C }\n"
            "structure odd-BV\n"
            f"density S = ({_sum(S)}) ^ vol\n"
            "master S\n"
            "foliation {\n"
            "  time 0\n"
            "  map A -> A\n"
            "  map C -> C\n"
            "  map As -> As\n"
            "  map Cs -> Cs\n"
            f"  field E {{ parity 0, ghost 0, role source, shape {n - 1} }}\n"
            "  field lam { parity 0, ghost 0, role field }\n"
            "  field Cd { parity 1, ghost 1, role field }\n"
            + "".join(phase)
            + "  phase C,[0] := Cd\n"
            f"  density H = ({_sum(H)}) ^ vol\n"
            "}\n")


def _signed(s, text):
    return f" {'+' if s > 0 else '-'} ({text})"


def yang_mills(n, signs=(1, 1, 1)):
    """su(2) Yang-Mills theory in dimension ``n`` >= 2, with the coupling
    signs ``signs`` = (s1, s2, s3) of the module docstring."""
    s1, s2, s3 = signs

    def F(m, k, lo=0):
        # F^a_mk for every colour a, derivative indices shifted down by lo
        return [f"(A[{k} {a}],[{m - lo}] - A[{m} {a}],[{k - lo}]"
                + _signed(s1, f"A[{m} {b}]*A[{k} {c}] - A[{m} {c}]*A[{k} {b}]")
                + ")" for a, b, c in CYCLIC]

    pairs = [(m, k) for m in range(n) for k in range(m + 1, n)]
    S = [(-_eta(m) * _eta(k), f"1/2*{f}*{f}") for m, k in pairs for f in F(m, k)]
    S += [(_eta(m), f"(C[{a}],[{m}]"
           + _signed(s2, f"A[{m} {b}]*C[{c}] - A[{m} {c}]*C[{b}]")
           + f")*As[{m} {a}]") for m in range(n) for a, b, c in CYCLIC]
    S += [(s3, f"Cs[{a}]*C[{b}]*C[{c}]") for a, b, c in CYCLIC]
    E2 = " + ".join(f"E[{i} {a}]*E[{i} {a}]" for i in range(n - 1)
                    for a in range(3))
    H = [(1, f"1/2*({E2})")]
    H += [(1, f"1/2*{f}*{f}") for i in range(1, n) for j in range(i + 1, n)
          for f in F(i, j, 1)]
    phase = [f"  phase A[0 {a}],[0] := lam[{a}]\n" for a in range(3)]
    phase += [f"  phase A[{i} {a}],[0] := A[0 {a}],[{i - 1}]"
              + _signed(s1, f"A[{i} {b}]*A[0 {c}] - A[{i} {c}]*A[0 {b}]")
              + f" - E[{i - 1} {a}]\n"
              for i in range(1, n) for a, b, c in CYCLIC]
    phase += [f"  phase C[{a}],[0] := Cd[{a}]\n" for a in range(3)]
    return (_header(f"ym{n}", n)
            + f"field A {{ parity 0, ghost 0, role field, shape {n} 3, "
            "slots base internal }\n"
            "field C { parity 1, ghost 1, role field, shape 3, "
            "slots internal }\n"
            f"field As {{ parity 1, ghost -1, role antifield, shape {n} 3, "
            "conjugate A, slots base internal }\n"
            "field Cs { parity 0, ghost -2, role antifield, shape 3, "
            "conjugate C, slots internal }\n"
            "algebra { constants su2, form 1 1 1 }\n"
            "structure odd-BV\n"
            f"density S = ({_sum(S)}) ^ vol\n"
            "master S\n"
            "foliation {\n"
            "  time 0\n"
            "  map A -> A\n"
            "  map C -> C\n"
            "  map As -> As\n"
            "  map Cs -> Cs\n"
            f"  field E {{ parity 0, ghost 0, role source, shape {n - 1} 3, "
            "slots base internal }\n"
            "  field lam { parity 0, ghost 0, role field, shape 3, "
            "slots internal }\n"
            "  field Cd { parity 1, ghost 1, role field, shape 3, "
            "slots internal }\n"
            + "".join(phase)
            + f"  density H = ({_sum(H)}) ^ vol\n"
            "}\n")
