"""The proof that a_n and b_n vanish for every n, checked in integers.

A creative-telescoping certificate (Zeilberger, "The method of creative
telescoping", J. Symbolic Comput. 1991; Petkovsek, Wilf and Zeilberger,
A = B, ch. 6).  For e = 1 (a_n, the B8/B17 sums) and e = 2 (b_n, B9/B18) let

    T(m,k;eps) = (-1)^k C(2k,k)^e (m-k+1)_k (m+1+eps)_k / ((2k)! 2^(e k)),   U(m;eps) = sum_k T(m,k;eps).

At eps = 0, U is u_m = identities._binomial_sum(m, e), and its eps-derivative
is w_m = sum_k t_k (H_{m+k} - H_m), the B17 or B18 left side.  With c0, c1,
c2 from TELESCOPERS and G(m,k) = g k^(e+1) T(m+2,k) / ((m+2) (m+1+eps+k) (m+2+eps+k)),
g from G_NUMERATOR, the summand relation

    c0 T(m,k) + c1 T(m+1,k) + c2 T(m+2,k) = G(m,k+1) - G(m,k)

over T(m+2,k) (not 0 for k <= m+2), cleared of denominators, is a polynomial
identity in (m, k, eps): zero on a grid one point larger in each variable
than its degree bound read from the tables, it is zero.  G(m,0) = 0 and
G(m,m+3) = 0, so summing over k = 0..m+2 gives c0 U(m) + c1 U(m+1) + c2 U(m+2) = 0
for every m >= 0.

c1 has no eps^0 term and c2(m,0) > 0, so the eps^0 part and u_1 = 0 make
u_m = 0 at odd m.  The eps^1 part at even m is solved by w*_m = u_m h(m), with
h = (H_m - H_{m/2})/2 for e = 1 and (3 H_m - 2 H_{m/2})/2 for e = 2 (the
B17/B18 right side over the B8/B9 one), because
Q = dc0 - dc2 c0/c2 - c0 (h(m+2) - h(m)) is 0 as a rational function of m
(dc is the eps-derivative at 0).  So w - w* solves c0 d_m + c2 d_{m+2} = 0
from w_0 = 0, and is 0 at even m: a_n = 2 (w_2n - w*_2n) = 0, and b_n likewise.
The initial values u_0 = 1, u_1 = 0 and w_0 = 0 come from the direct sums
(identities.check_recurrences).
"""

#: c0, c1 and c2 for e = 1 and 2, row i holding the coefficients of m^i eps^j by j
TELESCOPERS = {
    1: (
        ((8, 10, 2), (20, 16, 2), (16, 6, 0), (4, 0, 0)),  # 2 (m+1) (m+1+eps) (2m+4+eps)
        ((0, 0, 3, 1), (0, 0, 2, 0)),  # eps^2 (2m+3+eps)
        ((16, 16, 4), (32, 20, 2), (20, 6, 0), (4, 0, 0)),  # 2 (m+2) (m+2+eps) (2m+2+eps)
    ),
    2: (
        # -2 (m+1) (m+1+eps)^2 (2m+4+eps)
        ((-8, -18, -12, -2), (-28, -46, -20, -2), (-36, -38, -8, 0), (-20, -10, 0, 0), (-4, 0, 0, 0)),
        # eps (2m+3+eps) (2 (m+1) (m+2) + eps (2m+3))
        ((0, 12, 13, 3), (0, 26, 18, 2), (0, 18, 6, 0), (0, 4, 0, 0)),
        # 2 (m+2)^2 (m+2+eps) (2m+2+eps)
        ((32, 32, 8), (80, 56, 8), (72, 32, 2), (28, 6, 0), (4, 0, 0)),
    ),
}
#: g for both e, in the same layout: -2 (2m+2+eps) (2m+3+eps) (2m+4+eps) (m+2+eps)
G_NUMERATOR = (
    (-96, -152, -88, -22, -2),
    (-256, -300, -114, -14, 0),
    (-248, -192, -36, 0, 0),
    (-104, -40, 0, 0, 0),
    (-16, 0, 0, 0, 0),
)
#: The degrees in (m, eps) that each term of cleared_relation adds to its table's: c0, c1, c2, g
COFACTOR_DEGREES = ((4, 2), (4, 2), (4, 2), (3, 1))


def _degree(coefficients) -> int:
    """The index of the last nonzero coefficient, 0 if there is none."""
    return max((i for i, c in enumerate(coefficients) if c), default=0)


def _at(coefficients, x: int) -> int:
    """The polynomial with these coefficients, lowest first, at x."""
    value = 0
    for c in reversed(coefficients):
        value = value * x + c
    return value


def cleared_relation(e: int, m: int, k: int, eps: int, c0: int, c1: int, c2: int, g: int) -> int:
    """c0 T(m,k) + c1 T(m+1,k) + c2 T(m+2,k) - G(m,k+1) + G(m,k) over T(m+2,k), times
    2 (m+1) (m+2) (m+1+eps+k) (m+2+eps+k), from the tables' values at (m, eps): 0 where it holds."""
    a, b = m + 1 + eps + k, m + 2 + eps + k
    lhs = (c0 * (m + 1 - k) * (m + 1 + eps) + c1 * (m + 1) * a) * (m + 2 - k) * (m + 2 + eps)
    lhs += c2 * (m + 1) * (m + 2) * a * b
    return 2 * lhs + (m + 1) * g * ((2 * k + 1) ** (e - 1) * (m + 2 - k) * a + 2 * k ** (e + 1))


def relation_degrees(e: int, tables) -> tuple[int, int, int]:
    """Bounds on the degrees in (m, k, eps) of each term of cleared_relation, from the tables' (c0, c1, c2, g)."""
    d_m = max(_degree([any(row) for row in t]) + dm for t, (dm, _) in zip(tables, COFACTOR_DEGREES))
    d_eps = max(max(map(_degree, t)) + de for t, (_, de) in zip(tables, COFACTOR_DEGREES))
    return d_m, max(2, e + 1), d_eps


def first_residual(e: int, weight: tuple[int, int, int]) -> tuple[int, int] | None:
    """Check the certificate for e, whose vanishing sum has the harmonic weight
    (c_run, c_n, c_half); the m and the nonzero residual of the first step that
    fails, or None.  The initial values are the caller's."""
    tables = (*TELESCOPERS[e], G_NUMERATOR)
    c0, c1, c2, _ = tables
    # c1 has no eps^0 term, so the eps^0 part is u's recurrence; c2(m, 0) > 0 at every m >= 0,
    # as its coefficients are >= 0 and its constant >= 1: one below its bound fails by the shortfall
    u_c0, u_c1, u_c2 = ([row[0] for row in t] for t in (c0, c1, c2))
    for m in range(_degree(u_c1) + 1):
        if _at(u_c1, m):
            return m, _at(u_c1, m)
    for i, c in enumerate(u_c2):
        if c < (i == 0):
            return i, c - (i == 0)
    # the cleared relation is a polynomial of these degrees: zero on the grid, it is zero
    d_m, d_k, d_eps = relation_degrees(e, tables)
    for m in range(d_m + 1):
        for eps in range(d_eps + 1):
            values = [_at([_at(row, eps) for row in table], m) for table in tables]
            for k in range(d_k + 1):
                residual = cleared_relation(e, m, k, eps, *values)
                if residual:
                    return m, residual
    # w* = u h solves the eps^1 relation at even m: Q, cleared of c2 (m+1) (m+2) c_run, is zero
    c_run, c_n, c_half = weight
    w_c0, w_c2 = [row[1] for row in c0], [row[1] for row in c2]
    d_q = max(
        2 + _degree(w_c0) + _degree(u_c2), 2 + _degree(w_c2) + _degree(u_c0), 1 + _degree(u_c0) + _degree(u_c2)
    )
    for m in range(d_q + 1):
        a0, a2 = _at(u_c0, m), _at(u_c2, m)
        residual = c_run * (m + 1) * (m + 2) * (_at(w_c0, m) * a2 - _at(w_c2, m) * a0)
        residual += a0 * a2 * ((c_run + c_n) * (2 * m + 3) + 2 * c_half * (m + 1))
        if residual:
            return m, residual
    return None
