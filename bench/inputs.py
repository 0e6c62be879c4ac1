"""Seeded inputs built with numpy alone: relabellings, bases and actions.

The workloads turn these into bracelab objects.  Matrices over Z/p are
2x2 tuples (a, b, c, d) acting on column vectors.
"""
from __future__ import annotations

import numpy as np

Matrix = tuple[int, int, int, int]


def stream(seed: int, *labels: int) -> np.random.Generator:
    """An independent generator for one purpose within one seeded run."""
    return np.random.default_rng([seed, *labels])


def bijection_fixing_zero(n: int, rng: np.random.Generator) -> np.ndarray:
    return np.concatenate(([0], 1 + rng.permutation(n - 1)))


def relabel(table: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Push a table through sigma: new[s(a), s(b)] = s(old[a, b])."""
    inv = np.argsort(sigma)
    return sigma[table[np.ix_(inv, inv)]]


def invertible_matrix(dim: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """A uniformly drawn element of GL(dim, p)."""
    while True:
        m = rng.integers(0, p, size=(dim, dim))
        if inverse_mod(m, p) is not None:
            return m


def inverse_mod(m: np.ndarray, p: int) -> np.ndarray | None:
    """Inverse over Z/p by Gauss-Jordan elimination, or None if singular."""
    dim = m.shape[0]
    aug = np.concatenate([m % p, np.eye(dim, dtype=np.int64)], axis=1)
    for col in range(dim):
        nonzero = np.nonzero(aug[col:, col])[0]
        if not nonzero.size:
            return None
        piv = col + int(nonzero[0])
        aug[[col, piv]] = aug[[piv, col]]
        aug[col] = aug[col] * pow(int(aug[col, col]), -1, p) % p
        for row in range(dim):
            if row != col:
                aug[row] = (aug[row] - aug[row, col] * aug[col]) % p
    return aug[:, dim:]


def change_basis(consts: np.ndarray, basis: np.ndarray, p: int) -> np.ndarray:
    """Structure constants in the basis whose vectors are the rows of ``basis``.

    f_a f_b = sum T[a,i] T[b,j] c[i,j,l] e_l and e_l = sum Tinv[l,m] f_m.
    """
    return np.einsum("ai,bj,ijl,lm->abm", basis, basis, consts, inverse_mod(basis, p)) % p


def products_dict(consts: np.ndarray) -> dict[tuple[int, int], list[int]]:
    """Sparse form of structure constants, as algebras.make_algebra takes them."""
    dim = consts.shape[0]
    return {
        (i, j): [int(v) for v in consts[i, j]]
        for i in range(dim)
        for j in range(dim)
        if consts[i, j].any()
    }


# ---------------------------------------------------------------------------
# 2x2 matrix groups and the actions they induce


def mat_mul(x: Matrix, y: Matrix, p: int) -> Matrix:
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def matrix_group(gens: list[Matrix], p: int, rng: np.random.Generator) -> tuple[list[Matrix], np.ndarray]:
    """Closure of the generators, identity first, other elements shuffled.

    Returns the elements and the group table in that order.
    """
    ident = (1, 0, 0, 1)
    elems = [ident]
    seen = {ident}
    i = 0
    while i < len(elems):
        for g in gens:
            y = mat_mul(elems[i], g, p)
            if y not in seen:
                seen.add(y)
                elems.append(y)
        i += 1
    order = [0] + [1 + int(k) for k in rng.permutation(len(elems) - 1)]
    elems = [elems[k] for k in order]
    index = {m: k for k, m in enumerate(elems)}
    table = np.array([[index[mat_mul(x, y, p)] for y in elems] for x in elems])
    return elems, table


def linear_action(mats: list[Matrix], p: int) -> np.ndarray:
    """Action on C_p x C_p at index u * p + v (bracelab's abelian_group([p, p]))."""
    u, v = np.divmod(np.arange(p * p), p)
    rows = []
    for a, b, c, d in mats:
        rows.append(((a * u + b * v) % p) * p + (c * u + d * v) % p)
    return np.array(rows)


def heisenberg_action(mats: list[Matrix], p: int) -> np.ndarray:
    """Action on Heis(p) at index x p^2 + y p + z (bracelab's heisenberg_group).

    The product there is (x1 + x2, y1 + y2, z1 + z2 + x1 y2).  A matrix
    M = (a, b, c, d) acts by (x, y, z) -> (a x + b y, c x + d y,
    det(M) z + q(x, y)) with q = ac x^2 / 2 + bc x y + bd y^2 / 2, which
    is an automorphism for odd p, and M -> action is a homomorphism.
    """
    half = pow(2, -1, p)
    idx = np.arange(p**3)
    x, y, z = idx // (p * p), (idx // p) % p, idx % p
    rows = []
    for a, b, c, d in mats:
        det = (a * d - b * c) % p
        q = a * c * half * x * x + b * c * x * y + b * d * half * y * y
        rows.append(((a * x + b * y) % p) * p * p + ((c * x + d * y) % p) * p + (det * z + q) % p)
    return np.array(rows)


# C3 cycling the three involutions of C2 x C2 (bracelab's abelian_group([2, 2])):
# C2^2 x| C3 is A4.
A4_ACTION = [[0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]


def unit_action(m: int, unit: int, k: int) -> np.ndarray:
    """C_k acting on C_m by j: x -> unit^j x."""
    x = np.arange(m)
    return np.array([(pow(unit, j, m) * x) % m for j in range(k)])


def quaternion_table() -> np.ndarray:
    """Q8 as +-1, +-i, +-j, +-k at index 4 * (sign is -) + unit."""
    unit = [[(0, 0), (0, 1), (0, 2), (0, 3)],
            [(0, 1), (1, 0), (0, 3), (1, 2)],
            [(0, 2), (1, 3), (1, 0), (0, 1)],
            [(0, 3), (0, 2), (1, 1), (1, 0)]]
    table = np.empty((8, 8), dtype=np.int64)
    for s1 in range(2):
        for u1 in range(4):
            for s2 in range(2):
                for u2 in range(4):
                    s, u = unit[u1][u2]
                    table[4 * s1 + u1, 4 * s2 + u2] = 4 * (s1 ^ s2 ^ s) + u
    return table


def brace_file_text(add: np.ndarray, mult: np.ndarray) -> str:
    """A brace in bracelab's text format: header, additive table, blank, circle table."""
    def block(table: np.ndarray) -> str:
        return "\n".join(" ".join(str(int(v)) for v in row) for row in table)

    return f"brace {add.shape[0]}\n{block(add)}\n\n{block(mult)}\n"
