"""Independent checks on bracelab outputs, written with numpy alone.

Nothing here imports bracelab.  Every function recomputes what it needs
from raw tables, structure constants or closed forms, and returns a list
of error strings; an empty list means the output passed.  Tables are
``table[a, b] = a * b`` on the indices 0..n-1 with identity 0, the
convention bracelab uses.
"""
from __future__ import annotations

import itertools
from collections import Counter
from math import lcm
from typing import Optional, Sequence

import numpy as np

# |Aut(G)| of the census groups, from their standard structure
# (for example Aut(Q8) = S4, Aut(A4) = S4, Aut(C2^3) = GL(3,2),
# |Aut(C4 x C4)| = 96 and |Aut(C2^2 x C4)| = 192).
AUT_ORDERS = {
    "C4": 2, "C2^2": 6, "C6": 2, "S3": 6,
    "C8": 4, "C2xC4": 8, "C2^3": 168, "D4": 8, "Q8": 24,
    "C12": 4, "C2xC6": 12, "D6": 12, "A4": 24, "Dic3": 12,
    "C16": 8, "C2xC8": 16, "C4xC4": 96, "C2^2xC4": 192,
}

# Guarnieri & Vendramin, Math. Comp. 86 (2017): s(n) skew
# braces and b(n) braces (abelian additive group) of order n, up to
# isomorphism.
SKEW_BRACE_COUNTS = {4: (4, 4), 6: (6, 2), 8: (47, 27), 12: (38, 10)}


# ---------------------------------------------------------------------------
# groups


def inverses(table: np.ndarray) -> np.ndarray:
    return np.argmax(table == 0, axis=1)


def tables_errors(label: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    if got.shape != want.shape:
        return [f"{label} table has shape {got.shape}, expected {want.shape}"]
    bad = np.argwhere(got != want)
    if bad.size:
        a, b = (int(v) for v in bad[0])
        return [f"{label} table differs at {len(bad)} entries, first ({a}, {b})"]
    return []


def element_orders(table: np.ndarray) -> np.ndarray:
    n = table.shape[0]
    idx = np.arange(n)
    power = idx.copy()
    orders = np.where(idx == 0, 1, 0)
    k = 1
    while (orders == 0).any() and k <= n:
        k += 1
        power = table[power, idx]
        orders[(power == 0) & (orders == 0)] = k
    return orders


def group_errors(label: str, table: np.ndarray) -> list[str]:
    """Identity 0, bijective rows and columns, associativity (small tables)."""
    n = table.shape[0]
    idx = np.arange(n)
    if not (np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx)):
        return [f"{label}: 0 is not the identity"]
    if not (np.sort(table, axis=1) == idx).all() or not (np.sort(table, axis=0) == idx[:, None]).all():
        return [f"{label}: a row or column is not a bijection"]
    left = table[table[:, :, None], idx[None, None, :]]    # (a*b)*c
    right = table[idx[:, None, None], table[None, :, :]]   # a*(b*c)
    if not np.array_equal(left, right):
        return [f"{label}: not associative"]
    return []


def gl_order(d: int, p: int) -> int:
    out = 1
    for i in range(d):
        out *= p**d - p**i
    return out


def closed_form_aut_order(table: np.ndarray) -> Optional[int]:
    """|Aut| for C_p^d (|GL(d,p)|) and Heis(p), p odd (p^2 |GL(2,p)|).

    Returns None for any other group.
    """
    n = table.shape[0]
    orders = element_orders(table)
    rest = set(orders[1:].tolist())
    if len(rest) != 1:
        return None
    p = rest.pop()
    if any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        return None
    d = round(np.log(n) / np.log(p))
    if p**d != n:
        return None
    if np.array_equal(table, table.T):
        return gl_order(d, p)
    if d == 3 and p % 2 == 1:
        return p * p * gl_order(2, p)
    return None


def all_bijections_fixing_zero(n: int) -> np.ndarray:
    return np.array([(0,) + rest for rest in itertools.permutations(range(1, n))], dtype=np.int64)


def preserves(images: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``images`` that are homomorphisms of ``table``."""
    lhs = images[:, table]                                     # [k, a, b] -> f(a*b)
    rhs = table[images[:, :, None], images[:, None, :]]        # [k, a, b] -> f(a)*f(b)
    return (lhs == rhs).all(axis=(1, 2))


def brute_force_aut_orders(add: np.ndarray, mult: np.ndarray) -> tuple[int, int, int]:
    """(|Aut(add)|, |Aut(mult)|, |Aut of the brace|) by trying every bijection.

    Only for order <= 8 (5040 bijections).
    """
    n = add.shape[0]
    if n > 8:
        raise ValueError("brute force is limited to order <= 8")
    cands = all_bijections_fixing_zero(n)
    a = preserves(cands, add)
    m = preserves(cands, mult)
    return int(a.sum()), int(m.sum()), int((a & m).sum())


def automorphism_list_errors(table: np.ndarray, auts: np.ndarray, expected: int) -> list[str]:
    """``auts`` must be exactly ``expected`` distinct automorphisms of the table."""
    errors = []
    n = table.shape[0]
    if auts.shape != (expected, n):
        return [f"automorphism list has shape {auts.shape}, expected ({expected}, {n})"]
    if not (np.sort(auts, axis=1) == np.arange(n)).all():
        errors.append("an automorphism is not a bijection")
    if not preserves(auts, table).all():
        errors.append("a listed map does not preserve the table")
    if len({row.tobytes() for row in auts}) != expected:
        errors.append("automorphism list repeats a map")
    return errors


# ---------------------------------------------------------------------------
# the brace law


def law_rows(add: np.ndarray, mult: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of a o (b * c) = (a o b) * a^-1 * (a o c) for one outer a."""
    inv = inverses(add)
    lhs = mult[a][add]
    rhs = add[add[mult[a], inv[a]][:, None], mult[a][None, :]]
    return lhs, rhs


def first_law_failure(add: np.ndarray, mult: np.ndarray) -> Optional[tuple[int, int, int]]:
    """Lexicographically first (a, b, c) where the law fails, or None."""
    for a in range(add.shape[0]):
        lhs, rhs = law_rows(add, mult, a)
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            return a, int(bad[0][0]), int(bad[0][1])
    return None


def law_holds_batch(add: np.ndarray, mults: Sequence[np.ndarray], chunk: int = 128) -> np.ndarray:
    """For circle tables on one additive table, whether each is a brace.

    Works through the tables in chunks to keep the check's memory small.
    """
    inv = inverses(add)
    n = add.shape[0]
    ok = np.ones(len(mults), dtype=bool)
    for lo in range(0, len(mults), chunk):
        block = np.stack(mults[lo:lo + chunk])
        rows = np.arange(block.shape[0])[:, None, None]
        for a in range(n):
            ma = block[:, a, :]                               # [k, x] -> a o x
            lhs = ma[rows, add[None, :, :]]                   # a o (b * c)
            u = add[ma, inv[a]]                               # (a o b) * a^-1
            rhs = add[u[:, :, None], ma[:, None, :]]
            ok[lo:lo + chunk] &= (lhs == rhs).all(axis=(1, 2))
    return ok


def witness_errors(add: np.ndarray, mult: np.ndarray, witness: tuple[int, int, int, int, int]) -> list[str]:
    """The reported triple fails with the reported sides and no earlier triple fails."""
    a, b, c, left, right = witness
    lhs, rhs = law_rows(add, mult, a)
    errors = []
    if lhs[b, c] == rhs[b, c]:
        errors.append(f"reported witness {(a, b, c)} satisfies the law")
    elif (int(lhs[b, c]), int(rhs[b, c])) != (left, right):
        errors.append(f"witness sides {(left, right)} differ from {(int(lhs[b, c]), int(rhs[b, c]))}")
    for earlier in range(a):
        el, er = law_rows(add, mult, earlier)
        if not np.array_equal(el, er):
            errors.append(f"outer element {earlier} < {a} already fails")
            return errors
    bad = np.argwhere(lhs != rhs)
    if bad.size and (int(bad[0][0]), int(bad[0][1])) < (b, c):
        errors.append(f"triple {(a, int(bad[0][0]), int(bad[0][1]))} fails before the witness")
    return errors


# ---------------------------------------------------------------------------
# radical rings


def digit_matrix(n: int, p: int, dim: int) -> np.ndarray:
    """Big-endian base-p digits of 0..n-1, one row per index."""
    idx = np.arange(n)
    return np.stack([(idx // p ** (dim - 1 - i)) % p for i in range(dim)], axis=1)


def radical_tables(p: int, consts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Addition and circle a + b + ab of a vector algebra, indexed by digits.

    Built one row at a time, so that checking a 729-element brace does not
    raise the worker's peak memory above what bracelab itself used.
    """
    dim = consts.shape[0]
    n = p**dim
    digits = digit_matrix(n, p, dim)
    weights = p ** np.arange(dim - 1, -1, -1)
    left = np.einsum("xi,ijl->xjl", digits, consts)          # a -> (b -> ab) as a matrix
    add = np.empty((n, n), dtype=np.int64)
    circle = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        sums = (digits[x] + digits) % p
        add[x] = sums @ weights
        circle[x] = ((sums + digits @ left[x]) % p) @ weights
    return add, circle


def cyclic_tables(p: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    n = p**3
    idx = np.arange(n)
    add = (idx[:, None] + idx[None, :]) % n
    return add, (add + p**r * idx[:, None] * idx[None, :]) % n


def cubes_vanish(p: int, consts: np.ndarray) -> bool:
    """A^3 = 0: every (e_i e_j) e_k is zero."""
    triple = np.einsum("ijm,mkl->ijkl", consts, consts) % p
    return not triple.any()


def square_zero_set(p: int, basis: np.ndarray, generators: int = 3) -> set[int]:
    """Indices whose catalog coordinates have at most one nonzero generator entry.

    ``basis`` holds the algebra's basis vectors as rows, in catalog
    coordinates; index digits are coordinates in that basis.
    """
    dim = basis.shape[0]
    coords = (digit_matrix(p**dim, p, dim) @ basis) % p
    nonzero = (coords[:, :generators] != 0).sum(axis=1)
    return {int(i) for i in np.nonzero(nonzero <= 1)[0]}


# ---------------------------------------------------------------------------
# exact factorizations


def semidirect_table(h: np.ndarray, j: np.ndarray, action: np.ndarray) -> np.ndarray:
    """H x| J at index h * |J| + j: (h1, j1)(h2, j2) = (h1 * action[j1](h2), j1 j2)."""
    nh, nj = h.shape[0], j.shape[0]
    hh = np.repeat(np.arange(nh), nj)
    jj = np.tile(np.arange(nj), nh)
    return h[hh[:, None], action[jj[:, None], hh[None, :]]] * nj + j[jj[:, None], jj[None, :]]


def factorization_circle(add: np.ndarray, left: Sequence[int], right: Sequence[int]) -> np.ndarray:
    """x o y = a * y * b where x = a b, a in ``left``, b in ``right``."""
    n = add.shape[0]
    a_of = np.full(n, -1)
    b_of = np.full(n, -1)
    for a in left:
        for b in right:
            x = add[a, b]
            a_of[x], b_of[x] = a, b
    if (a_of < 0).any():
        raise ValueError("left * right does not cover the group")
    return add[add[a_of], b_of[:, None]]


def factor_order_multiset(add: np.ndarray, left: Sequence[int], right: Sequence[int]) -> list[int]:
    """Element orders of L x R: lcm(ord a, ord b) over a in L, b in R."""
    orders = element_orders(add)
    return sorted(lcm(int(orders[a]), int(orders[b])) for a in left for b in right)


def order_multiset_errors(table: np.ndarray, expected: Sequence[int]) -> list[str]:
    got = sorted(element_orders(table).tolist())
    if got != list(expected):
        diff = (Counter(got) - Counter(expected)) + (Counter(expected) - Counter(got))
        return [f"element-order multiset differs at orders {sorted(diff)}"]
    return []


# ---------------------------------------------------------------------------
# counts


def count_report_errors(report: dict, aut_add: Optional[int] = None, aut_mult: Optional[int] = None) -> list[str]:
    """Divisibility of the automorphism orders and any known closed forms."""
    errors = []
    am, aa, ab, count = report["aut_mult"], report["aut_add"], report["aut_brace"], report["count"]
    if ab < 1 or am % ab or aa % ab:
        errors.append(f"aut_brace {ab} does not divide aut_mult {am} and aut_add {aa}")
    if count * ab != am:
        errors.append(f"count {count} * aut_brace {ab} != aut_mult {am}")
    if aut_add is not None and aa != aut_add:
        errors.append(f"aut_add {aa} != {aut_add}")
    if aut_mult is not None and am != aut_mult:
        errors.append(f"aut_mult {am} != {aut_mult}")
    return errors


def reciprocity_errors(report: dict, recip: dict) -> list[str]:
    errors = []
    if recip["count_forward"] != report["count"]:
        errors.append("forward count differs from count_hgs")
    for key in ("aut_add", "aut_mult", "aut_brace"):
        if recip[key] != report[key]:
            errors.append(f"reciprocity {key} differs from count_hgs")
    if recip["count_swapped"] * recip["aut_brace"] != recip["aut_add"]:
        errors.append("swapped count * aut_brace != aut_add")
    if recip["count_forward"] * recip["aut_add"] != recip["count_swapped"] * recip["aut_mult"]:
        errors.append("reciprocity identity fails")
    if not recip["balanced"]:
        errors.append("report says unbalanced")
    return errors


# ---------------------------------------------------------------------------
# census


def transports(table: np.ndarray, auts: np.ndarray) -> np.ndarray:
    """alpha(table) for every alpha: new[s(a), s(b)] = s(old[a, b])."""
    inv = np.argsort(auts, axis=1)
    rows = np.arange(auts.shape[0])[:, None, None]
    return auts[rows, table[inv[:, :, None], inv[:, None, :]]]


def census_errors(add: np.ndarray, auts: np.ndarray, circles: Sequence[np.ndarray],
                  classes: Sequence[tuple[int, np.ndarray]], raw_count: int) -> list[str]:
    """Check one additive group's enumeration and classification.

    ``circles`` lists every enumerated circle table; ``classes`` lists
    (size, representative circle table).  The orbits of Aut(A) on the
    enumerated tables are recomputed here and must match the classes.
    """
    errors = []
    k = len(circles)
    if raw_count != k:
        errors.append(f"raw count {raw_count} != {k} enumerated braces")
    if len({hash(c.tobytes()) for c in circles}) != k:
        errors.append("the enumeration repeats a circle table")
    for i, c in enumerate(circles):
        if group_errors("circle", c):
            errors.append(f"enumerated circle table {i} is not a group")
            break
    if not law_holds_batch(add, circles).all():
        errors.append("an enumerated pair fails the brace law")
    if sum(size for size, _ in classes) != raw_count:
        errors.append("class sizes do not sum to the raw count")
    orbit_sizes: Counter = Counter(min(t.tobytes() for t in transports(c, auts)) for c in circles)
    if len(orbit_sizes) != len(classes):
        errors.append(f"{len(classes)} classes reported, {len(orbit_sizes)} Aut(A)-orbits found")
    for size, rep in classes:
        orbit = transports(rep, auts)
        stab = int((orbit == rep).all(axis=(1, 2)).sum())
        if size * stab != auts.shape[0]:
            errors.append(f"class size {size} * |Aut_brace| {stab} != |Aut(A)| {auts.shape[0]}")
        if orbit_sizes.get(min(t.tobytes() for t in orbit), 0) != size:
            errors.append(f"class of size {size} does not match its orbit")
    return errors


def totals_errors(order: int, classes_by_group: dict[str, int], abelian: set[str]) -> list[str]:
    s_n, b_n = SKEW_BRACE_COUNTS[order]
    s = sum(classes_by_group.values())
    b = sum(v for g, v in classes_by_group.items() if g in abelian)
    if (s, b) != (s_n, b_n):
        return [f"order {order}: s = {s}, b = {b}; published s = {s_n}, b = {b_n}"]
    return []
