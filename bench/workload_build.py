"""The ``build`` workload: large braces from radical rings and semidirect products.

Each job builds one brace of order 200-729 and runs every verdict on it:
the constructor (which validates both tables and the law), is_biskew,
the holomorph route, is_two_sided, and a brace file round trip.  The
O(n^3) table checks do nearly all of the work; no automorphism search
runs.  Non-bi-skew cases also take the first-witness path.

The seed picks a random basis for each vector algebra and a random
conjugate and element order for each matrix group, so tables change
with the seed while the work per job does not.
"""
from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

import checks
import inputs
from jobs import Job
from bracelab import algebras, braces, factorizations, formats, groups

WORKLOAD_ID = 1

# (catalog name, p, extra parameters); sizes 729 and 343.
RINGS = [
    ("sixdim_wedge", 3, {}),
    ("degraaf_A340", 7, {}),
    ("truncated_poly", 7, {"m": 3}),     # A^3 != 0
    ("cyclic", 7, {"r": 1}),             # A^3 != 0
    ("cyclic", 7, {"r": 2}),
]
QUICK_RINGS = [
    ("degraaf_A340", 3, {}),
    ("truncated_poly", 2, {"m": 3}),
    ("cyclic", 3, {"r": 1}),
    ("cyclic", 3, {"r": 2}),
]

# 2x2 generators over Z/p of the acting group J.
S3_MOD3 = [(1, 1, 0, 1), (1, 0, 0, 2)]
S3_MOD7 = [(0, 6, 1, 6), (0, 1, 1, 0)]
Q8_MOD3 = [(0, 2, 1, 0), (1, 1, 1, 2)]
Q8_MOD5 = [(0, 4, 1, 0), (0, 2, 2, 0)]

# (name, base H, p, generators of J, left factor): "H" makes the normal
# factor the left one (bi-skew); "J" makes the complement the left one.
FACTORIZATIONS = [
    ("heis3:Q8", "heis", 3, Q8_MOD3, "H"),      # order 216, both factors nonabelian
    ("C7^2:S3", "plane", 7, S3_MOD7, "H"),      # order 294
    ("C5^2:Q8/J", "plane", 5, Q8_MOD5, "J"),    # order 200, not bi-skew
]
QUICK_FACTORIZATIONS = [
    ("C3^2:S3", "plane", 3, S3_MOD3, "H"),
    ("C3^2:S3/J", "plane", 3, S3_MOD3, "J"),
]


def _ring_job(index: int, spec: tuple, seed: int, workdir: Path) -> Job:
    name, p, params = spec
    base = algebras.catalog(name, p, **params)
    if base.kind == "modp":
        basis = inputs.invertible_matrix(base.dim, p, inputs.stream(seed, WORKLOAD_ID, index))
        consts = inputs.change_basis(base.consts, basis, p)
        algebra = algebras.make_algebra(p, base.dim, inputs.products_dict(consts))
    else:
        algebra = base
    path = workdir / f"ring{index}.brc"
    sixdim = name == "sixdim_wedge"

    def run(_pass: int) -> dict[str, Any]:
        brace = algebras.to_brace(algebra)
        out = _verdicts(brace, path)
        if sixdim:
            out["squares"] = braces.square_agreement_set(brace)
        return out

    def check(_pass: int, out: dict[str, Any]) -> list[str]:
        if base.kind == "modp":
            own_add, own_circle = checks.radical_tables(p, consts)
            cubes_zero = checks.cubes_vanish(p, consts)
        else:
            own_add, own_circle = checks.cyclic_tables(p, params["r"])
            cubes_zero = 2 * params["r"] >= 3
        errors = checks.tables_errors("additive", out["add"], own_add)
        errors += checks.tables_errors("circle", out["mult"], own_circle)
        if out["biskew"] != cubes_zero:
            errors.append(f"is_biskew says {out['biskew']}, A^3 = 0 is {cubes_zero}")
        if not out["two_sided"]:
            errors.append("a radical-ring brace must be two-sided")
        if sixdim:
            want = checks.square_zero_set(p, basis)
            if set(out["squares"]) != want or len(want) != 189:
                errors.append(f"square agreement set has {len(out['squares'])} elements, expected 189")
        return errors + _verdict_errors(out)

    return Job(f"ring:{name}:p{p}" + "".join(f":{k}{v}" for k, v in params.items()), run, check)


def _factorization_job(index: int, spec: tuple, seed: int, workdir: Path) -> Job:
    name, base_kind, p, gens, left_side = spec
    rng = inputs.stream(seed, WORKLOAD_ID, 100 + index)
    conj = inputs.invertible_matrix(2, p, rng)
    cinv = inputs.inverse_mod(conj, p)
    conj_gens = [
        tuple(int(v) for v in (conj @ np.array(g).reshape(2, 2) @ cinv % p).ravel()) for g in gens
    ]
    mats, j_table = inputs.matrix_group(conj_gens, p, rng)
    if base_kind == "heis":
        h = groups.heisenberg_group(p)
        action = inputs.heisenberg_action(mats, p)
    else:
        h = groups.abelian_group([p, p])
        action = inputs.linear_action(mats, p)
    j = groups.make_group(j_table)
    nh, nj = h.order, j.order
    h_side = [x * nj for x in range(nh)]
    j_side = list(range(nj))
    left, right = (h_side, j_side) if left_side == "H" else (j_side, h_side)
    path = workdir / f"fact{index}.brc"

    def run(_pass: int) -> dict[str, Any]:
        g = groups.semidirect_product(h, j, action)
        fact = factorizations.validate_factorization(g, left, right)
        return _verdicts(factorizations.circle_from_factorization(fact), path)

    def check(_pass: int, out: dict[str, Any]) -> list[str]:
        own_add = checks.semidirect_table(h.table, j_table, action)
        own_circle = checks.factorization_circle(own_add, left, right)
        errors = checks.tables_errors("additive", out["add"], own_add)
        errors += checks.tables_errors("circle", out["mult"], own_circle)
        errors += checks.order_multiset_errors(
            out["mult"], checks.factor_order_multiset(own_add, left, right))
        swapped_ok = checks.first_law_failure(own_circle, own_add) is None
        if out["biskew"] != swapped_ok:
            errors.append(f"is_biskew says {out['biskew']}, the swapped law holds is {swapped_ok}")
        mirrored_ok = checks.first_law_failure(own_add, own_circle.T) is None
        if out["two_sided"] != mirrored_ok:
            errors.append(f"is_two_sided says {out['two_sided']}, the mirrored law holds is {mirrored_ok}")
        return errors + _verdict_errors(out)

    return Job(f"factorization:{name}", run, check)


def _verdicts(brace: braces.SkewBrace, path: Path) -> dict[str, Any]:
    """Every verdict on a built brace, plus a file round trip."""
    out: dict[str, Any] = {"add": brace.add.table, "mult": brace.mult.table}
    out["biskew"] = braces.is_biskew(brace)
    out["holomorph"] = braces.validate_via_holomorph(brace.add, brace.mult)
    if not out["biskew"]:
        out["witness"] = braces.validate_direct(brace.mult, brace.add)
        out["holomorph_swapped"] = braces.validate_via_holomorph(brace.mult, brace.add)
    out["two_sided"] = braces.is_two_sided(brace)
    formats.write_brace(path, brace)
    back = formats.read_brace(path)
    out["read_add"], out["read_mult"] = back.add.table, back.mult.table
    return out


def _verdict_errors(out: dict[str, Any]) -> list[str]:
    errors = []
    if out["holomorph"] is not None:
        errors.append("holomorph route rejects a brace the direct route accepted")
    if not out["biskew"]:
        w = out.get("witness")
        if w is None:
            errors.append("is_biskew is False but the direct route finds no witness")
        else:
            errors += checks.witness_errors(out["mult"], out["add"], (w.a, w.b, w.c, w.left, w.right))
            hw = out.get("holomorph_swapped")
            if hw is None or (hw.element, hw.x, hw.y) != (w.a, w.b, w.c):
                errors.append(f"holomorph route fails at {hw}, direct route at {(w.a, w.b, w.c)}")
    errors += checks.tables_errors("round-trip additive", out["read_add"], out["add"])
    errors += checks.tables_errors("round-trip circle", out["read_mult"], out["mult"])
    return errors


def make_jobs(seed: int, passes: int, quick: bool, workdir: Path) -> list[Job]:
    rings = QUICK_RINGS if quick else RINGS
    facts = QUICK_FACTORIZATIONS if quick else FACTORIZATIONS
    return [_ring_job(i, spec, seed, workdir) for i, spec in enumerate(rings)] + [
        _factorization_job(i, spec, seed, workdir) for i, spec in enumerate(facts)
    ]
