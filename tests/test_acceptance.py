"""Top-level acceptance runs: every advertised guarantee at its stated tolerance.

Each test exercises one guarantee end to end and prints a single PASS line
(visible under ``pytest -s``); a failure anywhere is a real regression, not a
flaky tolerance.
"""

import json
import random

import numpy as np

from paraquat import (
    Point,
    StructureClass,
    build_tangent_bundle,
    check_bracket,
    check_connection_oracle,
    check_parallel_equivalence,
    check_triple_algebra,
    classify_structure,
    descend_one_forms,
    fit_kahler_oneforms,
    oneill_tensors,
    riemann,
    run_scenario,
    sample_points,
)
from paraquat.catalog import METRICS, TRIPLES, make_chart

from conftest import assert_every_node_prints_as_the_reference, assert_printed_key_rereads, expression_map
from expr_reference import random_tree


def test_triple_algebra_and_split_quaternion_representation(chart4, chart8, flat4, std_triple, rot_triple):
    # the tau-algebra relations are those of the split quaternions with e_a
    # sent to J_a(p): a residual of 0 makes the triple their representation
    worst = 0.0
    for triple, chart, seed in (
        (std_triple, chart4, 101),
        (rot_triple, chart4, 102),
        (TRIPLES["product8"](chart8), chart8, 103),
    ):
        worst = max(worst, check_triple_algebra(triple, sample_points(chart, 100, seed=seed)).max_residual.max())
    assert worst < 1e-12
    print(f"PASS  algebra residual {worst:.2e} (< 1e-12)")


def test_classification_ladder(chart4, flat4, euclidean4, std_triple, rot_triple):
    pts = sample_points(chart4, 5, seed=104)

    v1 = classify_structure(flat4, std_triple, pts, tol=1e-6)
    assert v1.cls is StructureClass.LHPK_BASIS
    assert v1.nabla_max < 1e-6

    v2 = classify_structure(flat4, rot_triple, pts, tol=1e-6)
    assert v2.cls is StructureClass.PQK
    expected = np.zeros((3, 4))
    expected[2, 0] = -1.0
    omega = fit_kahler_oneforms(flat4, rot_triple, pts).omega
    assert np.abs(omega[:, 2, 0] + 1.0).max() < 1e-5
    assert np.abs(omega - expected).max() < 1e-5

    v3 = classify_structure(euclidean4, std_triple, pts, tol=1e-6)
    assert v3.cls is StructureClass.NOT_HERMITIAN
    print("PASS  ladder: LhPK-basis / PQK with w3 = -dx1 (within 1e-5) / NotHermitian")


def test_integrability_tensor_vanishes_for_shipped_submersions(chart4, chart8, flat4, std_triple):
    g8 = METRICS["neutral8"](chart8)
    proj = expression_map(chart8, make_chart(4), ["x1", "x2", "x3", "x4"], "proj")
    bundle = build_tangent_bundle(flat4, std_triple)
    tensors = (
        oneill_tensors(proj, g8, sample_points(chart8, 5, seed=105)),
        oneill_tensors(bundle.projection, bundle.metric, sample_points(bundle.spec, 5, seed=106)),
    )
    worst_a = max(ten.max_a_horizontal.max() for ten in tensors)
    worst_anti = max(ten.antisymmetry_residual.max() for ten in tensors)
    assert worst_a < 1e-5
    assert worst_anti < 1e-5
    print(f"PASS  A-tensor max {worst_a:.2e}, antisymmetry {worst_anti:.2e} (< 1e-5)")


def test_one_forms_descend_and_match_the_base_fit(chart8):
    g8 = METRICS["neutral8"](chart8)
    up = TRIPLES["product8-rotated"](chart8)
    proj = expression_map(chart8, make_chart(4), ["x1", "x2", "x3", "x4"], "proj")
    base = np.array([0.15, -0.3, 0.2, 0.05])
    fiber = [
        Point(chart8, np.concatenate([base, [t, 0.25 - t, -0.1 * t, 0.3]]))
        for t in (-0.4, -0.2, 0.0, 0.2, 0.4)
    ]
    rep = descend_one_forms(proj, g8, up, fiber)
    assert rep.constancy_residual < 1e-6
    chart4 = proj.target
    g4 = METRICS["neutral4"](chart4)
    down = TRIPLES["rotated4"](chart4)
    fit = fit_kahler_oneforms(g4, down, [rep.image])
    mismatch = float(np.abs(rep.omega_base - fit.omega[0]).max())
    assert mismatch < 1e-5
    print(f"PASS  fiber constancy {rep.constancy_residual:.2e} (< 1e-6), base-fit mismatch {mismatch:.2e} (< 1e-5)")


def test_parallel_and_integrable_are_equivalent_for_invariant_structures(chart8):
    from paraquat.catalog import STRUCTURES

    g8 = METRICS["neutral8"](chart8)
    T8 = TRIPLES["product8"](chart8)
    pts = sample_points(chart8, 4, seed=107)

    rep_yes = check_parallel_equivalence(g8, STRUCTURES["split8"](chart8), T8, pts)
    assert rep_yes.flags == (True, True, True)
    assert rep_yes.agree

    rep_no = check_parallel_equivalence(g8, STRUCTURES["split8-rotated"](chart8), T8, pts)
    assert rep_no.flags == (False, False, False)
    assert rep_no.agree
    assert min(rep_no.parallel_residual, rep_no.nijenhuis_residual, rep_no.mixed_residual) > 1e-3
    print("PASS  equivalence flags agree: (T,T,T) parallel case, (F,F,F) with residuals > 1e-3")


def test_lifted_connection_and_bracket_match_the_closed_forms(flat4, conformal4, std_triple):
    worst = 0.0
    for g, seed in ((flat4, 108), (conformal4, 109)):
        bundle = build_tangent_bundle(g, std_triple)
        for xi in sample_points(bundle.spec, 10, seed=seed):
            worst = max(worst, check_connection_oracle(bundle, [xi])[0])
    assert worst < 1e-3

    bundle = build_tangent_bundle(conformal4, std_triple)
    xi = bundle.point(np.zeros(4), [0.0, 0.0, 0.9, 0.0])
    rep = check_bracket(bundle, [(np.eye(4)[1], np.eye(4)[2])], [xi])
    assert rep.max_residual[0, 0] < 1e-3
    flipped = rep.hh_flipped_residual[0, 0]
    assert flipped > 1e-2  # the curvature term really has that sign
    print(f"PASS  connection residual {worst:.2e} (< 1e-3), bracket ok, flipped sign residual {flipped:.2f} (> 1e-2)")


def test_lifted_structures_classify_like_the_base(flat4, conformal4, std_triple, rot_triple):
    b_std = build_tangent_bundle(flat4, std_triple)
    pts = sample_points(b_std.spec, 3, seed=110)
    v = classify_structure(b_std.metric, b_std.triple, pts, tol=1e-5)
    assert v.cls is StructureClass.LHPK_BASIS

    b_rot = build_tangent_bundle(flat4, rot_triple)
    pts = sample_points(b_rot.spec, 3, seed=111)
    v = classify_structure(b_rot.metric, b_rot.triple, pts, tol=1e-5)
    assert v.cls is StructureClass.PQK
    # the lifted forms are pullbacks: no fiber components, base components intact
    up = fit_kahler_oneforms(b_rot.metric, b_rot.triple, pts).omega
    down = fit_kahler_oneforms(flat4, rot_triple, [b_rot.base_point(xi) for xi in pts]).omega
    assert np.abs(up[:, :, 4:]).max() < 1e-5
    assert np.abs(up[:, :, :4] - down).max() < 1e-5

    b_conf = build_tangent_bundle(conformal4, std_triple)
    pts = sample_points(b_conf.spec, 3, seed=112)
    v = classify_structure(b_conf.metric, b_conf.triple, pts, tol=1e-3)
    assert v.cls is not StructureClass.PQK
    assert v.fit_residual_max > 1e-3  # the span form genuinely breaks upstairs
    print("PASS  lifted classes LhPK-basis / PQK with pulled-back forms (1e-5); curved base breaks the lift (> 1e-3)")


def test_lifted_flatness_tracks_the_base(flat4, conformal4, std_triple):
    b_flat = build_tangent_bundle(flat4, std_triple)
    flat = max(float(np.abs(R).max()) for R in riemann(b_flat.metric, sample_points(b_flat.spec, 3, seed=113)))
    assert flat < 1e-6

    b_conf = build_tangent_bundle(conformal4, std_triple)
    curved = max(float(np.abs(R).max()) for R in riemann(b_conf.metric, sample_points(b_conf.spec, 3, seed=114)))
    assert curved > 1e-2
    print(f"PASS  lifted metric flat over flat base (< 1e-6), curvature {curved:.2f} over curved base (> 1e-2)")


def test_reports_and_parser_are_deterministic():
    t = "2026-01-01T00:00:00Z"
    for name in ("flat-pqk-rotated", "product-8d"):
        a = run_scenario(name, seed=3, timestamp=t).to_json()
        b = run_scenario(name, seed=3, timestamp=t).to_json()
        assert a.encode() == b.encode()
        json.loads(a)  # and it is valid JSON

    names = ["x1", "x2", "x3", "x4", "u1"]
    for case in range(500):
        e = random_tree(random.Random(case), 4)
        assert_printed_key_rereads(e, names)
        assert_every_node_prints_as_the_reference(e, names)
    print("PASS  byte-identical reports at fixed seed; 500/500 expression round-trips")
