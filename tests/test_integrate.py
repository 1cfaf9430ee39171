"""Integration: RK4 order, adaptive error control, determinism,
conserved-quantity drift.

Drift of an invariant is measured relative to one plus the largest term
magnitude it is built from: the transformed chaotic systems have
coordinates growing like exp(t), so H1 stays O(1) while its terms reach
1e17 and absolute drift at roundoff scale is unavoidable.
"""

import hashlib
import io
import math
import os
import tracemalloc

import numpy as np
import pytest

from biham3 import catalog as cat
from biham3 import expr as ex
from biham3 import integrate as integrate_mod
from biham3.expr import parse
from biham3.integrate import (
    IntegrationError,
    IntegratorConfig,
    ensemble,
    integrate,
)
from biham3.vecfield import ScalarField, VectorField3

UVW = ("u", "v", "w")
HARMONIC = VectorField3.from_exprs([parse("v"), parse("-u"), parse("0")], UVW)


def term_scale_fn(h_expr, frame, time):
    """max |term| of a sum, compiled over frame+time."""
    terms = h_expr.terms if isinstance(h_expr, ex.Add) else (h_expr,)
    fns = [ex.compile_fn(t, frame + (time,)) for t in terms]
    return lambda state, t: max(abs(f(*state, t)) for f in fns)


def relative_drift(traj, name, h_expr, frame, time="t"):
    vals = traj.monitors[name]
    scale = term_scale_fn(h_expr, frame, time)
    worst = 0.0
    for (t, y, v) in zip(traj.times, traj.states, vals):
        denom = 1.0 + scale(y, t)
        worst = max(worst, abs(v - vals[0]) / denom)
    return worst


def convergence_order(X, t0, t1, y0, exact, steps):
    """Least-squares slope of log(max error at t1) against log(h)
    for the fixed-step RK4 scheme."""
    errors = []
    for h in steps:
        cfg = IntegratorConfig(t0=t0, t1=t1, y0=y0, method="rk4", step=h)
        traj = integrate(X, cfg)
        if not traj.ok():
            raise IntegrationError(traj.aborted)
        ref = exact(traj.times[-1])
        errors.append(max(abs(a - b) for a, b in zip(traj.states[-1], ref)))
    return float(np.polyfit(np.log(np.asarray(steps)), np.log(np.asarray(errors)), 1)[0])


def test_rk4_harmonic_oscillator():
    cfg = IntegratorConfig(t0=0.0, t1=2 * math.pi, y0=(1.0, 0.0, 0.0), method="rk4", step=1e-3)
    traj = integrate(HARMONIC, cfg)
    assert traj.ok()
    err = max(abs(a - b) for a, b in zip(traj.states[-1], (1.0, 0.0, 0.0)))
    assert err < 1e-8


def test_rk4_convergence_order():
    slope = convergence_order(
        HARMONIC,
        0.0,
        2 * math.pi,
        (1.0, 0.0, 0.0),
        lambda t: (math.cos(t), -math.sin(t), 0.0),
        [0.2, 0.1, 0.05, 0.025],
    )
    assert abs(slope - 4.0) <= 0.1


def test_rk4_halving_step_divides_error_by_sixteen():
    def err_at(h):
        cfg = IntegratorConfig(t0=0.0, t1=2 * math.pi, y0=(1.0, 0.0, 0.0), method="rk4", step=h)
        traj = integrate(HARMONIC, cfg)
        t = traj.times[-1]
        ref = (math.cos(t), -math.sin(t), 0.0)
        return max(abs(a - b) for a, b in zip(traj.states[-1], ref))

    ratio = err_at(0.1) / err_at(0.05)
    assert 12.0 < ratio < 20.0


def test_rk4_convergence_on_linear_growth():
    X = VectorField3.from_exprs([parse("u"), parse("0"), parse("0")], UVW)
    slope = convergence_order(
        X, 0.0, 2.0, (1.0, 0.0, 0.0), lambda t: (math.exp(t), 0.0, 0.0), [0.2, 0.1, 0.05, 0.025]
    )
    assert abs(slope - 4.0) <= 0.1


def test_adaptive_global_error_within_100x_tolerance():
    tol = 1e-10
    cfg = IntegratorConfig(t0=0.0, t1=2 * math.pi, y0=(1.0, 0.0, 0.0), rtol=tol, atol=tol)
    traj = integrate(HARMONIC, cfg)
    err = max(abs(a - b) for a, b in zip(traj.states[-1], (1.0, 0.0, 0.0)))
    assert err <= 100 * tol
    assert traj.accepted > 0 and traj.times[-1] == pytest.approx(2 * math.pi)


def test_determinism_bit_identical():
    d = cat.instantiate("qi", gamma=2)
    cfg = IntegratorConfig(t0=0.0, t1=5.0, y0=(1.0, 1.0, 1.0))
    m = {"H1": d.bound_scalar(d.h1)}
    a = integrate(d.bound_field(), cfg, monitors=m)
    b = integrate(d.bound_field(), cfg, monitors=m)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.monitors["H1"], b.monitors["H1"])
    assert (a.accepted, a.rejected) == (b.accepted, b.rejected)


def test_ensemble_matches_sequential_and_isolates_failures():
    d = cat.instantiate("chen-variant")
    X = d.bound_field()
    good = IntegratorConfig(t0=0.0, t1=1.0, y0=(0.1, 0.1, 0.1))
    blows_up = IntegratorConfig(t0=0.0, t1=20.0, y0=(1.0, 1.0, 1.0))
    out = ensemble(X, [good, blows_up, good])
    assert out[0].ok() and out[2].ok()
    assert np.array_equal(out[0].times, out[2].times) and np.array_equal(out[0].states, out[2].states)
    assert not out[1].ok() and "underflow" in out[1].aborted
    assert ensemble(X, []) == []


def test_lu_transformed_invariant_drift():
    d = cat.instantiate("lu-transformed")
    cfg = IntegratorConfig(t0=0.0, t1=20.0, y0=(1.0, 1.0, 1.0))
    h1 = d.bound_scalar(d.h1)
    h2 = d.bound_scalar(d.h2)
    traj = integrate(d.bound_field(), cfg, monitors={"H1": h1, "H2": h2})
    assert traj.ok()
    assert relative_drift(traj, "H1", h1.expr, d.frame) < 1e-6
    assert relative_drift(traj, "H2", h2.expr, d.frame) < 1e-6


def test_chen_variant_conservation_inside_existence_window():
    # the flow from (0.1,0.1,0.1) blows up near t=7.36; stay well inside
    d = cat.instantiate("chen-variant")
    h1 = d.bound_scalar(d.h1)
    h2 = d.bound_scalar(d.h2)
    dh2dt = ScalarField(ex.differentiate(h2.expr, "t"), h2.frame)
    cfg = IntegratorConfig(t0=0.0, t1=2.0, y0=(0.1, 0.1, 0.1))
    traj = integrate(
        d.bound_field(),
        cfg,
        monitors={"F1": h1, "F2": h2},
        quadratures={"int_dF2": dh2dt},
    )
    assert traj.ok()
    assert relative_drift(traj, "F1", h1.expr, d.frame) < 1e-6
    # F2 changes, but only through its explicit time dependence:
    # F2(t) - F2(0) must equal the accumulated integral of dF2/dt|explicit
    f2 = traj.monitors["F2"]
    acc = traj.quadratures["int_dF2"]
    scale = term_scale_fn(h2.expr, d.frame, "t")
    assert max(abs(f2[0]) for _ in (0,)) is not None
    changed = max(abs(v - f2[0]) for v in f2)
    assert changed > 1e-6  # genuinely time-dependent
    for t, y, v, q in zip(traj.times, traj.states, f2, acc):
        assert abs(v - f2[0] - q) <= 1e-6 * (1.0 + scale(y, t))


@pytest.mark.parametrize(
    "name,t1",
    [
        ("lu-transformed", 20.0),
        ("modified-lu", 20.0),
        ("t-system", 20.0),
        ("chen", 20.0),
        ("chen-variant", 2.0),  # finite-time blow-up at t=2.17 from (1,1,1)
        ("qi", 20.0),
    ],
)
def test_monitor_orthogonality_along_flow(name, t1):
    # the numerically observed total derivative of H2 minus the analytic
    # explicit partial equals grad(H2).X at the numeric states
    d = cat.instantiate(name)
    h2 = d.bound_scalar(d.h2)
    cfg = IntegratorConfig(t0=0.0, t1=t1, y0=(1.0, 1.0, 1.0))
    traj = integrate(d.bound_field(), cfg)
    assert traj.ok()
    from biham3.vecfield import dot, gradient

    resid = dot(gradient(h2), d.bound_field())
    names = d.frame + ("t",)
    rf = ex.compile_fn(resid.expr, names)
    dh2dt = ex.compile_fn(ex.differentiate(h2.expr, "t"), names)
    scale = term_scale_fn(h2.expr, d.frame, "t")
    for t, y in zip(traj.times[:: max(1, len(traj.times) // 200)], traj.states[:: max(1, len(traj.times) // 200)]):
        denom = 1.0 + abs(dh2dt(*y, t)) + scale(y, t)
        assert abs(rf(*y, t)) <= 1e-9 * denom, (name, t)


def test_qi_ensemble_conservation():
    d = cat.instantiate("qi", gamma=2)
    h1 = d.bound_scalar(d.h1)
    from biham3.sampling import SeededSampler

    sampler = SeededSampler(42)
    configs = [
        IntegratorConfig(
            t0=0.0,
            t1=2.0,
            y0=(sampler.uniform(-1, 1), sampler.uniform(-1, 1), sampler.uniform(-1, 1)),
        )
        for _ in range(100)
    ]
    out = ensemble(d.bound_field(), configs, monitors={"H1": h1})
    assert all(tr.ok() for tr in out)
    for tr in out:
        assert relative_drift(tr, "H1", h1.expr, d.frame) < 1e-6


def test_csv_format():
    d = cat.instantiate("lu-transformed")
    cfg = IntegratorConfig(t0=0.0, t1=0.5, y0=(1.0, 1.0, 1.0))
    traj = integrate(
        d.bound_field(), cfg, monitors={"H1": d.bound_scalar(d.h1), "H2": d.bound_scalar(d.h2)}
    )
    csv_text = traj.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "t,u,v,w,H1,H2"
    assert len(lines) == len(traj.times) + 1
    # full precision round trip
    first = lines[1].split(",")
    assert float(first[1]) == traj.states[0][0]


def test_to_csv_writes_each_block_of_the_text_it_returns():
    d = cat.instantiate("lu-transformed")
    cfg = IntegratorConfig(t0=0.0, t1=20.0, y0=(1.0, 1.0, 1.0))
    traj = integrate(d.bound_field(), cfg, monitors={"H1": d.bound_scalar(d.h1)})
    writes = []
    sink = io.StringIO()
    sink.write = lambda text: writes.append(text) or len(text)
    assert traj.to_csv(sink) is None
    assert "".join(writes) == traj.to_csv()
    # the header, then one write per block of rows: 2001 rows make one
    # full block and one of 2001 - _BLOCK rows
    block = integrate_mod._BLOCK
    assert [w.count("\n") for w in writes] == [1, block, len(traj.times) - block]


def test_step_underflow_aborts_with_partial_trajectory():
    d = cat.instantiate("chen-variant")
    cfg = IntegratorConfig(t0=0.0, t1=20.0, y0=(1.0, 1.0, 1.0))
    traj = integrate(d.bound_field(), cfg)
    assert not traj.ok()
    assert "underflow" in traj.aborted
    assert len(traj.times) and traj.times[-1] < 2.2
    assert all(math.isfinite(c) for s in traj.states for c in s)


def test_config_validation():
    with pytest.raises(IntegrationError):
        IntegratorConfig(t0=1.0, t1=0.0, y0=(0, 0, 0))
    with pytest.raises(IntegrationError):
        IntegratorConfig(t0=0.0, t1=1.0, y0=(0, 0, 0), method="euler")
    with pytest.raises(IntegrationError):
        IntegratorConfig(t0=0.0, t1=1.0, y0=(0, 0, 0), method="rk4")
    with pytest.raises(IntegrationError):
        IntegratorConfig(t0=0.0, t1=1.0, y0=(0, 0, 0), rtol=0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"method": "rk4", "step": -0.1},
        {"method": "rk4", "step": math.inf},
        {"sample_dt": 0.0},
        {"sample_dt": math.nan},
        {"max_step": -1.0},
        {"rtol": math.inf},
        {"atol": math.nan},
        {"t1": math.inf},
        {"t0": math.nan},
        {"y0": (0.0, math.inf, 0.0)},
        {"y0": (0.0, 0.0)},
    ],
)
def test_config_rejects_non_positive_or_non_finite_sizes(kwargs):
    args = {"t0": 0.0, "t1": 1.0, "y0": (0.0, 0.0, 0.0), **kwargs}
    with pytest.raises(IntegrationError, match="must"):
        IntegratorConfig(**args)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sample_dt": 1e-7},
        {"t1": 1e5, "sample_dt": 0.01},
        {"method": "rk4", "step": 1e-7},
        {"max_step": 1e-7},
    ],
)
def test_config_caps_sample_and_step_counts(kwargs):
    args = {"t0": 0.0, "t1": 1.0, "y0": (0.0, 0.0, 0.0), **kwargs}
    with pytest.raises(IntegrationError, match="must be at most 1000000"):
        IntegratorConfig(**args)
    IntegratorConfig(**{**args, "t1": args["t1"] / 20})


def test_config_ignores_sizes_the_method_does_not_read():
    cfg = IntegratorConfig(t0=0.0, t1=1.0, y0=(0.0, 0.0, 0.0), method="rk4", step=0.1, sample_dt=0.0)
    assert integrate(HARMONIC, cfg).ok()


# ---------------------------------------------------------------------------
# golden bits: digests recorded with the generic stage loop that preceded the
# generated Dormand-Prince kernel; the kernel must reproduce them exactly


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _bits(traj):
    """CSV digest (times, states and monitors at full precision), step
    counts, sample count and abort reason."""
    return _sha(traj.to_csv()), traj.accepted, traj.rejected, len(traj.times), traj.aborted


def test_golden_lu_transformed_with_both_monitors():
    d = cat.instantiate("lu-transformed")
    cfg = IntegratorConfig(t0=0.0, t1=20.0, y0=(1.0, 1.0, 1.0))
    traj = integrate(
        d.bound_field(), cfg, monitors={"H1": d.bound_scalar(d.h1), "H2": d.bound_scalar(d.h2)}
    )
    assert _bits(traj) == (
        "841797f892e3cf157040b26d8765801aa25984dd04f73c2652cba18b077ea3ee", 628, 1, 2001, None
    )


def test_golden_qi_non_autonomous():
    d = cat.instantiate("qi", gamma=2)
    cfg = IntegratorConfig(t0=0.0, t1=5.0, y0=(1.0, 1.0, 1.0))
    traj = integrate(
        d.bound_field(), cfg, monitors={"H1": d.bound_scalar(d.h1), "H2": d.bound_scalar(d.h2)}
    )
    assert _bits(traj) == (
        "82971a77dcf507bd1022a2477932fc0c17f48bfe72295bff1e37959315a3a36f", 195, 1, 501, None
    )


def _chen_variant_quadrature():
    d = cat.instantiate("chen-variant")
    h2 = d.bound_scalar(d.h2)
    dh2dt = ScalarField(ex.differentiate(h2.expr, "t"), h2.frame)
    return d, {"F1": d.bound_scalar(d.h1), "F2": h2}, {"int_dF2": dh2dt}


def test_golden_chen_variant_with_quadrature():
    d, monitors, quads = _chen_variant_quadrature()
    cfg = IntegratorConfig(t0=0.0, t1=2.0, y0=(0.1, 0.1, 0.1))
    traj = integrate(d.bound_field(), cfg, monitors=monitors, quadratures=quads)
    assert _bits(traj) == (
        "7c17977f5d7f6f1ad1c07a6225ff183e3f8ac0b601eb3cdc69d842cc42ecc195", 61, 0, 201, None
    )
    assert _sha(",".join(v.hex() for v in traj.quadratures["int_dF2"])) == (
        "1aaf12be3a84a2eeb019af52fad9bed0091b84b1b1a4ce4dca58d4ee25b91b1a"
    )


def test_golden_chen_variant_underflow_abort():
    d = cat.instantiate("chen-variant")
    cfg = IntegratorConfig(t0=0.0, t1=20.0, y0=(1.0, 1.0, 1.0))
    traj = integrate(d.bound_field(), cfg, monitors={"F1": d.bound_scalar(d.h1)})
    assert _bits(traj) == (
        "59135b0aa2637b23c21fb16b225cfbf788d9fc56dc38bb0d38836b11cff22a10",
        1760,
        1,
        218,
        "step size underflow at t=2.17061 (h=9.971e-14)",
    )


def test_ensemble_equals_integrate_field_by_field():
    d, monitors, quads = _chen_variant_quadrature()
    X = d.bound_field()
    cfgs = [
        IntegratorConfig(t0=0.0, t1=1.0, y0=(0.1, 0.1, 0.1)),
        IntegratorConfig(t0=0.0, t1=20.0, y0=(1.0, 1.0, 1.0)),  # aborts
        IntegratorConfig(t0=0.5, t1=1.5, y0=(0.2, -0.1, 0.3), rtol=1e-8, atol=1e-9),
        IntegratorConfig(t0=0.0, t1=1.0, y0=(0.1, 0.2, 0.3), method="rk4", step=0.01),
    ]
    out = ensemble(X, cfgs, monitors=monitors, quadratures=quads)
    assert out == [integrate(X, c, monitors=monitors, quadratures=quads) for c in cfgs]
    assert [tr.ok() for tr in out] == [True, False, True, True]


# ---------------------------------------------------------------------------
# abort paths: message and partial trajectory, recorded as above

LN_FIELD = VectorField3.from_exprs([parse("-1"), parse("0"), parse("ln(u)")], UVW)
# 1e300*u overflows once u > 1.8e8 (t ~ 19); times v = 0 that is nan
NAN_FIELD = VectorField3.from_exprs([parse("u"), parse("0"), parse("1e300*u*v")], UVW)
HUGE_FIELD = VectorField3.from_exprs([parse("1e308"), parse("0"), parse("0")], UVW)


@pytest.mark.parametrize(
    "field,t1,y0,step,bits",
    [
        (
            LN_FIELD, 2.0, (1.0, 0.0, 0.0), None,
            ("254e9bdb3286e844a4a16ec072b3fa9d394473b33bc25227c9c88f0ba5fd46e1", 68, 36, 100,
             "right-hand side failed at t=1: math domain error"),
        ),
        (
            LN_FIELD, 2.0, (1.0, 0.0, 0.0), 0.1,
            ("881857f116bae54bc78c11aad8469e826cd1f52f63015066e148d8b9a692b1e3", 10, 0, 11,
             "right-hand side failed at t=1.05: math domain error"),
        ),
        (
            NAN_FIELD, 30.0, (1.0, 0.0, 0.0), None,
            ("a05f9b9cf2171523f7982df7b07586485ffc5ded2836e16d831fbe8d487ef45f", 472, 1, 1898,
             "non-finite derivative at t=19.0105"),
        ),
        (
            NAN_FIELD, 30.0, (1.0, 0.0, 0.0), 0.1,
            ("16059f6ffe46083021766ba86c00c7f6d8b475ebc0ddd0ad06a26109f57c3532", 190, 0, 191,
             "non-finite derivative at t=19.05"),
        ),
        (
            HUGE_FIELD, 3.0, (0.0, 0.0, 0.0), None,
            ("ebea50fa22ac22eb42b1218c557b358ae34cda81b1e632770d97a69f9fdc2894", 18, 0, 174,
             "non-finite state at t=1.83"),
        ),
        (
            HUGE_FIELD, 3.0, (0.0, 0.0, 0.0), 0.1,
            ("075de1598e7b2ca681d17fd96fd7ff634e025d82634b00b7ce34085d0b25c907", 0, 0, 1,
             "non-finite state at t=0.1"),
        ),
    ],
    ids=["ln-adaptive", "ln-rk4", "nan-adaptive", "nan-rk4", "overflow-adaptive", "overflow-rk4"],
)
def test_abort_paths_keep_partial_trajectory(field, t1, y0, step, bits):
    method = "adaptive" if step is None else "rk4"
    cfg = IntegratorConfig(t0=0.0, t1=t1, y0=y0, method=method, step=step)
    traj = integrate(field, cfg)
    assert _bits(traj) == bits
    assert all(math.isfinite(c) for s in traj.states for c in s)


# ln(2 + u) fails where 3*cos(t) < -2 (row 2301 at sample_dt 0.001), past
# the first two blocks of monitor rows; ln(1/2 + u) fails at row 1739, in
# the second; ln(10235/10000 - t) at row 1024, the first row of the second.
# Recorded before the monitors were evaluated a block at a time.
LATE = ScalarField(parse("ln(2 + u)"), UVW)
EARLY = ScalarField(parse("ln(1/2 + u)"), UVW)
EDGE = ScalarField(parse("ln(10235/10000 - t)"), UVW)


@pytest.mark.parametrize(
    "step,monitors,bits",
    [
        (None, {"late": LATE},
         ("470fb2bb597e85c2470334cdf38a58fbea6564679a2c9d5ea68693af647ef44c", 82, 0, 2301,
          "monitor late failed at t=2.301: math domain error")),
        (None, {"late": LATE, "early": EARLY},
         ("4486803d1e712a638d9c64f9b10c2696085ad01a435a4de0147d939f25b1cab1", 82, 0, 1739,
          "monitor early failed at t=1.739: math domain error")),
        (None, {"early": EARLY, "late": LATE},
         ("85bac6cdaf2730f3c182deb3acffb82cf9d69723f3dc462e6bc580a76ccf15a1", 82, 0, 1739,
          "monitor early failed at t=1.739: math domain error")),
        (None, {"edge": EDGE},
         ("e79eb56d99053e1729b74b5908948a59d82fa4d6e3f3cdbc70e031f236df63eb", 82, 0, 1024,
          "monitor edge failed at t=1.024: math domain error")),
        (0.001, {"late": LATE, "early": EARLY},
         ("2be827614b70da9f09071a685fa573c5317a5920270ce20476f9ac12f788f783", 3000, 0, 1739,
          "monitor early failed at t=1.739: math domain error")),
    ],
    ids=["late", "late-then-early", "early-then-late", "block-edge", "rk4"],
)
def test_a_monitor_failing_past_the_first_block_cuts_there(step, monitors, bits):
    method = "adaptive" if step is None else "rk4"
    cfg = IntegratorConfig(t0=0.0, t1=3.0, y0=(3.0, 0.0, 0.0), sample_dt=0.001, method=method, step=step)
    traj = integrate(HARMONIC, cfg, monitors=monitors)
    assert _bits(traj) == bits
    full = integrate(HARMONIC, cfg)
    n = len(traj.times)
    assert np.array_equal(traj.states, full.states[:n]) and np.array_equal(traj.times, full.times[:n])
    for name, sf in monitors.items():
        f = ex.compile_fn(sf.expr, (*UVW, "t"))
        assert traj.monitors[name].tolist() == [f(*y, t) for y, t in zip(traj.states.tolist(), traj.times)]


def test_a_long_run_keeps_no_python_object_per_sample():
    # 200,001 samples: held as Python floats and tuples, or formatted into
    # one string, they would take several times their arrays' bytes
    d = cat.instantiate("lu-transformed")
    cfg = IntegratorConfig(t0=0.0, t1=20.0, y0=(1.0, 1.0, 1.0), sample_dt=1e-4)
    X, monitors = d.bound_field(), {"H1": d.bound_scalar(d.h1)}
    tracemalloc.start()
    try:
        traj = integrate(X, cfg, monitors=monitors)
        with open(os.devnull, "w") as fh:
            traj.to_csv(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(a.nbytes for a in (traj.times, traj.states, *traj.monitors.values()))
    assert len(traj.times) == 200_001 and traj.ok()
    assert peak < 3 * arrays, (peak, arrays)


def test_rhs_failure_at_the_initial_state():
    cfg = IntegratorConfig(t0=0.0, t1=1.0, y0=(-1.0, 0.0, 0.0))
    traj = integrate(LN_FIELD, cfg)
    assert traj.aborted == "right-hand side failed at t=0: math domain error"
    assert np.array_equal(traj.times, [0.0]) and np.array_equal(traj.states, [(-1.0, 0.0, 0.0)])
    assert (traj.accepted, traj.rejected) == (0, 0)


# ---------------------------------------------------------------------------
# lockstep batches: adaptive members sharing (t0, t1, sample_dt) step together
# once there are _BATCH_MIN of them.  They take integrate's steps and times,
# and agree with its states to roundoff; aborting members are run alone and
# give integrate's bits.

BATCH = integrate_mod._BATCH_MIN


def _starts(seed, n, lo=-1.0, hi=1.0):
    from biham3.sampling import SeededSampler

    sampler = SeededSampler(seed)
    return [tuple(sampler.uniform(lo, hi) for _ in range(3)) for _ in range(n)]


def _batched(monkeypatch, X, cfgs, **kwargs):
    """ensemble() with the scalar kernel's right-hand side unavailable, so
    every member must come from the lockstep kernel."""

    def no_scalar_path(*args):
        raise AssertionError("member left the batch")

    with monkeypatch.context() as m:
        m.setattr(integrate_mod, "_compile_rhs", no_scalar_path)
        return ensemble(X, cfgs, **kwargs)


def _assert_close(batched, alone, scales):
    """Equal step counts and times; states, quadratures and monitors within
    1e-9 of integrate's, relative to one plus the largest term of the
    quantity (``scales`` maps a monitor name to its term-scale function)."""
    assert batched.ok() and alone.ok()
    assert (batched.accepted, batched.rejected) == (alone.accepted, alone.rejected)
    assert np.array_equal(batched.times, alone.times)
    for a, b in zip(batched.states, alone.states):
        assert all(abs(x - y) <= 1e-9 * (1.0 + abs(y)) for x, y in zip(a, b))
    assert batched.quadratures.keys() == alone.quadratures.keys()
    for name, values in alone.quadratures.items():
        assert all(abs(x - y) <= 1e-9 * (1.0 + abs(y)) for x, y in zip(batched.quadratures[name], values))
    assert list(batched.monitors) == list(alone.monitors)
    for name, values in alone.monitors.items():
        scale = scales[name]
        for t, y, x, v in zip(alone.times, alone.states, batched.monitors[name], values):
            assert abs(x - v) <= 1e-9 * (1.0 + scale(y, t)), (name, t)


@pytest.mark.parametrize("name,t1", [("lu-transformed", 5.0), ("qi", 5.0)])
def test_batched_members_agree_with_integrate(monkeypatch, name, t1):
    d = cat.instantiate(name)
    X = d.bound_field()
    monitors = {"H1": d.bound_scalar(d.h1), "H2": d.bound_scalar(d.h2)}
    scales = {k: term_scale_fn(sf.expr, d.frame, "t") for k, sf in monitors.items()}
    cfgs = [IntegratorConfig(t0=0.0, t1=t1, y0=y0) for y0 in _starts(3, BATCH)]
    out = _batched(monkeypatch, X, cfgs, monitors=monitors)
    for traj, cfg in zip(out, cfgs):
        _assert_close(traj, integrate(X, cfg, monitors=monitors), scales)


def test_batched_members_keep_their_own_tolerances_and_step_bounds(monkeypatch):
    d = cat.instantiate("qi", gamma=2)
    X = d.bound_field()
    cfgs = [
        IntegratorConfig(
            t0=0.0, t1=3.0, y0=y0,
            rtol=10.0 ** -(8 + k % 3), atol=10.0 ** -(9 + k % 4), max_step=(0.05, 0.1, 0.2)[k % 3],
        )
        for k, y0 in enumerate(_starts(4, BATCH))
    ]
    out = _batched(monkeypatch, X, cfgs)
    for traj, cfg in zip(out, cfgs):
        _assert_close(traj, integrate(X, cfg), {})
    # the tolerances took effect: the loosest members take the fewest steps
    assert len({traj.accepted for traj in out}) > 3


def test_batched_chen_variant_with_quadrature(monkeypatch):
    d, monitors, quads = _chen_variant_quadrature()
    X = d.bound_field()
    scales = {k: term_scale_fn(sf.expr, d.frame, "t") for k, sf in monitors.items()}
    cfgs = [IntegratorConfig(t0=0.0, t1=2.0, y0=y0) for y0 in _starts(5, BATCH, 0.05, 0.15)]
    out = _batched(monkeypatch, X, cfgs, monitors=monitors, quadratures=quads)
    for traj, cfg in zip(out, cfgs):
        _assert_close(traj, integrate(X, cfg, monitors=monitors, quadratures=quads), scales)
        # F2 changes only through its explicit time dependence
        f2, acc = traj.monitors["F2"], traj.quadratures["int_dF2"]
        for t, y, v, q in zip(traj.times, traj.states, f2, acc):
            assert abs(v - f2[0] - q) <= 1e-6 * (1.0 + scales["F2"](y, t))


@pytest.mark.parametrize(
    "field,t1,bad,good",
    [
        (NAN_FIELD, 30.0, (1.0, 0.0, 0.0), lambda k: (1e-6 * (1 + k / 8), 0.0, 0.25)),
        (HUGE_FIELD, 3.0, (0.0, 0.0, 0.0), lambda k: (-1.7e308 + k * 1e306, 0.0, 1.0)),
        (None, 20.0, (1.0, 1.0, 1.0), lambda k: (1e-12 * (1 + k), 0.0, 0.1 * k)),
    ],
    ids=["nan", "overflow", "chen-variant-underflow"],
)
def test_aborting_members_leave_the_batch_with_integrates_bits(field, t1, bad, good):
    X = field or cat.instantiate("chen-variant").bound_field()
    cfgs = [IntegratorConfig(t0=0.0, t1=t1, y0=good(k)) for k in range(BATCH)]
    cfgs.insert(BATCH // 2, IntegratorConfig(t0=0.0, t1=t1, y0=bad))
    out = ensemble(X, cfgs)
    alone = integrate(X, cfgs[BATCH // 2])
    assert not alone.ok()
    assert _bits(out[BATCH // 2]) == _bits(alone)
    assert all(traj.ok() for k, traj in enumerate(out) if k != BATCH // 2)


def test_members_with_non_finite_monitors_leave_the_batch():
    cfgs = [IntegratorConfig(t0=0.0, t1=1.0, y0=(1.0 + k / 64, 0.0, 0.0)) for k in range(BATCH)]
    cfgs.append(IntegratorConfig(t0=0.0, t1=1.0, y0=(1e5, 0.0, 0.0)))
    huge = {"huge": ScalarField(parse("1e300*u^2"), UVW)}  # inf, not an error, past u = 1e4
    out = ensemble(HARMONIC, cfgs, monitors=huge)
    assert out[-1] == integrate(HARMONIC, cfgs[-1], monitors=huge)
    assert math.isinf(out[-1].monitors["huge"][0])
    assert all(math.isfinite(v) for traj in out[:-1] for v in traj.monitors["huge"])


def test_a_failing_monitor_aborts_only_its_own_ensemble_member():
    # ln(2 + u) fails only for the member whose amplitude exceeds 2
    log = {"log": ScalarField(parse("ln(2 + u)"), UVW)}
    cfgs = [IntegratorConfig(t0=0.0, t1=3.0, y0=(1.0 + k / 64, 0.0, 0.0)) for k in range(BATCH - 1)]
    cfgs.insert(BATCH // 2, IntegratorConfig(t0=0.0, t1=3.0, y0=(3.0, 0.0, 0.0)))
    out = ensemble(HARMONIC, cfgs, monitors=log)
    bad = out[BATCH // 2]
    assert bad == integrate(HARMONIC, cfgs[BATCH // 2], monitors=log)
    assert bad.aborted == "monitor log failed at t=2.31: math domain error"
    # cut back to the samples before t = 2.31, where 3*cos(t) = -2.0006
    full = integrate(HARMONIC, cfgs[BATCH // 2])
    assert np.array_equal(bad.times, full.times[:231]) and np.array_equal(bad.states, full.states[:231])
    assert np.array_equal(bad.monitors["log"], [math.log(2 + u) for u, _, _ in bad.states])
    assert all(traj.ok() and len(traj.times) == 301 for k, traj in enumerate(out) if k != BATCH // 2)


def test_identical_members_of_a_batch_are_equal(monkeypatch):
    d = cat.instantiate("qi", gamma=2)
    starts = _starts(6, BATCH)
    cfgs = [IntegratorConfig(t0=0.0, t1=2.0, y0=y0) for y0 in starts + starts[:1]]
    out = _batched(monkeypatch, d.bound_field(), cfgs, monitors={"H1": d.bound_scalar(d.h1)})
    assert out[0] == out[-1]


def test_batched_members_own_their_arrays(monkeypatch):
    d, monitors, quads = _chen_variant_quadrature()
    cfgs = [IntegratorConfig(t0=0.0, t1=1.0, y0=y0) for y0 in _starts(9, BATCH, 0.05, 0.15)]
    out = _batched(monkeypatch, d.bound_field(), cfgs, monitors=monitors, quadratures=quads)
    arrays = [[tr.times, tr.states, *tr.monitors.values(), *tr.quadratures.values()] for tr in out]
    # a view into the group's sample block would keep the whole block alive
    assert all(a.flags.owndata for member in arrays for a in member)
    for k, member in enumerate(arrays):
        for other in arrays[k + 1 :]:
            assert not any(np.shares_memory(a, b) for a in member for b in other)


def test_members_leave_a_batch_that_spans_many_dense_passes():
    # w' = w^2 blows up at t = 1/w0; ln(2 + u) fails once u < -2
    X = VectorField3.from_exprs([parse("v"), parse("-u"), parse("w^2")], UVW)
    log = {"log": ScalarField(parse("ln(2 + u)"), UVW)}
    cfgs = [IntegratorConfig(t0=0.0, t1=6.0, y0=(1.0 + k / 64, 0.0, 0.0)) for k in range(BATCH)]
    cfgs[3] = IntegratorConfig(t0=0.0, t1=6.0, y0=(1.0, 0.0, 0.4))
    cfgs[7] = IntegratorConfig(t0=0.0, t1=6.0, y0=(3.0, 0.0, 0.0))
    alone = []
    run = integrate_mod._run
    with pytest.MonkeyPatch.context() as m:
        m.setattr(integrate_mod, "_run", lambda *args: alone.append(args[-1]) or run(*args))
        out = ensemble(X, cfgs, monitors=log)
    assert alone == [cfgs[3], cfgs[7]]
    expected = [integrate(X, cfg, monitors=log) for cfg in cfgs]
    assert out[3] == expected[3] and out[7] == expected[7]
    assert out[3].aborted.startswith("step size underflow at t=2.5")
    assert out[7].aborted == "monitor log failed at t=2.31: math domain error"
    # the underflowing member left after several dense evaluations, the
    # others finished after several more
    passes = integrate_mod._DENSE_PASSES
    assert out[3].accepted > 3 * passes and min(tr.accepted for tr in out) > 3 * passes
    scales = {"log": lambda y, t: abs(math.log(2 + y[0]))}
    for k, (traj, alone_traj) in enumerate(zip(out, expected)):
        if k not in (3, 7):
            _assert_close(traj, alone_traj, scales)


# ---------------------------------------------------------------------------
# building blocks of the lockstep kernel, against the scalar kernel's
# formulas evaluated in Python floats.  Compared through float.hex, so that
# the sign of a zero counts.


def _hex(values):
    return [float(x).hex() for x in np.ravel(values)]


def _python_sum(products):
    """The scalar kernel's ``0.0 + p0 + p1 + ...``, one element at a time."""
    flat = [np.ravel(p).tolist() for p in products]
    out = []
    for column in zip(*flat):
        acc = 0.0
        for x in column:
            acc = acc + x
        out.append(acc)
    return out


@pytest.mark.parametrize("rows", range(1, 10))
@pytest.mark.parametrize("shape", [(3, 5), (3, 1), (5,), (1,)])
def test_tableau_sums_add_their_rows_in_order(rows, shape):
    # (rows, 3, 1) and (rows, 1) are the stage and error-norm sums of a
    # batch down to one live member
    rng = np.random.default_rng(rows * 10 + len(shape))
    # summed in another order, 1e16 + 1.0 - 1e16 + ... comes out different
    coeffs = np.array([1e16, 1.0, -1e16, 1.0, -0.0, 1.0, 0.0, 1.0, 1.0])[:rows]
    k = rng.standard_normal((rows, *shape)) * 10.0 ** rng.integers(-8, 9, (rows, *shape))
    k[:, 0] = 1.0
    products = coeffs.reshape(rows, *[1] * len(shape)) * k
    if shape[0] > 1:
        products[:, 1] = -0.0  # the sum must come out +0.0
    assert _hex(integrate_mod._wsum(products)) == _hex(_python_sum(products))


def _scalar_dense(t, h, y, K, ts, pruned):
    """The scalar kernel's dense output at ``ts`` for one step, in Python
    floats: as _dopri_source emits it (``pruned``), or with every zero
    term of the dense formula kept."""
    th = (ts - t) / h
    th = th if th > 0.0 else 0.0
    th = th if th < 1.0 else 1.0
    th2 = th * th
    powers = (th, th2, th2 * th, th2 * th2)
    out = []
    for i in range(len(y)):
        acc = 0.0
        for j, coeffs in enumerate(integrate_mod._P):
            terms = [c * p for c, p in zip(coeffs, powers) if c or not pruned]
            if not terms:
                continue
            w = terms[0]
            for x in terms[1:]:
                w = w + x
            acc = acc + K[j][i] * w
        out.append(y[i] + h * acc)
    return out


def test_dense_output_equals_the_scalar_formula():
    dim = 4
    grid = np.array([0.1 * (k + 1) for k in range(10)])
    rng = np.random.default_rng(5)

    def step(t, h):
        y = rng.standard_normal(dim)
        K = rng.standard_normal((7, dim))
        return t, h, y, K

    # member 0 spans three passes; member 1 starts after its first sample
    # time (th clamped to 0) and ends 5e-15 short of 0.4 (th clamped to 1);
    # member 2 has signed zeros in y and K
    signed = step(0.0, 0.35)
    signed[2][:] = [-0.0, 0.0, -0.0, 1.5]
    signed[3][:, 0] = -0.0
    signed[3][2:, 1] = [0.0, -0.0, 0.0, -0.0, 0.0]
    passes = [
        {0: step(0.0, 0.15), 1: step(0.15, 0.25 - 5e-15), 2: signed},
        {0: step(0.15, 0.1), 2: step(0.35, 0.3)},
        {0: step(0.25, 0.75), 2: step(0.65, 0.35)},
    ]
    steps, columns = [], []
    for members in passes:
        pos = np.array(sorted(members))
        t, h = (np.array([members[j][k] for j in pos]) for k in (0, 1))
        steps.append((pos, np.ones(len(pos), dtype=bool), t + h))
        for j in pos:
            t_, h_, y, K = members[j]
            columns.append(np.concatenate(([t_, h_], y, K.ravel())))
    block = np.full((3, 1 + len(grid), dim), np.nan)
    done = np.zeros(3, dtype=np.intp)
    integrate_mod._dense(block, grid, done, steps, np.array(columns).T)
    assert done.tolist() == [10, 4, 10]
    for j in range(3):
        emitted = 0
        for members in passes:
            if j not in members:
                continue
            t, h, y, K = members[j]
            a = abs(t + h)
            while emitted < len(grid) and grid[emitted] <= t + h + 1e-14 * max(a, 1.0):
                ts = grid[emitted]
                want = _scalar_dense(t, h, y, K, ts, pruned=True)
                assert _hex(want) == _hex(_scalar_dense(t, h, y, K, ts, pruned=False))
                assert _hex(block[j, 1 + emitted]) == _hex(want), (j, ts)
                emitted += 1
        assert emitted == done[j]
        assert np.isnan(block[j, 1 + emitted :]).all() and np.isnan(block[j, 0]).all()
    # the clamps and signed zeros were reached
    assert (grid[0] - 0.15) / 0.25 < 0.0 and (grid[3] - 0.15) / (0.25 - 5e-15) > 1.0
    assert math.copysign(1.0, block[2, 1, 0]) == 1.0


def test_a_batch_narrowing_to_one_live_member(monkeypatch):
    # the tightest member takes the most steps, so it is the last one live
    d = cat.instantiate("qi", gamma=2)
    X = d.bound_field()
    cfgs = [
        IntegratorConfig(t0=0.0, t1=2.0, y0=y0, rtol=10.0 ** -(6 + (k == 5) * 6), atol=1e-9)
        for k, y0 in enumerate(_starts(10, BATCH))
    ]
    shapes = []
    wsum = integrate_mod._wsum
    monkeypatch.setattr(integrate_mod, "_wsum", lambda p: shapes.append(np.shape(p)) or wsum(p))
    out = _batched(monkeypatch, X, cfgs)
    assert (6, 3, 1) in shapes and (3, 1) in shapes
    assert out[5].accepted > max(traj.accepted for k, traj in enumerate(out) if k != 5)
    for traj, cfg in zip(out, cfgs):
        _assert_close(traj, integrate(X, cfg), {})


def test_trajectory_equality_compares_arrays_exactly():
    cfg = IntegratorConfig(t0=0.0, t1=1.0, y0=(1.0, 0.0, 0.0))
    huge = {"huge": ScalarField(parse("1e300*u^2"), UVW)}
    a, b = integrate(HARMONIC, cfg, monitors=huge), integrate(HARMONIC, cfg, monitors=huge)
    assert a == b and not a != b
    b.states[5, 1] = np.nextafter(b.states[5, 1], 1.0)
    assert a != b
    c = integrate(HARMONIC, cfg)
    assert c != a and c != "trajectory"
    # an integer t0 gives the same floats, and the same CSV, as 0.0
    d = integrate(HARMONIC, IntegratorConfig(t0=0, t1=1, y0=(1, 0, 0)), monitors=huge)
    assert d == a and d.to_csv() == a.to_csv()
    assert d.to_csv().splitlines()[1].startswith("0,1,0,0,")


def test_small_groups_stay_on_the_scalar_kernel():
    d = cat.instantiate("qi", gamma=2)
    X = d.bound_field()
    monitors = {"H1": d.bound_scalar(d.h1)}
    batch = [IntegratorConfig(t0=0.0, t1=2.0, y0=y0) for y0 in _starts(7, BATCH)]
    pair = [IntegratorConfig(t0=0.0, t1=3.0, y0=y0) for y0 in _starts(8, 2)]
    out = ensemble(X, pair[:1] + batch + pair[1:], monitors=monitors)
    assert [out[0], out[-1]] == [integrate(X, cfg, monitors=monitors) for cfg in pair]


def test_package_attribute_is_the_integrate_module():
    import biham3

    assert biham3.integrate is integrate_mod
    assert biham3.integrate.ensemble is ensemble
