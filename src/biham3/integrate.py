"""Numerical integration of (possibly non-autonomous) 3D flows.

Two schemes: classical fixed-step RK4 and an adaptive Dormand-Prince
5(4) pair [1] with PI step-size control [2], FSAL reuse, and
fourth-order dense output evaluated at the requested sample grid.
Conserved quantities are tracked through per-sample monitor functions;
explicit time-derivative integrals (for the non-autonomous
Hamiltonians) are accumulated as extra quadrature states so that their
accuracy follows the step-error control.

The adaptive loop is generated Python source, one kernel per state
dimension (3 plus the number of quadratures), built with ``exec`` once
per :func:`integrate` or :func:`ensemble` call and never at import.  It
unrolls the seven stages, the fifth-order update and the error norm over
scalar locals and calls the compiled right-hand side once per stage with
positional scalars.  It performs the same float operations in the same
order as the generic stage loop it replaced (``sum()`` over the tableau
rows, zero coefficients included), so trajectories, monitors and step
counts are bit-identical to that loop's; ``tests/test_integrate.py``
pins their digests.  The kernel evaluates no dense output: it records
each accepted step that reaches a sample time, and one numpy function,
``_dense``, turns the recorded steps into samples, with the scalar
formula's float operations in its order.  An ensemble compiles the
right-hand side, the monitors and the kernel once for all members.

An ensemble's adaptive members that share ``(t0, t1, sample_dt)`` are
stepped together, once there are ``_BATCH_MIN`` of them, by a lockstep
numpy kernel over arrays of members.  It computes the scalar kernel's
values, element by element, with a right-hand side compiled from the same
expression source.  It differs from the scalar kernel only where numpy's
``exp``, ``power`` and squares round differently from libm's: on the qi
ensemble every member takes the same steps and its states agree to about
1e-13 relative, but not to the bit.  Members that abort are run again
alone by the scalar kernel; everything else (smaller groups, rk4
members, :func:`integrate`) only ever runs the scalar kernel.

A :class:`Trajectory` holds its samples as numpy float64 arrays, and no
run keeps a Python object per sample.  The scalar kernel's steps go to
``_dense`` ``_DENSE_STEPS`` at a time, which writes their samples into
one preallocated array; the monitors are called on one ``_BLOCK`` of
rows at a time, and :meth:`Trajectory.to_csv` formats and writes one
block at a time.  Each batched member copies its rows out of its group's
sample block, so no member keeps that block alive.  A pass of the
lockstep kernel costs numpy calls, not arithmetic, so it makes few of
them and keeps their operands C-contiguous: each tableau sum is one
``np.add.reduce`` that adds its rows in the scalar order, the step
control clamps with ``np.fmin``/``np.fmax``, and the stages are computed
into one table of kept steps.  Every ``_DENSE_PASSES`` passes, ``_dense``
evaluates the dense output of all the kept steps at once.

Everything here is deterministic: no randomness, fixed evaluation
order.  Identical configurations produce bit-identical trajectories,
within one batch as well as on the scalar kernel.

[1] Dormand & Prince, J. Comp. Appl. Math. 6 (1980) 19-26.
[2] Hairer, Norsett & Wanner, Solving Ordinary Differential Equations I,
    2nd ed., Springer 1993, sections II.4 (step control) and II.6 (dense
    output).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .vecfield import ScalarField, VectorField3

# Dormand-Prince 5(4) tableau.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
# b5 - b4: local error weights
_E = (
    71 / 57600,
    0.0,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)
# Dense-output polynomial (order-4 continuous extension).
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0

_RHS_ERRORS = (ZeroDivisionError, ValueError, OverflowError)

MAX_POINTS = 10**6  # adaptive: sample rows and (t1 - t0)/max_step; rk4: steps
MIN_STEP = 1e-13  # an adaptive step below this aborts the run
_BLOCK = 1024  # rows per block of the monitors and of Trajectory.to_csv


class IntegrationError(ex.InputError):
    """An IntegratorConfig that no run could follow."""


@dataclass(frozen=True)
class IntegratorConfig:
    t0: float
    t1: float
    y0: tuple
    method: str = "adaptive"  # "adaptive" | "rk4"
    step: float = None  # rk4 step size
    rtol: float = 1e-10
    atol: float = 1e-10
    max_step: float = 0.1
    sample_dt: float = 0.01

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.t1)):
            raise IntegrationError("t0 and t1 must be finite")
        if len(self.y0) != 3:
            raise IntegrationError("initial state must have three components")
        if not all(math.isfinite(c) for c in self.y0):
            raise IntegrationError("initial state must be finite")
        if self.t1 <= self.t0:
            raise IntegrationError("t1 must exceed t0")
        if self.method not in ("adaptive", "rk4"):
            raise IntegrationError(f"unknown method {self.method!r}")
        if self.method == "rk4" and not self.step:
            raise IntegrationError("rk4 needs a step size")
        # the sizes the chosen method reads
        if self.method == "rk4":
            sizes = ("step",)
        else:
            sizes = ("rtol", "atol", "max_step", "sample_dt")
        for name in sizes:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise IntegrationError(f"{name} must be positive and finite, got {value!r}")
        for size in ("step",) if self.method == "rk4" else ("sample_dt", "max_step"):
            if (self.t1 - self.t0) / getattr(self, size) > MAX_POINTS:
                raise IntegrationError(f"(t1 - t0)/{size} must be at most {MAX_POINTS}")


@dataclass(eq=False)
class Trajectory:
    """Samples of one run, as float64 arrays: ``times`` has shape
    ``(rows,)``, ``states`` ``(rows, 3)``, and each ``monitors`` and
    ``quadratures`` entry ``(rows,)``.  Two trajectories are equal when
    every array is exactly equal (nan equal to nan) and so are the other
    fields."""

    frame: tuple
    times: np.ndarray
    states: np.ndarray
    monitors: dict = field(default_factory=dict)
    quadratures: dict = field(default_factory=dict)
    accepted: int = 0
    rejected: int = 0
    aborted: str = None

    def __eq__(self, other):
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            (self.frame, self.accepted, self.rejected, self.aborted)
            == (other.frame, other.accepted, other.rejected, other.aborted)
            and list(self.monitors) == list(other.monitors)
            and list(self.quadratures) == list(other.quadratures)
            and all(
                np.array_equal(a, b, equal_nan=True)
                for a, b in zip(
                    (self.times, self.states, *self.monitors.values(), *self.quadratures.values()),
                    (other.times, other.states, *other.monitors.values(), *other.quadratures.values()),
                )
            )
        )

    def ok(self):
        return self.aborted is None

    def to_csv(self, fh=None):
        """Full-precision CSV: header t,<v1>,<v2>,<v3>[,monitor...].

        Rows are formatted ``_BLOCK`` at a time, so only one block of them
        is ever held as Python objects.  Each block is written to ``fh``
        as soon as it is formatted; with no ``fh`` the text is returned."""
        parts = []
        write = parts.append if fh is None else fh.write
        names = list(self.monitors)
        row = ",".join(["%.17g"] * (4 + len(names))) + "\n"
        columns = (self.times, self.states, *self.monitors.values())
        write(",".join([ex.TIME, *self.frame, *names]) + "\n")
        for k in range(0, len(self.times), _BLOCK):
            table = np.column_stack([c[k : k + _BLOCK] for c in columns]).tolist()
            write("".join([row % tuple(values) for values in table]))
        return "".join(parts) if fh is None else None


def _compile_rhs(X: VectorField3, quadratures):
    """One ``f(u, v, w, t)`` returning the field components followed by
    the quadrature integrands."""
    exprs = [c.expr for c in X.components] + [q.expr for q in quadratures]
    return ex.compile_vector(exprs, X.frame + (ex.TIME,))


def _compile_monitors(monitors, frame):
    names = frame + (ex.TIME,)
    return [(name, ex.compile_fn(sf.expr, names)) for name, sf in monitors]


def integrate(X: VectorField3, cfg: IntegratorConfig, monitors=None, quadratures=None):
    """Integrate xdot = X(x, t), sampling states and monitor values.

    ``monitors`` maps name -> ScalarField evaluated at each sample;
    ``quadratures`` maps name -> ScalarField whose time integral is
    carried as an extra state (reported per sample, starting at 0).

    Step underflow, a failing right-hand side or a non-finite derivative
    or state aborts with the partial trajectory and a reason in
    ``Trajectory.aborted``; so does a monitor that cannot be evaluated at
    a sample, which cuts the trajectory back to the samples before it.
    """
    return ensemble(X, [cfg], monitors, quadratures)[0]


def ensemble(X, configs, monitors=None, quadratures=None):
    """Independent trajectories, deterministic; a failure in one
    trajectory is isolated in its own Trajectory.aborted.

    Adaptive members that share ``(t0, t1, sample_dt)``, and so one sample
    grid, are stepped together by a lockstep numpy kernel once at least
    ``_BATCH_MIN`` of them do; each returned trajectory owns its arrays.
    A batched member agrees with what :func:`integrate` gives for its
    configuration alone to roundoff, not to the bit, because numpy's
    ``exp``, ``power`` and squares differ from libm's in the last bit:
    the tests see equal accepted and rejected counts, equal ``times``,
    and states, quadratures and monitors within 1e-9 relative.  A member
    that underflows its step size or meets a non-finite value is taken
    out of the batch and run alone, so its partial trajectory and reason
    are exactly :func:`integrate`'s.  Every other member (smaller groups, rk4) runs
    the scalar kernel and equals :func:`integrate` bit for bit.  Repeated
    runs on one machine give identical bits either way.
    """
    monitors = list((monitors or {}).items())
    quadratures = list((quadratures or {}).items())
    quad_names = [name for name, _ in quadratures]
    out = [None] * len(configs)
    groups = {}
    for n, cfg in enumerate(configs):
        if cfg.method == "adaptive":
            groups.setdefault((cfg.t0, cfg.t1, cfg.sample_dt), []).append(n)
    groups = [members for members in groups.values() if len(members) >= _BATCH_MIN]
    if groups:
        names = X.frame + (ex.TIME,)
        f = ex.compile_columns([c.expr for c in X.components] + [sf.expr for _, sf in quadratures], names)
        mon = ex.compile_columns([sf.expr for _, sf in monitors], names)
        mon_names = [name for name, _ in monitors]
        for members in groups:
            cfgs = [configs[n] for n in members]
            for n, traj in zip(members, _batch(f, mon, X.frame, mon_names, quad_names, cfgs)):
                out[n] = traj
    rest = [n for n, traj in enumerate(out) if traj is None]
    if rest:
        rhs = _compile_rhs(X, [sf for _, sf in quadratures])
        mons = _compile_monitors(monitors, X.frame)
        adaptive = any(configs[n].method == "adaptive" for n in rest)
        kernel = _dopri_kernel(3 + len(quadratures)) if adaptive else None
        for n in rest:
            out[n] = _run(X.frame, rhs, mons, quad_names, kernel, configs[n])
    return out


def _run(frame, rhs, mons, quad_names, kernel, cfg):
    y = tuple(cfg.y0) + (0.0,) * len(quad_names)
    if cfg.method == "rk4":
        times, rows = [cfg.t0], [y]
        accepted, rejected, aborted = _run_rk4(rhs, cfg, y, times, rows)
        times, rows = np.array(times, dtype=float), np.array(rows, dtype=float)
    else:
        times, rows, accepted, rejected, aborted = _run_dopri(kernel, rhs, y, cfg)
    monitors, n, failure = _monitor_values(mons, times, rows)
    return Trajectory(
        frame=frame,
        times=times[:n],
        states=np.ascontiguousarray(rows[:n, :3]),
        monitors={name: values[:n] for name, values in monitors.items()},
        quadratures={name: rows[:n, 3 + q].copy() for q, name in enumerate(quad_names)},
        accepted=accepted,
        rejected=rejected,
        aborted=failure or aborted,
    )


def _run_dopri(kernel, rhs, y, cfg):
    """The adaptive run: the kernel records its steps, and ``_dense``
    turns them into samples, ``_DENSE_STEPS`` steps at a time, in one
    preallocated block.  Returns the sample times, the ``(rows, dim)``
    samples (row 0 the initial state), the step counts and the reason."""
    times = _time_grid(cfg)
    grid = times[1:]
    dim = len(y)
    block = np.empty((1, len(times), dim))
    block[0, 0] = y
    done = np.zeros(1, dtype=np.intp)
    record = array("d")

    def flush():
        if record:
            # a copy in the table's layout, one column per step; no view
            # may outlive this, or the record could not shrink
            table = np.frombuffer(record).reshape(-1, 2 + 8 * dim).T.copy()
            n = table.shape[1]
            steps = (np.zeros(n, dtype=np.intp), np.ones(n, dtype=bool), table[0] + table[1])
            _dense(block, grid, done, [steps], table)
            del record[:]

    h = min(cfg.max_step, (cfg.t1 - cfg.t0) / 100.0)
    accepted, rejected, aborted = kernel(
        rhs, y, cfg.t0, cfg.t1, h, cfg.max_step, cfg.rtol, cfg.atol, grid, record, flush
    )
    flush()
    n = 1 + int(done[0])
    return times[:n], block[0, :n], accepted, rejected, aborted


def _monitor_values(mons, times, rows):
    """Each monitor's values at the samples, as an array, and the number
    of samples kept, with the reason a monitor failed (or None).  The
    scalar monitor functions are called on Python floats, a block of
    ``_BLOCK`` rows at a time.  A monitor that fails at a sample cuts the
    samples back to the ones before it; the monitors after it see only
    those."""
    n = len(times)
    values = {name: np.empty(n) for name, _ in mons}
    failure = None
    k = 0
    while mons and k < n:
        block = np.column_stack((rows[k : k + _BLOCK, :3], times[k : k + _BLOCK])).tolist()
        for name, f in mons:
            out = values[name][k:]
            try:
                out[: len(block)] = [f(u, v, w, t) for u, v, w, t in block]
            except _RHS_ERRORS:
                j, failure = _first_failure(name, f, block, out)
                del block[j:]
                n = k + j
        k += _BLOCK
    return values, n, failure


def _first_failure(name, f, block, out):
    """Write the monitor's values at the rows of ``block`` into ``out`` up
    to the first failing row; return that row and the failure."""
    for j, (u, v, w, t) in enumerate(block):
        try:
            out[j] = f(u, v, w, t)
        except _RHS_ERRORS as err:
            return j, f"monitor {name} failed at t={t:.6g}: {err}"


class _Abort(Exception):
    pass


def _derivative(rhs, t, y):
    try:
        dy = rhs(y[0], y[1], y[2], t)
    except _RHS_ERRORS as err:
        raise _Abort(f"right-hand side failed at t={t:.6g}: {err}")
    if not all(math.isfinite(c) for c in dy):
        raise _Abort(f"non-finite derivative at t={t:.6g}")
    return dy


def _run_rk4(rhs, cfg, y, times, rows):
    """Append each step's time and state (quadratures included); return
    ``(accepted, rejected, reason)`` as the adaptive kernel does."""
    dim = len(y)
    span = cfg.t1 - cfg.t0
    n = max(1, round(span / cfg.step))
    h = span / n
    t = cfg.t0
    for k in range(n):
        try:
            k1 = _derivative(rhs, t, y)
            k2 = _derivative(rhs, t + h / 2, tuple(y[i] + h / 2 * k1[i] for i in range(dim)))
            k3 = _derivative(rhs, t + h / 2, tuple(y[i] + h / 2 * k2[i] for i in range(dim)))
            k4 = _derivative(rhs, t + h, tuple(y[i] + h * k3[i] for i in range(dim)))
        except _Abort as err:
            return k, 0, str(err)
        y = tuple(
            y[i] + h / 6 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) for i in range(dim)
        )
        if not all(math.isfinite(c) for c in y):
            return k, 0, f"non-finite state at t={t + h:.6g}"
        t = cfg.t0 + (k + 1) * h
        times.append(t)
        rows.append(y)
    return n, 0, None


def _time_grid(cfg):
    """``t0`` followed by the sample times, as one float64 array."""
    n = int(math.floor((cfg.t1 - cfg.t0) / cfg.sample_dt + 1e-9))
    times = np.empty(n + 2)
    times[0] = cfg.t0
    times[1 : n + 1] = cfg.t0 + np.arange(1, n + 1) * cfg.sample_dt
    if n and times[n] >= cfg.t1 - 1e-9 * max(1.0, abs(cfg.t1)):
        times = times[: n + 1]
    else:
        times[-1] = cfg.t1
    times[-1] = min(times[-1], cfg.t1)
    return times


# ---------------------------------------------------------------------------
# generated Dormand-Prince kernel
#
# The loop below is the adaptive integrator: one accepted or rejected step
# per pass, PI step control and FSAL reuse.  It is written out as
# straight-line code over scalar locals for one state dimension, so a step
# costs six right-hand-side calls plus plain float arithmetic.  Each
# quantity takes the float operations, in the order, of the per-component
# formulation on the left, less the terms that can change no value
# (below), so trajectories are bit-identical to a loop written that way:
#
#   stage/update/error sums  sum(c[j] * K[j][i] for j)  ->  0.0 + c0 * k0_i + ...
#     (sum() starts from the integer 0, which becomes 0.0 at the first float)
#   error norm               err = 0.0; err += (e / sc) ** 2 per component
#                            (inf once |e / sc| >= 1e150, below the square
#                            that ** 2 refuses with OverflowError; either
#                            way the step is rejected, with the same factor)
#   min(a, b), max(a, b)     b if b < a else a, b if b > a else a
#
# Terms with a zero coefficient are left out: the 0.0 * k products of the
# tableau sums.  Each k is checked finite right after its stage, so 0.0 * k
# is a zero of some sign.  A sum that starts at 0.0 is never -0.0 (in
# round-to-nearest, x + y is -0.0 only when both are), and adding a zero of
# either sign to it leaves it as it is.
#
# The kernel evaluates no dense output.  An accepted step that reaches at
# least one sample time is recorded: its t, h, y and seven stages, appended
# to a flat float64 buffer in the column layout of _lockstep's table.  Every
# _DENSE_STEPS recorded steps, and once the run ends, ``_dense`` evaluates
# their samples (see there), so the record does not grow with t1.
#
# A finiteness test is ``x0 * 0.0 + x1 * 0.0 + ... != 0.0``: each product is
# a signed zero for a finite x and nan otherwise.

_DENSE_STEPS = 1024  # recorded steps per _dense call of the scalar kernel


def _combo(coeffs, terms):
    """``0.0 + c0 * x0 + ...`` without the terms whose coefficient is zero."""
    return "0.0" + "".join(f" + {c!r} * {x}" for c, x in zip(coeffs, terms) if c)


def _not_finite(names):
    return " + ".join(f"{x} * 0.0" for x in names) + " != 0.0"


def _dopri_source(dim):
    """Source of ``dopri(f, y, t, ...)`` for ``dim`` state components.

    ``samples`` is the sorted float64 array of sample times after ``t``.
    Each accepted step that reaches the next of them appends its t, h, y
    and stages to the ``array('d')`` ``record``, and ``flush()`` is called
    once the record holds ``_DENSE_STEPS`` steps.  Returns ``(accepted,
    rejected, reason)`` where ``reason`` is None unless the run aborted.
    """
    idx = range(dim)
    ys = [f"y_{i}" for i in idx]
    k = [[f"k{s}_{i}" for i in idx] for s in range(7)]
    out = ["def dopri(f, y, t, t1, h, max_step, rtol, atol, samples, record, flush):"]

    def put(depth, *lines):
        out.extend("    " * depth + line for line in lines)

    def stage(depth, s, state, time):
        put(
            depth,
            f"ts = {time}",
            "try:",
            f"    r = f({', '.join(state[:3])}, ts)",
            "except _RHS_ERRORS as exc:",
            '    return accepted, rejected, f"right-hand side failed at t={ts:.6g}: {exc}"',
            f"{', '.join(k[s])}, = r",
            f"if {_not_finite(k[s])}:",
            '    return accepted, rejected, f"non-finite derivative at t={ts:.6g}"',
        )

    put(
        1,
        f"{', '.join(ys)}, = y",
        "record_extend = record.extend",
        "accepted = rejected = 0",
        "n_samples = len(samples)",
        "next_ts = samples.item(0)",
        "facold = 1e-4",
        "a = abs(t1)",
        "t_end = t1 - 1e-14 * (a if a > 1.0 else 1.0)",
    )
    stage(1, 0, ys, "t")
    put(
        1,
        "while t < t_end:",
        "    d = t1 - t",
        "    if d < h:",
        "        h = d",
        f"    if h < {MIN_STEP!r}:",
        '        return accepted, rejected, f"step size underflow at t={t:.6g} (h={h:.3e})"',
    )
    for s in range(1, 7):
        z = [f"z_{i}" for i in range(3)]
        put(2, *(f"{z[i]} = {ys[i]} + h * ({_combo(_A[s], [k[j][i] for j in range(s)])})" for i in range(3)))
        stage(2, s, z, f"t + {_C[s]!r} * h")
    n = [f"n_{i}" for i in idx]
    put(2, *(f"{n[i]} = {ys[i]} + h * ({_combo(_B5, [k[j][i] for j in range(7)])})" for i in idx))
    put(2, f"if {_not_finite(n)}:", '    return accepted, rejected, f"non-finite state at t={t + h:.6g}"')
    for i in idx:
        put(
            2,
            f"e = h * ({_combo(_E, [k[j][i] for j in range(7)])})",
            f"a = abs({ys[i]})",
            f"b = abs({n[i]})",
            "q = e / (atol + rtol * (b if b > a else a))",
            f"s_{i} = q ** 2 if -1e150 < q < 1e150 else _INF",
        )
    put(
        2,
        f"err = _sqrt(({' + '.join(['0.0'] + [f's_{i}' for i in idx])}) / {dim})",
        "if err <= 1.0:",
        "    tn = t + h",
        "    a = abs(tn)",
        "    lim = tn + 1e-14 * (a if a > 1.0 else 1.0)",
        "    if next_ts <= lim:",
        f"        record_extend((t, h, {', '.join(ys + [x for row in k for x in row])}))",
        '        ns = samples.searchsorted(lim, "right")',
        "        next_ts = samples.item(ns) if ns < n_samples else _INF",
        f"        if len(record) == {_DENSE_STEPS * (2 + 8 * dim)}:",
        "            flush()",
    )
    put(
        3,
        "accepted += 1",
        "t = tn",
        *(f"{ys[i]} = {n[i]}" for i in idx),
        *(f"{k[0][i]} = {k[6][i]}" for i in idx),
        f"fac = {_SAFETY!r} * err ** -0.17 * facold ** 0.04 if err > 0 else {_FAC_MAX!r}",
        f"fac = fac if fac > {_FAC_MIN!r} else {_FAC_MIN!r}",
        f"fac = fac if fac < {_FAC_MAX!r} else {_FAC_MAX!r}",
        "facold = 1e-4 if 1e-4 > err else err",
        "hn = h * fac",
        "h = hn if hn < max_step else max_step",
    )
    put(
        2,
        "else:",
        "    rejected += 1",
        f"    fac = {_SAFETY!r} * err ** -0.2",
        f"    fac = fac if fac > {_FAC_MIN!r} else {_FAC_MIN!r}",
        "    h = h * (fac if fac < 1.0 else 1.0)",
    )
    put(1, "return accepted, rejected, None")
    return "\n".join(out) + "\n"


def _dopri_kernel(dim):
    namespace = {"_RHS_ERRORS": _RHS_ERRORS, "_sqrt": math.sqrt, "_INF": math.inf}
    exec(_dopri_source(dim), namespace)
    return namespace["dopri"]


# ---------------------------------------------------------------------------
# lockstep Dormand-Prince kernel
#
# The members of one group share t0, t1 and the sample grid; each keeps its
# own t, h, facold, tolerances and step bounds, as arrays over the live
# members, and its state as a C-contiguous (dim, members) array.  One pass
# of the loop makes one accepted or rejected step for every live member,
# with the scalar kernel's elementwise operations in its order.  Its
# tableau sums keep the zero entries the scalar kernel drops: 0.0 * k of a
# finite k changes no sum that starts at 0.0, and of a non-finite k it
# makes the new state nan, which takes the member out of the batch.  Each
# sum over the rows of a product array is one ``np.add.reduce`` that adds
# the rows in order (_wsum), and each ``x if x > c else c`` of the step
# control is one ``np.fmax`` (``np.fmin`` for ``<``), which also maps nan to
# c.  The right-hand side comes from the same emitted body as the scalar
# one, evaluated by numpy ufuncs.  Members leave the arrays when they reach
# t1; a member that underflows its step size or meets a non-finite
# derivative or state leaves them too, marked to be run alone by the
# scalar kernel.
#
# Each pass writes t, h, y and its seven stages into the next columns of
# one table, which the stages are computed in.  Dense output runs every
# _DENSE_PASSES passes and at the end: _dense gathers, with ``np.take``,
# the table column of every (member, sample) pair's step into contiguous
# rows and evaluates the samples of all accepted steps since its last call
# at once.

_BATCH_MIN = 16  # smallest group the lockstep kernel runs; see _batch
_DENSE_PASSES = 32  # passes kept between dense evaluations; bounds their memory
# samples per numpy evaluation of dense output or of a batch's monitors;
# bounds their temporaries
_SAMPLES_PER_CALL = 8192


def _wsum(products):
    """``0.0 + products[0] + products[1] + ...`` over the first axis,
    summed as the scalar kernel sums its tableau rows.  ``np.add.reduce``
    adds up to seven rows one after another: past that it may sum them
    pairwise, so longer sums add their rows one at a time here."""
    if len(products) <= 7:
        return np.add.reduce(products, axis=0, initial=0.0)
    acc = 0.0
    for p in products:
        acc = acc + p
    return acc


def _stage(f, k, z, t):
    for i, column in enumerate(f(z[0], z[1], z[2], t)):
        k[i] = column


def _batch(f, mon, frame, mon_names, quad_names, cfgs):
    """Trajectories of members sharing ``(t0, t1, sample_dt)``, stepped in
    lockstep; None for each member that must be run by the scalar kernel.
    Each trajectory owns its arrays: they are copied out of the group's
    sample block, which is freed on return.

    ``f`` is the right-hand side and ``mon`` the monitors, both from
    :func:`expr.compile_columns`.  The monitors are evaluated straight
    from the block, ``_SAMPLES_PER_CALL`` samples of members at a time,
    so their temporaries stay small.  Below about 14 members the per-step
    numpy overhead costs more than the scalar kernel's per-member loop:
    on qi members from t=0 to t=10, a batch runs at 0.65 times the scalar
    speed with 8 members, 0.9 times with 12, 1.1 to 1.2 times with 14 to
    20, 1.5 times with 24, 1.6 times with 32 and 6.5 times with 256
    (medians of five alternating runs, two CPU cores).
    ``_BATCH_MIN`` is where a batch is about 1.2 times faster.
    """
    grid_t = _time_grid(cfgs[0])
    with np.errstate(all="ignore"):
        block, done, accepted, rejected, rerun = _lockstep(f, cfgs, grid_t[1:], 3 + len(quad_names))
    chunk = max(1, _SAMPLES_PER_CALL // len(grid_t))
    out = []
    for j in range(len(cfgs)):
        if mon_names and j % chunk == 0:
            values = _block_monitors(mon, len(mon_names), block[j : j + chunk], grid_t)
        if rerun[j]:
            out.append(None)
            continue
        rows = block[j, : 1 + done[j]]
        traj = Trajectory(
            frame=frame,
            times=grid_t[: len(rows)].copy(),
            states=rows[:, :3].copy(),
            quadratures={name: rows[:, 3 + q].copy() for q, name in enumerate(quad_names)},
            accepted=int(accepted[j]),
            rejected=int(rejected[j]),
        )
        if mon_names:
            member = values[:, j % chunk, : len(rows)]
            if not np.isfinite(member).all():
                # the scalar path raises or returns what its monitors do
                out.append(None)
                continue
            traj.monitors = {name: column.copy() for name, column in zip(mon_names, member)}
        out.append(traj)
    return out


def _block_monitors(mon, count, members, times):
    """The ``(monitor, member, row)`` values of ``count`` monitors over a
    ``(members, rows, dim)`` slice of the sample block; a failure leaves a
    non-finite value."""
    values = np.empty((count, *members.shape[:2]))
    with np.errstate(all="ignore"):
        columns = (np.ascontiguousarray(members[:, :, i]) for i in range(3))
        for v, column in zip(values, mon(*columns, times)):
            v[...] = column  # a constant monitor is a float, which broadcasts
    return values


def _lockstep(f, cfgs, grid, dim):
    """Run the group; return the ``(members, rows, dim)`` sample block (row
    0 the initial state), the samples each member emitted, its accepted
    and rejected step counts, and which members must be run alone."""
    m = len(cfgs)
    t0, t1 = cfgs[0].t0, cfgs[0].t1
    block = np.zeros((m, 1 + len(grid), dim))
    block[:, 0, :3] = [cfg.y0 for cfg in cfgs]
    done = np.zeros(m, dtype=np.intp)
    accepted = np.zeros(m, dtype=np.intp)
    rejected = np.zeros(m, dtype=np.intp)
    rerun = np.zeros(m, dtype=bool)
    A = [np.array(row)[:, None, None] for row in _A]
    C = np.array(_C)[:, None]
    BE = np.array([_B5, _E]).T[:, :, None, None]  # (stage, update or error, 1, 1)
    # rows t, h, y, then the seven stages; one column per live member and
    # pass, for the passes since the last _dense, whose (pos, ok, tn) are
    # in steps
    table = np.empty((2 + 8 * dim, _DENSE_PASSES * m))
    stages = table[2 + dim :].reshape(7, dim, -1)
    used = 0
    steps = []

    pos = np.arange(m)  # block row of each live member
    rtol, atol, max_step = np.array(
        [(cfg.rtol, cfg.atol, cfg.max_step) for cfg in cfgs], dtype=float
    ).T
    h = np.minimum(max_step, (t1 - t0) / 100.0)
    t = np.full(m, t0, dtype=float)
    facold = np.full(m, 1e-4)
    y = block[:, 0].T.copy()
    a = abs(t1)
    t_end = t1 - 1e-14 * (a if a > 1.0 else 1.0)
    k0 = np.empty((dim, m))
    _stage(f, k0, y, t)
    bad = ~np.isfinite(k0).all(axis=0)
    while True:
        rerun[pos[bad]] = True
        live = ~bad & (t < t_end)
        if not live.all():
            pos, t, h, facold, rtol, atol, max_step = (
                v[live] for v in (pos, t, h, facold, rtol, atol, max_step)
            )
            # compress keeps the (dim, members) arrays C-contiguous, where
            # y[:, live] would return them transposed
            y, k0 = y.compress(live, axis=1), k0.compress(live, axis=1)
        if not pos.size:
            _dense(block, grid, done, steps, table[:, :used])
            return block, done, accepted, rejected, rerun
        # the scalar kernel's ``if d < h: h = d``
        h = np.minimum(t1 - t, h)
        bad = h < MIN_STEP
        columns = slice(used, used + pos.size)
        table[0, columns] = t
        table[1, columns] = h
        table[2 : 2 + dim, columns] = y
        K = stages[:, :, columns]
        K[0] = k0
        ts = t + C * h  # the time of each stage
        for s in range(1, 7):
            _stage(f, K[s], y[:3] + h * _wsum(A[s] * K[:s, :3]), ts[s])
        update, e = h * _wsum(BE * K[:, None])
        yn = y + update
        # every stage enters this sum (0.0 * inf is nan), so a finite new
        # state means finite derivatives too
        bad |= ~np.isfinite(yn).all(axis=0)
        ratio2 = (e / (atol + rtol * np.maximum(np.abs(yn), np.abs(y)))) ** 2
        err = np.sqrt(_wsum(ratio2) / dim)
        ok = (err <= 1.0) & ~bad
        tn = t + h
        # err = 0 makes fac infinite, which fmin takes to _FAC_MAX as the
        # scalar kernel's err > 0 test does
        fac = np.fmin(np.fmax(_SAFETY * err**-0.17 * facold**0.04, _FAC_MIN), _FAC_MAX)
        shrink = np.fmin(np.fmax(_SAFETY * err**-0.2, _FAC_MIN), 1.0)
        h = np.where(ok, np.fmin(h * fac, max_step), h * shrink)
        facold = np.where(ok, np.fmax(err, 1e-4), facold)
        t = np.where(ok, tn, t)
        y = np.where(ok, yn, y)
        k0 = np.where(ok, K[6], k0)
        accepted[pos] += ok
        rejected[pos] += ~ok
        if ok.any():
            # the table keeps this pass's columns until the next _dense
            used += pos.size
            steps.append((pos, ok, tn))
            if len(steps) == _DENSE_PASSES:
                _dense(block, grid, done, steps, table[:, :used])
                used = 0
                steps = []


# ---------------------------------------------------------------------------
# dense output
#
# The continuous extension of [2], section II.6, for both kernels: the
# lockstep kernel's table and the scalar kernel's record have one layout.
# For each sample time ts of a step (t, h, y, K), with th = (ts - t) / h
# clamped to [0, 1], it takes the float operations, in the order, of
#
#   acc = 0.0; acc += K[j][i] * w_j per stage j; then y_i + h * acc
#   w_j = p0 * th + p1 * th^2 + p2 * th^3 + p3 * th^4, th^4 = th^2 * th^2
#
# less the terms that can change no value: the weight w1 (all four of its
# coefficients are zero) with its K[1] * w1 products, and the leading
# 0.0 * th of the other weights.  Each K is finite.  A weight without its
# leading 0.0 * th (th is at least +0.0, so that product is +0.0) can
# differ only in being -0.0 where it was +0.0; its products then are
# zeros, which leave the sum as it is.  Numpy's elementwise products and
# sums round as Python's floats do, so the samples are the bits of that
# formula evaluated one sample at a time (pinned in hex by
# ``test_dense_output_equals_the_scalar_formula``).


def _dense(block, grid, done, steps, table):
    """Dense output of the accepted steps among ``steps``, at every grid
    time up to each step's new time ``tn``: all (member, sample) pairs at
    once.  Each entry of ``steps`` holds the ``(pos, ok, tn)`` arrays of
    one lockstep pass, or of a run of the scalar kernel's recorded steps.
    ``table`` holds the t, h, y and stages of those steps, one column
    each, in order.  ``done[j]`` counts the samples member ``j`` has and
    is advanced."""
    if not steps:
        return
    pos, ok, tn = (np.concatenate(c) for c in zip(*steps))
    step = np.flatnonzero(ok)
    # by member, and within one member in pass order: each step's first
    # sample follows the last sample of the member's step before it
    step = step[np.argsort(pos[step], kind="stable")]
    who = pos[step]
    a = np.abs(tn[step])
    stop = np.searchsorted(grid, tn[step] + 1e-14 * np.fmax(a, 1.0), side="right")
    first = np.ones(len(step), dtype=bool)
    first[1:] = who[1:] != who[:-1]
    start = np.where(first, done[who], np.concatenate(([0], stop[:-1])))
    last = np.append(first[1:], True)
    done[who[last]] = stop[last]
    count = stop - start
    if not count.any():
        return
    sample = np.arange(count.sum()) + np.repeat(start - (np.cumsum(count) - count), count)
    column, member = np.repeat(step, count), np.repeat(who, count)
    # a step may reach many samples, so the pairs go _SAMPLES_PER_CALL at a time
    for k in range(0, len(sample), _SAMPLES_PER_CALL):
        pairs = slice(k, k + _SAMPLES_PER_CALL)
        block[member[pairs], 1 + sample[pairs]] = _dense_values(table, column[pairs], grid[sample[pairs]])


def _dense_values(table, column, ts):
    """The ``(samples, dim)`` dense output at times ``ts``, each of the step
    in its ``column`` of ``table``."""
    dim = (len(table) - 2) // 8
    # take returns the rows C-contiguous, where table[:, column] would
    # return them transposed
    G = np.take(table, column, axis=1)
    t, h, y, K = G[0], G[1], G[2 : 2 + dim], G[2 + dim :].reshape(7, dim, -1)
    th = np.fmin(np.fmax((ts - t) / h, 0.0), 1.0)
    th2 = th * th
    th3 = th2 * th
    th4 = th2 * th2
    # the weights above: stage 1's is zero and stages 2-6 have no th term
    w0 = _P[0][0] * th + _P[0][1] * th2 + _P[0][2] * th3 + _P[0][3] * th4
    p = np.array(_P[2:]).T[1:, :, None]  # (power, stage, 1)
    w = p[0] * th2 + p[1] * th3 + p[2] * th4
    # G is this call's own copy, so the products overwrite it; stage 0's
    # go where stage 1's were, and K[1:] lists them in the scalar order
    np.multiply(K[0], w0, out=K[1])
    np.multiply(K[2:], w[:, None], out=K[2:])
    return (y + h * _wsum(K[1:])).T
