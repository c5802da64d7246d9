"""What code and tests rely on of the record classes: immutability where a
record was frozen, value equality where values are compared, and defaults."""

import numpy as np
import pytest

from steepen import charpath, config, detector, eos, fields, riccati, solver
from steepen.expressions import Bin, Call, Neg, Num, Var, _Token, parse_expression


def _frozen_records_refuse_assignment():
    gc = eos.make_constants(3.0, 1.0)
    bounds = fields.AssumptionBounds(Z_L=0.5, Z_U=2.0, M1=0.5, M2=2.0, M3=1.0, M4=1.0)
    records = [
        (gc.exponents, "gamma"), (gc, "K"), (bounds, "Z_L"), (detector.thresholds(bounds, 3.0, 0.01), "N"),
        (detector.BlowupEstimate(1.0, 0.1), "t_blow"), (solver.Termination("reached_t_end", 1.0), "kind"),
        (riccati.phase_classify(1.0, -1.0, 0.0), "region"), (_Token("num", "1", 0), "pos"),
        (Num(1.0), "value"), (Var(), "value"), (Neg(Var()), "arg"), (Bin("+", Var(), Num(1.0)), "op"),
        (Call("exp", Var()), "fn"),
    ]
    for record, name in records:
        before = repr(record)
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert repr(record) == before


def _grid_is_equal_by_its_ends_and_size():
    grid = fields.Grid(0.0, 1.0, 16)
    assert grid == fields.Grid(0, 1, 16) and not grid != fields.Grid(0.0, 1.0, 16)
    for other in (fields.Grid(0.0, 1.0, 32), fields.Grid(0.0, 2.0, 16), fields.Grid(-1.0, 1.0, 16), (0.0, 1.0, 16)):
        assert grid != other


def _expression_nodes_are_equal_and_hash_equal_by_value():
    text = "exp(-x^2) + sin(2*x)/(1 + x) - tanh(x)"
    a, b = parse_expression(text), parse_expression(text)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a.derivative(2) == b.derivative(2) and hash(a.derivative(2)) == hash(b.derivative(2))
    assert Var() == Var() and Num(1.0) == Num(1)
    assert Num(1.0) != Num(2.0) and Neg(Var()) != Neg(Num(1.0)) and Call("sin", Var()) != Call("cos", Var())
    assert Num(1.0) != 1.0 and Neg(Var()) != Call("exp", Var())
    assert not isinstance(a, tuple)  # config.make_initial tells samples from an expression by tuple
    assert repr(Bin("+", Neg(Var()), Call("exp", Num(2.0)))) == (
        "Bin(op='+', lhs=Neg(arg=Var()), rhs=Call(fn='exp', arg=Num(value=2.0)))"
    )


def _defaults_are_as_before():
    cfg = solver.SolverConfig()
    assert (cfg.cfl, cfg.t_end, cfg.snapshot_stride, cfg.gradient_cap, cfg.dt_min) == (0.4, 1.0, 10, 1e4, 1e-12)
    cert = detector.Certificate("none")
    assert (cert.kind, cert.threshold, cert.witness_x, cert.witness_value, cert.t_star_bound, cert.conditional) == (
        "none", None, None, None, None, True)
    assert config.DiagnosticsSpec(directions=["forward"]).residuals == ["rem1", "ode_y", "ode_ytilde"]
    assert config.DiagnosticsSpec().residuals == list(riccati.RESIDUAL_KINDS)
    first, second = config.DiagnosticsSpec(), config.DiagnosticsSpec()
    assert first.seeds == [] and first.directions == ["forward", "backward"]
    assert first.seeds is not second.seeds and first.directions is not second.directions
    t = np.array([0.0, 1.0])
    curves = [charpath.CharacteristicCurve(("forward",), t, t, t) for _ in range(2)]
    curves[0].samples["y"] = t
    assert curves[1].samples == {}
    assert solver.Trajectory([], solver.Termination("reached_t_end", 1.0), None).steps_taken == 0


@pytest.mark.parametrize("check", [
    _frozen_records_refuse_assignment,
    _grid_is_equal_by_its_ends_and_size,
    _expression_nodes_are_equal_and_hash_equal_by_value,
    _defaults_are_as_before,
], ids=lambda check: check.__name__.lstrip("_"))
def test_record_contract(check):
    check()
