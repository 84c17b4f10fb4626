"""The benchmark's span wrappers (perfbench/tracing.py) name attributes
that exist in the package, so a deletion cannot silently break
``perfbench/run.py --trace 1``."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.TRACED
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert missing == []


def test_traced_kick_names_are_on_the_simulate_path(monkeypatch):
    """``simulate`` reaches ``quantum.apply_kick`` once per kick group and,
    inside it, ``quantum.kick_operator`` once per kick per attempt, each
    attempt on the basis grown from the last. The benchmark reads
    ``quantum.basis_growths`` off the second count per span of the first,
    so a path that bypasses either name would blind that counter."""
    from rotorkick import quantum
    from rotorkick.core import parse_sequence

    seq = parse_sequence("sym -0.5 0\nasym 9 0\nsym 0.3 0.8\nasym -6 0.8\n")
    apply_kick, kick_operator = quantum.apply_kick, quantum.kick_operator
    calls = []

    def spied_apply(psi, *kicks):
        calls.append((psi.l_max, len(kicks), []))
        out = apply_kick(psi, *kicks)
        calls[-1] += (out.l_max,)
        return out

    def spied_operator(kind, l_max):
        calls[-1][2].append(l_max)
        return kick_operator(kind, l_max)

    monkeypatch.setattr(quantum, "apply_kick", spied_apply)
    monkeypatch.setattr(quantum, "kick_operator", spied_operator)
    quantum.run_sequence(seq, [0.5, 1.0], l_max_hint=12)
    assert len(calls) == len(seq.time_groups()) == 2
    grew = False
    for l_in, n_kicks, operators, l_out in calls:
        bases = [l_in]
        while bases[-1] < l_out:
            bases.append(quantum.grown_l_max(bases[-1], "a kick"))
        assert bases[-1] == l_out
        assert operators == [b for b in bases for _ in range(n_kicks)]
        grew |= len(bases) > 1
    assert grew
