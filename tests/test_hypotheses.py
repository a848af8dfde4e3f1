"""The exponent windows and dimension limits of the paper's hypotheses, at
their boundaries, through every entry point that guards them.

Thm 1 takes p in (-n, 0), Cor 3 and Prop 3 take p in (-n, -n+1), and Prop 1
takes 0 < p < q, or any p > 0 at q = 2.  The pd scan runs at n in {2, 3} and
the oracle at n = 2.  Each entry point either accepts a probe (it returns,
or the command line exits 0 or 1) or rejects it with a ValueError (exit 2).
``ACCEPTED`` pins which probes each accepts.
"""

import numpy as np
import pytest

from stablecomp import (BlockSplit, ExperimentConfig, LevyMeasure, Seed, SpectralRep,
                        TestFunction, density_2d, euclidean_power,
                        euclidean_reference_action, fourier_pd, levy_expectation,
                        oracle_expectation, pd_action, radial_fourier_weight,
                        random_block_symmetric_measure, random_rep, verify_cor3,
                        verify_prop1, verify_thm1)
from stablecomp.cli import main
from stablecomp.fourier_pd import ActionResult

DIMENSIONS = (1, 2, 3, 4)


def probes(n: int) -> tuple:
    """The window edges -n, -n+1 and 0, the stable indices 1.5 and 2 as
    p = q, and the interior points -n + 1/2 and 3/4."""
    return (-n, -n + 0.5, -n + 1.0, 0.0, 0.75, 1.5, 2.0)


def _rep(n, q):
    return random_rep(np.random.default_rng(5), n, q, full_rank=True, max_condition=1e4)


def _gaussian(n):
    return TestFunction("gaussian", np.zeros(n), 1.0)


_FIELD_REPS = {q: SpectralRep(n=2, q=q, weights=[1.0, 0.6, 0.8],
                              atoms=[[1.0, 0.2], [-0.3, 1.0], [0.7, 0.7]])
               for q in (1.5, 2.0)}


def _prop1(n, p, q):
    # a measure of exponent p where it can have one; verify_prop1 checks p first
    gamma = random_block_symmetric_measure(np.random.default_rng(3), n, 1, p if p > 0 else 1.0)
    verify_prop1(_rep(n, q), BlockSplit(1), gamma, p)


ENTRIES = {
    "verify_thm1": lambda n, p, q: verify_thm1(_rep(n, q), BlockSplit(1),
                                               euclidean_power(n, p), 64, Seed(1), workers=1),
    "verify_cor3": lambda n, p, q: verify_cor3(_rep(n, q), BlockSplit(1), p, 64, Seed(1),
                                               workers=1),
    "verify_prop1": _prop1,
    "config thm1": lambda n, p, q: ExperimentConfig(
        mode="thm1", n_values=(n,), q_values=(q,), p_value=p).validate(),
    "config cor3": lambda n, p, q: ExperimentConfig(
        mode="cor3", n_values=(n,), q_values=(q,), p_value=p).validate(),
    "config pd": lambda n, p, q: ExperimentConfig(
        mode="pd", n_values=(n,), q_values=(q,), p_value=p).validate(),
    "config prop1": lambda n, p, q: ExperimentConfig(
        mode="prop1", n_values=(n,), q_values=(q,), p_value=p).validate(),
    "config oracle": lambda n, p, q: ExperimentConfig(
        mode="oracle-crosscheck", n_values=(n,), q_values=(q,)).validate(),
    "pd_action": lambda n, p, q: pd_action(euclidean_power(n, p), _gaussian(n)),
    "radial_fourier_weight": lambda n, p, q: radial_fourier_weight(n, p),
    "euclidean_reference_action": lambda n, p, q: euclidean_reference_action(
        n, p, _gaussian(n)),
    "levy_expectation": lambda n, p, q: levy_expectation(
        _rep(n, q), LevyMeasure(p=p, weights=np.ones(n), xis=np.eye(n)), p),
    "oracle_expectation": lambda n, p, q: oracle_expectation(
        euclidean_power(n, p), density_2d(_FIELD_REPS[q], M=256)),
}

COMMANDS = {
    "cli verify thm1": lambda n, p, q: main(
        ["verify", "thm1", "--trials", "1", "-N", "64", "--workers", "1",
         "--n", str(n), "--p", str(p), "--q", str(q)]),
    "cli verify cor3": lambda n, p, q: main(
        ["verify", "cor3", "--trials", "1", "-N", "64", "--workers", "1",
         "--n", str(n), "--p", str(p), "--q", str(q)]),
    "cli verify prop1": lambda n, p, q: main(
        ["verify", "prop1", "--trials", "1", "--n", str(n), "--p", str(p), "--q", str(q)]),
    "cli pd-check": lambda n, p, q: main(["pd-check", "--builtin", "euclidean", str(n), str(p)]),
}

# the stable indices each entry point is probed at: both where q enters the
# rule, 1.5 where it does not
INDICES = {"verify_prop1": (1.5, 2.0), "config prop1": (1.5, 2.0),
           "levy_expectation": (1.5, 2.0), "oracle_expectation": (1.5, 2.0),
           "cli verify prop1": (1.5, 2.0)}

# (entry point, q) -> {n: the probes accepted}; a dimension not listed accepts
# none.  "config oracle" sets no exponent: it shows the dimension limit alone.
ACCEPTED = {
    ('verify_thm1', 1.5): {2: (-1.5, -1.0), 3: (-2.5, -2.0), 4: (-3.5, -3.0)},
    ('verify_cor3', 1.5): {2: (-1.5,), 3: (-2.5,), 4: (-3.5,)},
    ('verify_prop1', 1.5): {2: (0.75,), 3: (0.75,), 4: (0.75,)},
    ('verify_prop1', 2.0): {2: (0.75, 1.5, 2.0), 3: (0.75, 1.5, 2.0), 4: (0.75, 1.5, 2.0)},
    ('config thm1', 1.5): {2: (-1.5, -1.0), 3: (-2.5, -2.0), 4: (-3.5, -3.0)},
    ('config cor3', 1.5): {2: (-1.5,), 3: (-2.5,), 4: (-3.5,)},
    ('config pd', 1.5): {2: (-1.5, -1.0), 3: (-2.5, -2.0)},
    ('config prop1', 1.5): {2: (0.75,), 3: (0.75,), 4: (0.75,)},
    ('config prop1', 2.0): {2: (0.75, 1.5, 2.0), 3: (0.75, 1.5, 2.0), 4: (0.75, 1.5, 2.0)},
    ('config oracle', 1.5): {2: (-2, -1.5, -1.0, 0.0, 0.75, 1.5, 2.0)},
    ('pd_action', 1.5): {2: (-1.5, -1.0), 3: (-2.5, -2.0)},
    ('radial_fourier_weight', 1.5): {1: (-0.5,), 2: (-1.5,), 3: (-2.5,), 4: (-3.5,)},
    ('euclidean_reference_action', 1.5): {1: (-0.5,), 2: (-1.5, -1.0), 3: (-2.5, -2.0), 4: (-3.5, -3.0)},
    ('levy_expectation', 1.5): {1: (0.75,), 2: (0.75,), 3: (0.75,), 4: (0.75,)},
    ('levy_expectation', 2.0): {1: (0.75, 1.5, 2.0), 2: (0.75, 1.5, 2.0), 3: (0.75, 1.5, 2.0), 4: (0.75, 1.5, 2.0)},
    ('oracle_expectation', 1.5): {2: (-1.5, -1.0)},
    ('oracle_expectation', 2.0): {2: (-1.5, -1.0, 0.75, 1.5, 2.0)},
    ('cli verify thm1', 1.5): {2: (-1.5, -1.0), 3: (-2.5, -2.0), 4: (-3.5, -3.0)},
    ('cli verify cor3', 1.5): {2: (-1.5,), 3: (-2.5,), 4: (-3.5,)},
    ('cli verify prop1', 1.5): {2: (0.75,), 3: (0.75,), 4: (0.75,)},
    ('cli verify prop1', 2.0): {2: (0.75, 1.5, 2.0), 3: (0.75, 1.5, 2.0), 4: (0.75, 1.5, 2.0)},
    ('cli pd-check', 1.5): {2: (-1.5, -1.0), 3: (-2.5, -2.0)},
}


def _cases(names):
    return [(name, q) for name in names for q in INDICES.get(name, (1.5,))]


def _accepted(name, q, run) -> dict:
    out = {}
    for n in DIMENSIONS:
        for p in probes(n):
            if run(n, p, q):
                out.setdefault(n, []).append(p)
    return {n: tuple(ps) for n, ps in out.items()}


def _returns(call):
    def run(n, p, q):
        try:
            call(n, p, q)
        except ValueError:
            return False
        return True
    return run


@pytest.mark.parametrize("name, q", _cases(ENTRIES))
def test_entry_point_windows(name, q):
    assert _accepted(name, q, _returns(ENTRIES[name])) == ACCEPTED[name, q]


@pytest.mark.parametrize("name, q", _cases(COMMANDS))
def test_command_line_windows(name, q, monkeypatch, capsys):
    # a pd scan past its guards is not the subject here: one cheap action
    monkeypatch.setattr(fourier_pd, "_actions",
                        lambda f, phis, tables: [ActionResult(1.0, 0.0)] * len(phis))

    def run(n, p, q):
        code = COMMANDS[name](n, p, q)
        assert code in (0, 1, 2)
        return code != 2

    assert _accepted(name, q, run) == ACCEPTED[name, q]
    capsys.readouterr()
