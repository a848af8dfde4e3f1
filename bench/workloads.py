"""The four benchmark workloads: op lists built from a workload seed, and
the output checks that decide whether an op failed.

Each op is a ``stablecomp`` command line run in-process through
``stablecomp.cli.main(argv)``, except the sized ``pd_check`` scans of
``pd_scan``: the CLI always scans the default family (an n=3 bump scan takes
minutes), so those ops call the public ``pd_check`` with a small family.

The seed picks the content of every op (representations, descriptors,
Monte Carlo streams).  The properties that set an op's cost and accuracy
(dimension, stability index, atom count, descriptor family, exponent band,
test family) are fixed per op slot, so two seeds give comparable runs.  For
``verify`` and ``oracle`` ops the CLI draws those properties from the op
seed, so ``build_mc_verify`` and ``build_oracle_2d`` screen candidate seeds
until the drawn properties match the slot (they never look at an outcome).

Some slots are anchors: their inputs come from ``REFERENCE_SEED`` whatever
the workload seed.  The reported uncertainty of a random representation
varies about twofold within one slot, so ``rel_tol_p50`` is read from the
anchors only; a change in accuracy then moves it instead of hiding in the
seed-to-seed spread.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stablecomp import cli, fourier_pd
from stablecomp.fourier_pd import TestFunction, euclidean_reference_action
from stablecomp.homogeneous import (DiagEuclideanBase, HomogeneousFn,
                                    LrMatrixBase, euclidean_power, fn_from_json,
                                    fn_to_json, lp_norm_power, max_abs_power)
from stablecomp.sampling import SampleBatch, Seed, sample_batch
from stablecomp.spectral import SpectralRep, rep_hash
from stablecomp.verify import _random_thm1_fn, _trial_rng, random_rep

REFERENCE_SEED = 0


@dataclass
class Op:
    label: str
    argv: list | None = None
    anchor: bool = False
    call: object = None
    outputs: tuple = ()
    check: object = None   # fn(op, stdout) -> (problems, rel_tols), after exit code 0
    info: dict = field(default_factory=dict)
    repeat: int = 1        # timed runs per pass

    def run(self) -> int:
        if self.argv is not None:
            return cli.main(self.argv)   # looked up per call, so tracing sees it
        return self.call()

    def signature(self, stdout: str) -> bytes:
        """The bytes a repeated run must reproduce exactly."""
        if not self.outputs:
            return stdout.encode()
        return b"".join(Path(p).read_bytes() for p in self.outputs)


@dataclass
class Workload:
    ops: list
    warmups: list
    uses_workers: bool


def _seed_stream(seed: int, salt: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, salt])))


def _streams(seed: int, salt: int) -> dict:
    """Input streams by anchor flag: anchors draw from the reference seed."""
    return {False: _seed_stream(seed, salt), True: _seed_stream(REFERENCE_SEED, salt)}


def _read_jsonl(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _check_records(expected: int):
    """``expected`` records, all passed; uncertainty is tolerance / |lhs| for
    every record with a nonzero lhs."""
    def check(op, stdout):
        problems, rels = [], []
        recs = _read_jsonl(op.outputs[0])
        if len(recs) != expected:
            problems.append(f"{len(recs)} records, expected {expected}")
        bad = [r for r in recs if not r["passed"]]
        if bad:
            problems.append(f"{len(bad)} records failed, the first: {bad[0]}")
        for r in recs:
            if r["lhs"] != 0.0:
                rels.append(r["tolerance"] / abs(r["lhs"]))
        for key, want in op.info.get("expect", {}).items():
            got = recs[0]["config"][key] if recs else None
            if got != want:
                op.info["stratum_mismatch"] = f"{key}: drew {got}, screened {want}"
        return problems, rels
    return check


# ---------------------------------------------------------------------------
# mc_verify

# (mode, n, q, atoms, thm1 family, exponent band, anchor); alternating
# cor3/thm1, each q of the default set and both n, every CMS branch and both
# estimators (median-of-means for cor3 and the lr_subspace band).
MC_SLOTS = (
    ("cor3", 2, 0.7, 4, None, (-1.62, -1.38), True),
    ("thm1", 3, 1.0, 5, "l1", (-1.3, -0.9), False),
    ("cor3", 3, 1.5, 4, None, (-2.62, -2.38), False),
    ("thm1", 2, 2.0, 4, "euclidean", (-0.8, -0.5), True),
    ("cor3", 2, 1.0, 5, None, (-1.62, -1.38), True),
    ("thm1", 3, 0.7, 4, "lr_subspace", (-2.2, -1.8), False),
)
MC_N = 1_000_000


def _family(f: HomogeneousFn) -> str:
    base = f.base
    if isinstance(base, LrMatrixBase):
        return "l1" if base.matrix.shape[0] == base.n else "lr_subspace"
    if isinstance(base, DiagEuclideanBase):
        return "euclidean"
    return "max_abs"


def _mc_draw(mode: str, seed: int, n_values=(2, 3), q_values=(0.7, 1.0, 1.5, 2.0)):
    """The trial properties ``verify cor3|thm1 --trials 1`` draws for ``seed``
    (the draw order of ``verify._run_mc``)."""
    rng = _trial_rng(seed, 0)
    n = int(n_values[int(rng.integers(0, len(n_values)))])
    q = float(q_values[int(rng.integers(0, len(q_values)))])
    k = int(rng.integers(1, n))
    yield n, q
    rep = random_rep(rng, n, q, full_rank=True, max_condition=1e4)
    if mode == "cor3":
        yield rep.m, None, float(rng.uniform(-n + 0.08, -n + 0.92))
    else:
        f = _random_thm1_fn(rng, n, k)
        yield rep.m, _family(f), f.p


def _screen(draw, slot_head, slot_tail, stream: np.random.Generator) -> int:
    while True:
        cand = int(stream.integers(0, 2**31))
        gen = draw(cand)
        if next(gen) != slot_head:
            continue
        m, family, p = next(gen)
        lo, hi = slot_tail[2]
        if (m, family) == slot_tail[:2] and lo < p < hi:
            return cand


def build_mc_verify(seed: int, work: Path) -> Workload:
    streams = _streams(seed, 1)
    ops = []
    for i, (mode, n, q, m, family, band, anchor) in enumerate(MC_SLOTS):
        op_seed = _screen(lambda s: _mc_draw(mode, s), (n, q), (m, family, band),
                          streams[anchor])
        out = str(work / f"mc{i}.jsonl")
        ops.append(Op(
            label=f"{mode}/n{n}/q{q}/m{m}" + (f"/{family}" if family else ""),
            anchor=anchor,
            argv=["verify", mode, "--trials", "1", "-N", str(MC_N), "--n", "2",
                  "--n", "3", "--seed", str(op_seed), "--out-jsonl", out],
            outputs=(out,), check=_check_records(1),
            info={"expect": {"n": n, "q": q}}))
    warm = work / "warm.jsonl"
    warmups = [Op("warm", argv=["verify", "cor3", "--trials", "1", "-N", "65536",
                                "--n", "2", "--seed", str(seed), "--out-jsonl", str(warm)])]
    return Workload(ops, warmups, uses_workers=True)


# ---------------------------------------------------------------------------
# oracle_2d

# (q, atoms, family, exponent band, anchor); q < 1.5 takes the M=2048 grid.
ORACLE_SLOTS = (
    (1.0, 3, "max_abs", (-1.6, -1.4), False),
    (1.5, 3, "l1", (-0.65, -0.35), True),
    (2.0, 3, "euclidean", (-0.65, -0.35), True),
)
ORACLE_Q = (1.0, 1.5, 2.0)


def _oracle_draw(seed: int):
    """The trial properties ``oracle --trials 1`` draws for ``seed`` (the draw
    order of ``verify._run_oracle``)."""
    rng = _trial_rng(seed, 0)
    q = float(ORACLE_Q[int(rng.integers(0, len(ORACLE_Q)))])
    yield q
    rep = random_rep(rng, 2, q, full_rank=True, max_condition=1e4)
    family = ("max_abs", "l1", "euclidean")[int(rng.integers(0, 3))]
    p = float(rng.uniform(-1.9, -1.1)) if family == "max_abs" \
        else float(rng.uniform(-0.95, -0.15))
    yield rep.m, family, p


def build_oracle_2d(seed: int, work: Path) -> Workload:
    streams = _streams(seed, 2)
    ops = []
    for i, (q, m, family, band, anchor) in enumerate(ORACLE_SLOTS):
        op_seed = _screen(_oracle_draw, q, (m, family, band), streams[anchor])
        out = str(work / f"oracle{i}.jsonl")
        ops.append(Op(
            label=f"oracle/q{q}/m{m}/{family}", anchor=anchor,
            argv=["oracle", "--trials", "1", "-N", "100000", "--q", "1", "--q", "1.5",
                  "--q", "2", "--seed", str(op_seed), "--out-jsonl", out],
            outputs=(out,), check=_check_records(1),
            info={"expect": {"q": q, "family": family}},
            repeat=1 if q < 1.5 else 2))   # the M=2048 op costs as much as the others twice
    warm = work / "warm.jsonl"
    warmups = [Op("warm", argv=["oracle", "--trials", "1", "-N", "4096", "--q", "2",
                                "--seed", str(seed), "--out-jsonl", str(warm)])]
    return Workload(ops, warmups, uses_workers=True)


# ---------------------------------------------------------------------------
# pd_scan

REFERENCE_REL_TOL = 1e-10


def _pd_check_result(report_json: str, f: HomogeneousFn, euclidean_n=None):
    problems = []
    rep = json.loads(report_json)
    if rep["verdict"] == "violation":
        problems.append(f"verdict violation: {report_json}")
    bound, value = rep["quadrature_error_bound"], rep["min_action"]
    wit = rep["witness"]
    if euclidean_n is not None and wit["kind"] == "gaussian":
        phi = TestFunction("gaussian", np.array(wit["center"]), wit["width"],
                           wit["normalization"])
        ref = euclidean_reference_action(euclidean_n, f.p, phi)
        # the reference is itself a quadrature asked for 1e-11 relative accuracy
        if abs(value - ref) > bound + REFERENCE_REL_TOL * abs(ref):
            problems.append(f"min_action {value!r} misses the closed-form reference "
                            f"{ref!r} by more than its bound {bound!r} plus "
                            f"{REFERENCE_REL_TOL:g} relative")
    return problems, [bound / abs(value)] if value != 0.0 else []


def _pd_op(label, f, path, family=None, mode="full-space", euclidean=False,
           refine_rounds=2, anchor=False):
    """pd-check on a descriptor file: through the CLI for the default family,
    else the public pd_check with a sized family (printing the report and
    returning the CLI's exit code for it)."""
    path.write_text(fn_to_json(f))

    def call():
        report = fourier_pd.pd_check(fn_from_json(path.read_text()), family=family,
                                     mode=mode, refine_rounds=refine_rounds)
        print(report.to_json())
        return 1 if report.verdict == "violation" else 0

    def check(op, stdout):
        return _pd_check_result(stdout, f, f.n if euclidean else None)
    argv = None if family else ["pd-check", "--fn", str(path), "--mode", mode, "--json"]
    return Op(label, argv=argv, call=call, check=check, anchor=anchor)


def _unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _gauss3(rng) -> list:
    return [TestFunction("gaussian", np.zeros(3), 1.0)] + [
        TestFunction("gaussian", rad * _unit(rng, 3), w)
        for rad, w in ((1.5, 0.5), (1.5, 2.0), (4.0, 1.0))]


def build_pd_scan(seed: int, work: Path) -> Workload:
    streams = _streams(seed, 3)
    seeded, ref = streams[False], streams[True]
    lr_rows = np.vstack([np.eye(2), _unit(ref, 2)])
    # The bump ops are the steadier ones, so there are enough of them for the
    # median op to be a bump op.
    ops = [
        # n=2, the CLI's default Gaussian family
        _pd_op("gauss/n2/max_abs", max_abs_power(2, ref.uniform(-1.6, -1.4)),
               work / "max2.json", anchor=True),
        _pd_op("gauss/n2/euclidean", euclidean_power(2, seeded.uniform(-1.4, -1.0)),
               work / "euc2.json", euclidean=True),
        # n=3 with a sized Gaussian family, checked against the closed form
        _pd_op("gauss/n3/euclidean", euclidean_power(3, seeded.uniform(-1.8, -1.2)),
               work / "euc3.json", family=_gauss3(seeded), euclidean=True),
        # away from the origin, one bump each; refinement walks the width
        # down to 0.25, and at n=3 that is the workload's memory peak
        _pd_op("bump/n2/l1", lp_norm_power(2, 1.0, ref.uniform(-1.6, -1.4)),
               work / "l1_2b.json", family=[TestFunction("bump", 1.5 * _unit(ref, 2), 0.5)],
               mode="away-from-origin", anchor=True),
        _pd_op("bump/n2/lr_matrix", HomogeneousFn(
            base=LrMatrixBase(matrix=lr_rows, r=ref.uniform(1.2, 1.8)),
            p=ref.uniform(-1.2, -0.8)), work / "lr2b.json",
            family=[TestFunction("bump", 1.5 * _unit(ref, 2), 0.5)],
            mode="away-from-origin", anchor=True),
        _pd_op("bump/n2/max_abs", max_abs_power(2, seeded.uniform(-1.6, -1.4)),
               work / "max2b.json",
               family=[TestFunction("bump", 1.5 * _unit(seeded, 2), 0.5)],
               mode="away-from-origin"),
        _pd_op("bump/n3/weighted_euclidean", euclidean_power(
            3, seeded.uniform(-2.6, -2.4), weights=np.exp(seeded.uniform(-0.3, 0.3, 3))),
            work / "weuc3b.json", family=[TestFunction("bump", 0.8 * _unit(seeded, 3), 0.5)],
            mode="away-from-origin"),
    ]
    # The n=3 bump costs as much as the other ops together, so they run twice
    # a pass and the median op gets twice as many timed runs.
    for op in ops[:-1]:
        op.repeat = 2

    warmups = [_pd_op(f"warm/{phi.kind}/n{phi.n}", max_abs_power(phi.n, 0.5 - phi.n),
                      work / f"warm{i}.json", family=[phi], mode=mode, refine_rounds=0)
               for i, (phi, mode) in enumerate((
                   (TestFunction("gaussian", [1.5, 0.0], 0.5), "full-space"),
                   (TestFunction("bump", [1.5, 0.0], 0.5), "away-from-origin"),
                   (TestFunction("gaussian", [1.5, 0.0, 0.0], 0.5), "full-space"),
                   (TestFunction("bump", [1.0, 0.0, 0.0], 0.5), "away-from-origin")))]
    return Workload(ops, warmups, uses_workers=False)


# ---------------------------------------------------------------------------
# exact_export

EXPORT_BIN_N = 1_000_000
EXPORT_CSV_N = 200_000
PROP1_TRIALS = 300
LEMMA1_TRIALS = 20_000


def _export_rep(seed: int) -> SpectralRep:
    """Seeded n=3, m=7, q=1.5 representation for the sample ops."""
    rng = _seed_stream(seed, 4)
    return SpectralRep(n=3, q=1.5, weights=rng.exponential(1.0, 7) + 0.1,
                       atoms=rng.standard_normal((7, 3)))


def _check_batch(rep: SpectralRep, N: int, seed: Seed, fmt: str):
    """The exported draws equal an in-process sample_batch bit for bit; the
    binary file survives a from_binary/to_binary round trip unchanged."""
    def check(op, stdout):
        out = Path(op.outputs[0])
        ref = sample_batch(rep, N, seed).points
        problems = []
        if fmt == "bin":
            batch = SampleBatch.from_binary(out)
            if batch.rep_hash != rep_hash(rep) or batch.seed != seed:
                problems.append("binary sidecar provenance differs")
            again = out.with_name("roundtrip.bin")
            batch.to_binary(again)
            if again.read_bytes() != out.read_bytes():
                problems.append("from_binary/to_binary round trip changed the bytes")
            pts = batch.points
        else:
            pts = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        if pts.shape != ref.shape or not np.array_equal(pts, ref):
            problems.append(f"{fmt} draws differ from sample_batch")
        return problems, []
    return check


def build_exact_export(seed: int, work: Path) -> Workload:
    rep = _export_rep(seed)
    rep_path = work / "rep.json"
    rep_path.write_text(rep.to_json())
    streams = _streams(seed, 5)
    s, s_ref = (int(streams[a].integers(0, 2**31)) for a in (False, True))
    bin_out, csv_out = work / "draws.bin", work / "draws.csv"
    prop1, lemma1 = work / "prop1.jsonl", work / "lemma1.jsonl"
    ops = [
        Op("sample/bin", argv=["sample", "--rep", str(rep_path), "-N", str(EXPORT_BIN_N),
                               "--seed", str(s), "--format", "bin", "--out", str(bin_out)],
           outputs=(str(bin_out), str(bin_out) + ".json"),
           check=_check_batch(rep, EXPORT_BIN_N, Seed(s, 0), "bin")),
        Op("sample/csv", argv=["sample", "--rep", str(rep_path), "-N", str(EXPORT_CSV_N),
                               "--seed", str(s), "--stream", "1", "--format", "csv",
                               "--out", str(csv_out)],
           outputs=(str(csv_out),),
           check=_check_batch(rep, EXPORT_CSV_N, Seed(s, 1), "csv")),
        Op("prop1", argv=["verify", "prop1", "--trials", str(PROP1_TRIALS),
                          "--seed", str(s_ref), "--out-jsonl", str(prop1)],
           outputs=(str(prop1),), check=_check_records(PROP1_TRIALS), anchor=True),
        Op("lemma1", argv=["verify", "lemma1", "--trials", str(LEMMA1_TRIALS),
                           "--seed", str(s), "--out-jsonl", str(lemma1)],
           outputs=(str(lemma1),), check=_check_records(4 * LEMMA1_TRIALS)),
    ]
    # lemma1 costs as much as the other ops together, so they run twice a pass
    for op in ops[:-1]:
        op.repeat = 2
    warm = work / "warm"
    warmups = [
        Op("warm/sample", argv=["sample", "--rep", str(rep_path), "-N", "1000", "--seed", "1",
                                "--format", "bin", "--out", str(warm) + ".bin"]),
        Op("warm/prop1", argv=["verify", "prop1", "--trials", "5", "--seed", "1",
                               "--out-jsonl", str(warm) + "p.jsonl"]),
        Op("warm/lemma1", argv=["verify", "lemma1", "--trials", "100", "--seed", "1",
                                "--out-jsonl", str(warm) + "l.jsonl"]),
    ]
    return Workload(ops, warmups, uses_workers=True)


BY_NAME = {
    "mc_verify": build_mc_verify,
    "pd_scan": build_pd_scan,
    "oracle_2d": build_oracle_2d,
    "exact_export": build_exact_export,
}
