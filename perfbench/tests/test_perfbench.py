"""Tests of the benchmark itself: commands, checks, tracing and span arithmetic.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import checks
import run
import spans
from child import run_command, run_list
from workloads import DEFAULT_SEED, WORKLOADS, Command

from masstransport import cli, rng, verify

ALL_COMMANDS = [cmd for commands in WORKLOADS.values() for cmd in commands]

# small commands that between them reach every wrapped function
SMALL_COMMANDS = [
    ["verify-identity", "--spec", "specs/p06_walk.json", "--horizon", "6", "--trials", "3000",
     "--threads", "2", "--mode", "both", "--seed", "3"],
    ["verify-maximal", "--spec", "specs/rotation.json", "--horizon", "32", "--trials", "5000",
     "--threads", "2", "--seed", "3"],
    ["verify-maximal", "--spec", "specs/markov_drift.json", "--horizon", "6", "--mode", "exact"],
    ["survival", "--spec", "specs/markov_drift.json", "--horizon", "8", "--trials", "5000",
     "--mode", "both", "--seed", "3"],
    ["birkhoff", "--spec", "specs/moving_average.json", "--n-max", "300", "--trials", "50",
     "--threads", "2", "--seed", "3"],
    ["birkhoff", "--spec", "specs/mixture.json", "--n-max", "256", "--trials", "400",
     "--epsilon", "0.1", "--seed", "3"],
    ["birkhoff", "--spec", "specs/gaussian_drift.json", "--n-max", "128", "--trials", "200",
     "--epsilon", "0.1", "--seed", "3"],
    ["transport", "--spec", "specs/two_point.json", "--lo", "-12", "--hi", "12", "--seed", "3"],
]


@pytest.fixture(autouse=True)
def repo_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)


@pytest.mark.parametrize("cmd", ALL_COMMANDS, ids=lambda c: c.key)
def test_workload_command_parses(cmd):
    args = cli.build_parser().parse_args(cmd.with_seed(DEFAULT_SEED))
    assert args.seed == DEFAULT_SEED
    assert (run.ROOT / cmd.spec).is_file()
    assert cmd.key in checks.load_golden()["digests"]


def test_increments_count_both_identity_windows():
    identity = WORKLOADS["mc_short"][0]
    assert identity.increments == 2 * 8 * 1_000_000
    assert WORKLOADS["mc_long"][0].increments == 2048 * 16384
    assert all(c.increments == 0 for c in WORKLOADS["exact_lane"])


def test_traced_and_untraced_outputs_are_byte_identical():
    untraced = [run_command(cli.main, argv)[:2] for argv in SMALL_COMMANDS]
    originals = (cli.main, rng.uniform_block, verify.mass_row, verify._run_chunks)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        traced = [run_command(cli.main, argv)[:2] for argv in SMALL_COMMANDS]
    finally:
        undo()
    assert (cli.main, rng.uniform_block, verify.mass_row, verify._run_chunks) == originals
    assert [code for code, _ in untraced] == [0] * len(SMALL_COMMANDS)
    assert traced == untraced

    names = {s["name"] for s in tracer.spans}
    for kind in spans.KINDS.values():
        assert f"processes.{kind}.sample_block" in names
    for name in spans.MC_CALLS + spans.EXACT_CALLS:
        assert name in names
    # pool threads nest under the Monte Carlo call that started them
    by_id = {s["id"]: s for s in tracer.spans}
    main_thread = threading.get_ident()
    pooled = [s for s in tracer.spans if s["thread"] != main_thread]
    assert pooled
    for s in pooled:
        root = s
        while root["parent"] is not None:
            root = by_id[root["parent"]]
        assert root["name"] == "cli.main"


def test_wrong_digest_counts_as_failed_operation():
    cmd = Command(("transport", "--spec", "specs/two_point.json", "--lo", "-8", "--hi", "8"))
    _, text, _ = run_command(cli.main, cmd.with_seed(DEFAULT_SEED))
    golden = {"digests": {cmd.key: checks.digest(text)}, "exact": {}}
    wrong = copy.deepcopy(golden)
    wrong["digests"][cmd.key] = "0" * 64

    for table, failed in ((golden, 0), (wrong, 1)):
        result = run_list(cli, (cmd,), DEFAULT_SEED, table)
        assert run.count_ops([result], (cmd,))[:2] == (1, failed)
    # away from the default seed there is no recorded digest to compare
    result = run_list(cli, (cmd,), DEFAULT_SEED + 1, wrong)
    assert run.count_ops([result], (cmd,))[:2] == (1, 0)


def test_failed_value_check_counts_as_failed_operation():
    cmd = Command(
        ("survival", "--spec", "specs/p06_walk.json", "--mode", "exact", "--horizon", "4"),
        check="exact_rows",
    )
    _, text, _ = run_command(cli.main, cmd.with_seed(DEFAULT_SEED))
    golden = {"digests": {cmd.key: checks.digest(text)}, "exact": {cmd.key: [["1/2"]]}}
    assert checks.problems(cmd, 0, text, DEFAULT_SEED, golden)
    golden["exact"][cmd.key] = checks.exact_values(text)
    assert checks.problems(cmd, 0, text, DEFAULT_SEED, golden) == []
    assert checks.problems(cmd, 1, text, DEFAULT_SEED, golden) == ["exit code 1"]


def _span(i, parent, name, thread, start, end, **attrs):
    return {"id": i, "parent": parent, "name": name, "thread": thread,
            "start": start, "end": end, **attrs}


def test_self_time_with_children_on_two_threads():
    tree = [
        _span(0, None, "verify.mc_survival", "main", 0.0, 10.0, threads=2),
        # two pool threads overlap on [3, 4]; the instant counts once
        _span(1, 0, "processes.markov_chain.sample_block", "pool-1", 1.0, 4.0, elements=30,
              bytes=240),
        _span(2, 0, "processes.markov_chain.sample_block", "pool-2", 3.0, 6.0, elements=30),
        _span(3, 1, "rng.uniform_block", "pool-1", 2.0, 3.0, elements=30),
        # a child outliving its parent is clipped to the parent
        _span(4, 0, "transport.mass_row", "pool-2", 9.0, 12.0),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0})

    metrics = spans.layer_metrics(tree)
    assert metrics["verify.mc_survival.self_s"] == (pytest.approx(4.0), "s")
    assert metrics["processes.markov_chain.ns_per_increment"][0] == pytest.approx(1e9 * 5.0 / 60)
    assert metrics["rng.ns_per_uniform"][0] == pytest.approx(1e9 / 30)
    assert metrics["processes.block_bytes_max"] == (240, "bytes")
    # outermost sampling spans: (3 + 3) of 2 threads x 10 s
    assert metrics["verify.pool_busy_frac"][0] == pytest.approx(0.3)


def test_nested_sampling_is_not_counted_twice_in_pool_busy():
    tree = [
        _span(0, None, "ergodic.trajectory_batch", "main", 0.0, 4.0, threads=1),
        _span(1, 0, "processes.mixture.sample_block", "main", 0.0, 2.0, elements=8),
        _span(2, 1, "processes.iid_discrete.sample_block", "main", 0.5, 1.5, elements=4),
    ]
    assert spans.pool_busy_frac(tree) == pytest.approx(0.5)


def test_pool_threads_adopt_the_callers_span():
    tracer = spans.Tracer()

    def run_chunks(total, threads, worker, width=1):
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, range(total)))

    leaf = tracer.wrap("leaf", lambda chunk: chunk)
    chunked = spans._adopting(tracer, run_chunks)
    outer = tracer.wrap("outer", lambda: chunked(6, 2, leaf))
    assert outer() == list(range(6))

    (top,) = [s for s in tracer.spans if s["name"] == "outer"]
    leaves = [s for s in tracer.spans if s["name"] == "leaf"]
    assert len(leaves) == 6
    assert {s["parent"] for s in leaves} == {top["id"]}
    assert tracer.current() is None
