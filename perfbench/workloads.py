"""The benchmark's workloads: fixed command lists for ``masstransport.cli.main``.

Every command is an argv list without ``--seed``; the benchmark's own seed
is appended to each command when a workload runs, so one seed fixes every
Monte Carlo input of the run.  The exact commands ignore the seed.

Why these three:

* ``mc_long``: long horizons at two threads.  Sample blocks hit the
  128 MB chunk cap and sampling (rng + processes) dominates, so tiling,
  faster samplers and the thread pool show here, in time and in memory.
* ``mc_short``: short horizons with many trials at one thread.  Blocks
  are tiny, so per-chunk fixed costs, the vectorised mass terms and the
  full-vector reductions dominate; a change that speeds up big blocks but
  adds per-tile overhead loses here.  It is also the plain
  single-threaded baseline.
* ``exact_lane``: exact rational enumeration, with no random draws at all.
  Time goes to path enumeration, ``PathWindow`` construction, ``Fraction``
  arithmetic and the scalar transport functions, and grows as 2^n.  A
  Monte Carlo-only change should leave it unchanged.

The dip commands in ``mc_long`` use epsilon 0.02: at 0.1 every estimate
prints as zero and pins no draw.  The identity commands of ``mc_short``
use ``--z 4`` (see ``_identity``).
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0

# commands that sample increments, and the argument holding each one's
# window length
_WINDOW_ARG = {
    "verify-identity": "--horizon",
    "verify-maximal": "--horizon",
    "survival": "--horizon",
    "birkhoff": "--n-max",
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the seed-independent check its output must pass."""

    argv: tuple[str, ...]
    check: str = "exit_code"

    @property
    def key(self) -> str:
        """Stable identifier, used to look up recorded results."""
        return " ".join(self.argv)

    @property
    def spec(self) -> str:
        return self.argv[self.argv.index("--spec") + 1]

    @property
    def spec_name(self) -> str:
        return self.spec.rsplit("/", 1)[-1].removesuffix(".json")

    def arg(self, name: str) -> str | None:
        if name in self.argv:
            return self.argv[self.argv.index(name) + 1]
        return None

    @property
    def is_exact(self) -> bool:
        return self.arg("--mode") == "exact"

    @property
    def increments(self) -> int:
        """Increments sampled: trials x window length (both windows for identity)."""
        name = self.argv[0]
        if name not in _WINDOW_ARG or self.is_exact:
            return 0
        count = int(self.arg("--trials")) * int(self.arg(_WINDOW_ARG[name]))
        return 2 * count if name == "verify-identity" else count

    def with_seed(self, seed: int) -> list[str]:
        return [*self.argv, "--seed", str(seed)]


def _cmd(name: str, spec: str, *args: str, check: str = "exit_code") -> Command:
    return Command((name, "--spec", f"specs/{spec}.json", *args), check)


def _birkhoff(spec: str, trials: int, *args: str, check: str = "exit_code") -> Command:
    return _cmd(
        "birkhoff", spec, "--n-max", "16384", "--trials", str(trials), "--threads", "2", *args,
        check=check,
    )


def _identity(spec: str, horizon: str, trials: str) -> Command:
    # z = 4: the run compares 29 pairs of intervals at whatever seed it is
    # given, and at the default z = 2.576 about one run in 150 would fail
    # an overlap by chance alone
    return _cmd(
        "verify-identity", spec, "--horizon", horizon, "--trials", trials, "--threads", "1",
        "--z", "4",
    )


def _survival(spec: str, check: str) -> Command:
    return _cmd(
        "survival", spec, "--horizon", "2048", "--trials", "20000", "--threads", "2", check=check
    )


WORKLOADS: dict[str, tuple[Command, ...]] = {
    "mc_long": (
        _birkhoff("markov_drift", 2048, check="trajectory_gap"),
        _birkhoff("moving_average", 2048, check="trajectory_gap"),
        _birkhoff("gaussian_drift", 2048, check="trajectory_gap"),
        _birkhoff("mixture", 1024, check="mixture_exact"),
        _birkhoff("p06_walk", 2048, "--epsilon", "0.02"),
        _birkhoff("gaussian_drift", 2048, "--epsilon", "0.02"),
        _survival("p06_walk", "survival_p06"),
        _survival("markov_drift", "survival_positive"),
    ),
    "mc_short": (
        _identity("p06_walk", "8", "1000000"),
        _identity("two_point_chain", "8", "1000000"),
        _identity("moving_average", "16", "500000"),
        _cmd("verify-maximal", "rotation", "--horizon", "16", "--trials", "1000000", "--threads", "1"),
        _cmd(
            "verify-maximal", "gaussian_drift", "--horizon", "64", "--trials", "500000",
            "--threads", "1",
        ),
        _cmd("transport", "two_point", "--lo", "-256", "--hi", "256"),
    ),
    "exact_lane": (
        _cmd("verify-identity", "p06_walk", "--mode", "exact", "--horizon", "12", check="exact_rows"),
        _cmd(
            "verify-identity", "moving_average", "--mode", "exact", "--horizon", "9",
            check="exact_rows",
        ),
        _cmd("survival", "p06_walk", "--mode", "exact", "--horizon", "14", check="exact_rows"),
        _cmd("verify-maximal", "markov_drift", "--mode", "exact", "--horizon", "12", check="exact_rows"),
    ),
}


def spec_paths(workload: str) -> list[str]:
    """Every spec file the workload uses, in first-use order."""
    return list(dict.fromkeys(c.spec for c in WORKLOADS[workload]))
