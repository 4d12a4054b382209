"""The three workloads: seeded inputs, the timed operation and its checks.

Each workload hands the runner whole rounds of operations.  Every round has
the same make-up (the same kinds of operation, sizes and bit sizes in the
same order, large ones interleaved with small ones); only the seeded values
change, and no construction or (base, m) pair repeats within a run (the
shipped catalog, which every cli-mix round runs as it is, aside).  An
operation is a pair (run, check): ``run`` is timed, ``check`` compares its
output with the oracle and is not.
"""

from __future__ import annotations

import copy
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from random import Random
from time import perf_counter

import oracle

BIG_BITS = 24
# The six regimes of l: 0, (0,1), 1, (1,2), 2 and (2, r+1).
BRANCHES = ("0", "(0,1)", "1", "(1,2)", "2", "(2,r+1)")
CLI_CODE = "from fanoblowup.cli import entrypoint; entrypoint()"


class CheckFailed(Exception):
    """An output disagrees with the oracle or breaks a required property."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _unit(rng: Random, big: bool) -> Fraction:
    """A rational in (0, 1) with a small or a BIG_BITS-bit denominator."""
    if big:
        q = rng.getrandbits(BIG_BITS) | (1 << (BIG_BITS - 1))
    else:
        q = rng.randint(2, 6)
    return Fraction(rng.randrange(1, q), q)


def random_construction(rng: Random, n: int, branch: str, big: bool) -> tuple:
    """(n, r, l, vol_v) with 1 < r <= 5, l in the given branch, all exact."""
    r = 1 + 4 * _unit(rng, big)
    u = _unit(rng, big)
    l = {"0": Fraction(0), "(0,1)": u, "1": Fraction(1), "(1,2)": 1 + u,
         "2": Fraction(2), "(2,r+1)": 2 + u * (r - 1)}[branch]
    if big:
        vol_v = Fraction(rng.getrandbits(BIG_BITS) | 1 << (BIG_BITS - 1),
                         rng.getrandbits(BIG_BITS) | 1 << (BIG_BITS - 1))
    else:
        vol_v = Fraction(rng.randint(1, 64))
    return n, r, l, vol_v


def new_construction(rng: Random, seen: set, n: int, branch: str, big: bool) -> tuple:
    """A random construction not in ``seen``, which is then added to it."""
    while True:
        params = random_construction(rng, n, branch, big)
        if params not in seen:
            seen.add(params)
            return params


def stride(s: int, d: int) -> int:
    """Smallest level m with m (s+1)/d integral, for the base P^s with L = O(d)."""
    return d // gcd(s + 1, d)


def expected_report(n: int, r: Fraction, l: Fraction, vol_v: Fraction) -> dict:
    """The oracle's values, as strings in the CLI's JSON field order."""
    s_zero, s_inf = oracle.s_pair(n, r, l)
    if l == 2:
        classification = {"kind": "reduces-to-pair", "a": str(oracle.coefficient_a(n, r))}
    else:
        beta_zero = 1 - s_zero
        classification = {"kind": "k-unstable",
                          "destabilizer": "zero-section" if beta_zero < 0 else "infinity-section",
                          "beta": str(min(beta_zero, -beta_zero))}
    return {"n": n, "r": str(r), "l": str(l), "vol_v": str(vol_v),
            "vol_y": str(oracle.vol_y(n, r, l, vol_v)),
            "s_v0": str(s_zero), "s_vinf": str(s_inf),
            "beta_v0": str(1 - s_zero), "beta_vinf": str(1 - s_inf),
            "classification": classification}


def bits(*values: Fraction) -> int:
    return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values)


def setup_round(workload) -> None:
    """Generate one round as set-up work, on a copy, so the run's own inputs
    (its seed stream, the constructions seen, the ladder count) stay as they are."""
    spare = copy.copy(workload)
    spare.seen = set()
    spare.prefix = "setup"
    spare.make_round(Random(f"{workload.name}:setup:{workload.seed}"))


def fresh_import(name: str):
    """Import the package anew, dropping any copy already loaded."""
    for loaded in [m for m in sys.modules if m == "fanoblowup" or m.startswith("fanoblowup.")]:
        del sys.modules[loaded]
    return importlib.import_module(name)


class Library:
    """Common set-up for the in-process workloads."""

    def __init__(self, root: Path, seed: int) -> None:
        self.seed = seed
        self.rng = Random(f"{self.name}:{seed}")
        self.seen: set = set()
        self.max_bits = 0
        self.import_s: list[float] = []
        self.pkg = fresh_import("fanoblowup")  # compiles bytecode before any timing

    def setup(self) -> None:
        start = perf_counter()
        self.pkg = fresh_import("fanoblowup")
        self.import_s.append(perf_counter() - start)
        setup_round(self)
        self.warm_up()

    def finish(self) -> None:
        """Checks that need the whole run; none for the library workloads."""


class ReportSweep(Library):
    name = "report-sweep"
    # (n, branch of l, big bit size) of each operation, small and large.
    # The median falls inside the eight n = 6 reports (all near 25 ms) and
    # the 90th percentile inside the four n = 24 reports (all near 350 ms).
    SMALL = [(2, "0", False), (2, "2", True), (3, "(0,1)", True), (3, "1", False),
             (4, "(1,2)", False), (4, "2", False), (5, "1", True)] + [
        (6, branch, big) for big in (False, True) for branch in ("0", "(0,1)", "(1,2)", "(2,r+1)")] + [
        (7, "(0,1)", True), (8, "(2,r+1)", False), (8, "1", True)]
    LARGE = [(16, "2", True), (24, "0", False), (24, "(0,1)", False), (24, "(1,2)", False),
             (24, "(2,r+1)", False), (32, "(1,2)", True)]

    def warm_up(self) -> None:
        self.pkg.report(self.pkg.Construction(3, Fraction(2), Fraction(2), Fraction(8)))

    def make_round(self, rng: Random) -> list:
        # Every fourth operation of a round is a large one.
        small = iter(self.SMALL)
        large = iter(self.LARGE)
        ops = []
        for i in range(24):
            n, branch, big = next(large) if i % 4 == 3 else next(small)
            ops.append(self._op(new_construction(rng, self.seen, n, branch, big)))
        return ops

    def _op(self, params: tuple):
        pkg = self.pkg

        def run():
            return pkg.report(pkg.Construction(*params))

        def check(rep) -> None:
            want = expected_report(*params)
            got = {"vol_y": rep.vol_y, "s_v0": rep.s_v0, "s_vinf": rep.s_vinf,
                   "beta_v0": rep.beta_v0, "beta_vinf": rep.beta_vinf}
            for key, value in got.items():
                expect(str(value) == want[key], f"{params}: {key} = {value}, oracle {want[key]}")
            expect(rep.beta_v0 + rep.beta_vinf == 0, f"{params}: betas do not sum to 0")
            cls = rep.classification
            wc = want["classification"]
            expect(cls.kind == wc["kind"], f"{params}: kind {cls.kind}, oracle {wc['kind']}")
            if cls.kind == "reduces-to-pair":
                expect(str(cls.a) == wc["a"], f"{params}: a = {cls.a}, oracle {wc['a']}")
            else:
                expect(cls.destabilizer.value == wc["destabilizer"] and str(cls.beta) == wc["beta"],
                       f"{params}: destabilizer {cls.describe()}, oracle {wc}")
            self.max_bits = max(self.max_bits, bits(rep.vol_y, rep.s_v0, rep.s_vinf))
        return run, check


class RefineLadder(Library):
    name = "refine-ladder"
    ladders = 0
    # One ladder per round: 15 levels m <= 512, 2 in [4096, 8192] and 3 in
    # [12288, 16384], so the 90th percentile falls inside the top band.
    BANDS = [(1, 512, 15), (4096, 8192, 2), (12288, 16384, 3)]
    # Bases P^s with L = O(d), r = (s+1)/d > 1 and a stride of at most 2, so
    # each base has at least 256 levels m <= 512 and 24 bases give at least
    # 400 ladders before a (base, m) pair would have to repeat.  They are taken
    # in turn, so every run of the same length sees the same bases.
    BASES = [(s, d) for s in range(1, 10) for d in range(1, s + 1) if stride(s, d) <= 2]

    def warm_up(self) -> None:
        c = self.pkg.Construction(3, Fraction(3), Fraction(2))
        self.pkg.a_m(c, self.pkg.hilbert_projective_space(2, 1), 8)

    def make_round(self, rng: Random) -> list:
        s, d = self.BASES[self.ladders % len(self.BASES)]
        self.ladders += 1
        step = stride(s, d)
        levels = []
        for lo, hi, count in self.BANDS:
            fresh = [m for m in range(step * -(-lo // step), hi + 1, step) if (s, d, m) not in self.seen]
            if len(fresh) < count:
                raise RuntimeError(f"every level in [{lo}, {hi}] of ps:{s}:{d} has been used; run shorter")
            band = sorted(rng.sample(fresh, count))
            self.seen.update((s, d, m) for m in band)
            levels.append(band)
        small, large = iter(levels[0]), iter(levels[1] + levels[2])
        ladder = [next(large) if i % 4 == 3 else next(small) for i in range(20)]
        pkg = self.pkg
        c = pkg.Construction(s + 1, Fraction(s + 1, d), Fraction(2))
        h = pkg.hilbert_projective_space(s, d)
        target = oracle.coefficient_a(s + 1, Fraction(s + 1, d))
        errors = {}
        ops = [self._op(pkg, c, h, s, d, m, target, errors) for m in ladder]
        run, check = ops[-1]

        def check_ladder(value) -> None:
            check(value)
            lo, hi = min(errors), max(errors)
            expect(errors[hi] < errors[lo],
                   f"ps:{s}:{d}: error at m={hi} is not below the error at m={lo}")
        ops[-1] = (run, check_ladder)
        return ops

    def _op(self, pkg, c, h, s, d, m, target, errors):
        def run():
            return pkg.a_m(c, h, m)

        def check(value) -> None:
            want = oracle.a_m(s, d, m)
            expect(value == want, f"a_m(ps:{s}:{d}, m={m}) = {value}, oracle {want}")
            expect(0 < value < Fraction(1, 2), f"a_m(ps:{s}:{d}, m={m}) = {value} outside (0, 1/2)")
            errors[m] = abs(value - target)
            self.max_bits = max(self.max_bits, bits(value))
        return run, check


class CliMix:
    """CLI processes, one at a time, in the order of KINDS."""

    name = "cli-mix"
    # 2 coeff, 2 refine and 3 invariants (light), 3 catalog runs (heavy): the
    # median falls among the invariants calls, the 90th percentile among the
    # catalog runs.
    KINDS = ["coeff", "invariants", "catalog-gen", "refine", "invariants",
             "catalog", "coeff-json", "refine", "invariants", "catalog-gen"]
    INVARIANTS_DIMS = [3, 5, 6]
    # n of each generated catalog entry, as in the shipped catalog.
    CATALOG_DIMS = [3, 3, 3, 4, 3, 3, 4, 4, 4, 5, 5, 5]

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.rng = Random(f"{self.name}:{seed}")
        self.seen: set = set()
        self.work = root / ".bench_work" / "cli"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.files = 0
        self.prefix = "catalog"
        self.tracer = None
        self.first: dict = {}

    def command(self, argv: list[str]) -> list[str]:
        if self.tracer is not None:
            return [sys.executable, str(Path(__file__).with_name("cli_child.py")), *argv]
        return [sys.executable, "-c", CLI_CODE, *argv]

    def spawn(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(self.command(argv), capture_output=True, env=self.env,
                              cwd=self.root, timeout=120)

    def setup(self) -> None:
        setup_round(self)
        done = self.spawn(["coeff", "--dim", "3", "--index", "3/2"])
        expect(done.returncode == 0, f"warm-up coeff exited {done.returncode}: {done.stderr!r}")

    def _catalog_file(self, rng: Random) -> tuple[Path, list]:
        self.files += 1
        path = self.work / f"{self.prefix}-{self.seed}-{self.files}.cfg"
        lines, entries = [], []
        for i, n in enumerate(self.CATALOG_DIMS):
            params = new_construction(rng, self.seen, n, BRANCHES[(i + 3 * (self.files % 2)) % 6], False)
            want = expected_report(*params)
            n, r, l, vol_v = params
            lines += [f"[entry-{i}]", f"n = {n}", f"r = {r}", f"l = {l}", f"vol_v = {vol_v}"]
            cls = want["classification"]
            if cls["kind"] == "reduces-to-pair":
                lines.append(f"expect_a = {cls['a']}")
            else:
                lines.append(f"expect_destabilizer = {cls['destabilizer']}")
            entries.append(want)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path, entries

    def make_round(self, rng: Random) -> list:
        ops = []
        dims = iter(self.INVARIANTS_DIMS)
        for kind in self.KINDS:
            if kind.startswith("coeff"):
                n, r = rng.randint(2, 40), 1 + 4 * _unit(rng, rng.random() < 0.5)
                argv = ["coeff", "--dim", str(n), "--index", str(r)] + (["--json"] if kind == "coeff-json" else [])
                check = self._check_coeff(kind, n, r)
            elif kind == "invariants":
                params = new_construction(rng, self.seen, next(dims), rng.choice(BRANCHES), False)
                n, r, l, vol_v = params
                argv = ["invariants", "--dim", str(n), "--index", str(r), "--l", str(l),
                        "--vol-v", str(vol_v), "--json"]
                check = self._check_invariants(expected_report(*params))
            elif kind == "refine":
                argv, check = self._refine(rng)
            elif kind == "catalog":
                argv, check = ["catalog", "--json"], self._check_catalog(None)
            else:
                path, entries = self._catalog_file(rng)
                argv, check = ["catalog", "--json", str(path)], self._check_catalog(entries)
            ops.append(self._op(kind, argv, check))
        return ops

    def _refine(self, rng: Random):
        while True:
            s = rng.randint(1, 5)
            d = rng.randint(1, s)
            step = stride(s, d)
            ms = sorted(rng.sample(range(step, 64 + 1, step), 3))
            key = ("refine", s, d, tuple(ms))
            if key not in self.seen and not any((s, d, m) in self.seen for m in ms):
                break
        self.seen.add(key)
        self.seen.update((s, d, m) for m in ms)
        r = Fraction(s + 1, d)
        argv = ["refine", "--dim", str(s + 1), "--index", str(r), "--base", f"ps:{s}:{d}",
                "--m", ",".join(map(str, ms)), "--json"]
        target = oracle.coefficient_a(s + 1, r)

        def check(stdout: str) -> None:
            doc = json.loads(stdout)
            expect(doc["target"] == str(target), f"{argv}: target {doc['target']}, oracle {target}")
            values = [Fraction(row["a_m"]) for row in doc["rows"]]
            expect([row["m"] for row in doc["rows"]] == ms, f"{argv}: rows for the wrong m")
            for m, value in zip(ms, values):
                expect(value == oracle.a_m(s, d, m), f"{argv}: a_{m} = {value}")
                expect(0 < value < Fraction(1, 2), f"{argv}: a_{m} = {value} outside (0, 1/2)")
        return argv, check

    @staticmethod
    def _check_coeff(kind: str, n: int, r: Fraction):
        want = str(oracle.coefficient_a(n, r))

        def check(stdout: str) -> None:
            if kind == "coeff-json":
                doc = json.loads(stdout)
                expect(doc["a"] == want and doc["n"] == n and doc["r"] == str(r),
                       f"coeff {n} {r}: {doc}, oracle a = {want}")
            else:
                lines = stdout.splitlines()
                expect(len(lines) == 2 and lines[0] == want and lines[1].startswith("decimal: "),
                       f"coeff {n} {r}: {lines}, oracle a = {want}")
        return check

    @staticmethod
    def _check_invariants(want: dict):
        def check(stdout: str) -> None:
            doc = json.loads(stdout)
            expect(doc == want, f"invariants: {doc}, oracle {want}")
            expect(Fraction(doc["beta_v0"]) + Fraction(doc["beta_vinf"]) == 0, "betas do not sum to 0")
        return check

    @staticmethod
    def _check_catalog(entries: list | None):
        def check(stdout: str) -> None:
            doc = json.loads(stdout)
            expect(doc["passed"] == doc["total"] == len(doc["entries"]), f"catalog: {doc['passed']}/{doc['total']} passed")
            if entries is not None:
                expect(len(doc["entries"]) == len(entries), "catalog: wrong number of entries")
            for i, got in enumerate(doc["entries"]):
                want = expected_report(got["n"], Fraction(got["r"]), Fraction(got["l"]), Fraction(got["vol_v"]))
                if entries is not None:
                    expect(want == entries[i], f"catalog entry {i}: parameters changed")
                body = {k: v for k, v in got.items() if k not in ("name", "pass")}
                expect(body == want and got["pass"] is True, f"catalog entry {got['name']}: {got}, oracle {want}")
        return check

    def _op(self, kind: str, argv: list[str], check):
        def run():
            start = perf_counter()
            done = self.spawn(argv)
            end = perf_counter()
            if done.returncode != 0:
                raise RuntimeError(f"{argv} exited {done.returncode}: {done.stderr.decode()[-300:]}")
            if self.tracer is not None:
                self._record(start, end, json.loads(done.stderr.decode().splitlines()[-1]))
            return done.stdout

        def checked(stdout: bytes) -> None:
            try:
                check(stdout.decode("utf-8"))
            except (ValueError, KeyError, TypeError) as exc:  # unparsable or malformed output
                raise CheckFailed(f"{argv}: unreadable output: {exc!r}") from exc
            self.first.setdefault(kind, (argv, stdout))
        return run, checked

    def _record(self, start: float, end: float, child: dict) -> None:
        process = self.tracer.add_span("cli.process", start, end)
        self.tracer.add_span("cli.import", *child["import"], parent=process)
        main = self.tracer.add_span("cli.main", *child["main"], parent=process)
        for name, begin, finish in child["inner"]:
            self.tracer.add_span(name, begin, finish, parent=main)

    def finish(self) -> None:
        """Identical argv must give byte-identical stdout: re-run one of each kind."""
        try:
            for kind, (argv, stdout) in self.first.items():
                again = self.spawn(argv)
                expect(again.returncode == 0 and again.stdout == stdout, f"{kind}: stdout differs on a re-run")
        finally:
            for path in self.work.glob(f"*-{self.seed}-*.cfg"):
                path.unlink()


WORKLOADS = {w.name: w for w in (ReportSweep, RefineLadder, CliMix)}
