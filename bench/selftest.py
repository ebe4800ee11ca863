"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Runs each workload once at a reduced size, requires every check to pass
on the real outputs, then plants one error per check (a shifted root, a
flipped byte or bit, an edited loss, a wrong gradient) into a copy of the
outputs and requires that check to report it. Exits 0 when every planted
error is caught. Takes about half a minute.
"""

import contextlib
import copy
import csv
import json
import os
import shutil
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads as wk  # noqa: E402


@contextlib.contextmanager
def wrong_gradient():
    """Scales every reverse-mode gradient by 1.01, as a faulty backward
    pass would."""
    grad = wk.ad.grad
    wk.ad.grad = lambda loss, leaves: [g * 1.01 for g in grad(loss, leaves)]
    try:
        yield
    finally:
        wk.ad.grad = grad


def flip_digit(path, line_no):
    """Changes one digit of the given line of a text file."""
    with open(path) as f:
        lines = f.readlines()
    line = lines[line_no]
    i = max(i for i, ch in enumerate(line) if ch.isdigit() and ch != "9")
    lines[line_no] = line[:i] + str(int(line[i]) + 1) + line[i + 1:]
    with open(path, "w") as f:
        f.writelines(lines)


def edit_json(path, fn):
    with open(path) as f:
        d = json.load(f)
    fn(d)
    with open(path, "w") as f:
        json.dump(d, f)


def edit_csv(path, row, col, fn):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    rows[row][col] = fn(rows[row][col])
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


def flip_bit(a: np.ndarray, idx):
    a.view(np.uint64)[idx] ^= np.uint64(1)


class SelfTest:
    def __init__(self):
        self.failures = []

    def expect(self, wl, what, check, failures):
        hit = [f for f in failures if f[1] == check]
        status = "caught" if hit else "MISSED"
        print(f"{wl.name:18s} {what:44s} -> {check:9s} {status}")
        if not hit:
            self.failures.append((wl.name, what, check))

    def baseline(self, wl):
        ops = wk.Ops()
        wl.prepare(0)
        out = wl.finish(0, wl.run_round(ops, 0))
        found = wl.check(out) + wl.gradient_check(out)
        print(f"{wl.name:18s} real outputs: {ops.attempted} operations, "
              f"{len(ops.failed)} raised, {len(found)} check failures")
        if ops.failed or found:
            for f in found:
                print("   ", f)
            self.failures.append((wl.name, "real outputs", "all"))
        return out

    def api_plants(self, wl, out, plants):
        for what, check, plant in plants:
            planted = copy.deepcopy(out)
            plant(planted)
            self.expect(wl, what, check, wl.check(planted))
            self.expect(wl, what, "rerun", [
                (k, "rerun", "") for k, d in wl.fingerprints(planted).items()
                if d != wl.fingerprints(out)[k]])
        with wrong_gradient():
            self.expect(wl, "gradient scaled by 1.01", "gradient",
                        wl.gradient_check(out))

    def pair(self, work):
        wl = wk.PairAblation(0, work, n_seeds=1)
        out = self.baseline(wl)
        s = wl.seeds[0]

        def seq(o, k, p):
            return o[f"{s}/k{k}"].sequences[p].frames

        def shift_root(o):
            seq(o, 1, 1)[-1, 0] += 0.05

        def raise_best(o):
            rec = o[f"{s}/k2"].records[0]
            rec.best_loss = rec.losses[0] * 1.5

        def collide(o):
            seq(o, 3, 2)[10, 0:3] = seq(o, 3, 1)[10, 0:3]

        self.api_plants(wl, out, [
            ("root of person 1 shifted 5 cm (k1)", "loss", shift_root),
            ("best loss above the first (k2)", "best", raise_best),
            ("person 2 root moved onto person 1 (k3)", "overlap", collide),
        ])

    def extend(self, work):
        wl = wk.Extend(0, work, n_seeds=1, steps=2)
        out = self.baseline(wl)
        s = wl.seeds[0]

        def ext(o, p):
            return o[f"{s}/extend"][0].sequences[p]

        def drop_frame(o):
            q = ext(o, 1)
            q.frames = q.frames[:-1]

        def flip_kept(o):
            flip_bit(ext(o, 2).frames, (10, 5))

        def shift_seam(o):
            ext(o, 1).frames[60, 0] += 0.01

        def nan_compose(o):
            o[f"{s}/compose"].sequences[1].frames[3, 3] = np.nan

        self.api_plants(wl, out, [
            ("extended sequence one frame short", "frames", drop_frame),
            ("one bit flipped in a kept frame", "kept", flip_kept),
            ("root shifted 1 cm inside the seam window", "loss", shift_seam),
            ("NaN in the composed 240-frame pair", "frames", nan_compose),
        ])

    def cli(self, work):
        wl = wk.CliChain(0, work, n_seeds=2, epochs=1, samples_per_label=1)
        out = self.baseline(wl)
        s = wl.seeds[0]
        run_dir = f"seed{s:05d}"

        def plant_files(what, check, plant):
            tmp = os.path.join(work, "planted")
            shutil.rmtree(tmp, ignore_errors=True)
            planted = {c: os.path.join(tmp, c) for c in out}
            for c, d in out.items():
                shutil.copytree(d, planted[c])
            plant(planted)
            self.expect(wl, what, check, wl.check(planted))
            self.expect(wl, what, "rerun", [
                (k, "rerun", "") for k, d in wl.fingerprints(planted).items()
                if d != wl.fingerprints(out)[k]])

        plants = [
            ("one digit of person 2 changed", "history",
             lambda o: flip_digit(os.path.join(o["compose"], run_dir,
                                               "person2.motion"), 5)),
            ("person 3 best loss edited in the manifest", "loss",
             lambda o: edit_json(os.path.join(o["compose"], "manifest.json"),
                                 lambda d: d["runs"][0]["final_losses"]
                                 .__setitem__("3", 0.125))),
            ("one digit of positions.csv changed", "positions",
             lambda o: flip_digit(os.path.join(o["export"], "positions.csv"),
                                  100)),
            ("pen_vol of run 0 raised 1% in metrics.csv", "metrics",
             lambda o: edit_csv(os.path.join(o["eval"], "metrics.csv"), 1, 4,
                                lambda v: repr(float(v) * 1.01 + 1e-9))),
            ("corpus manifest sample count edited", "samples",
             lambda o: edit_json(os.path.join(o["corpus"], "manifest.json"),
                                 lambda d: d.__setitem__("n_samples", 3))),
            ("training loss replaced by nan", "loss",
             lambda o: edit_csv(os.path.join(o["train"], "loss.csv"), 1, 1,
                                lambda v: "nan")),
        ]
        for what, check, plant in plants:
            plant_files(what, check, plant)
        with wrong_gradient():
            self.expect(wl, "gradient scaled by 1.01", "gradient",
                        wl.gradient_check(out))

    def counts(self):
        a = {"calls": {"priors.predict": 5}, "evaluations": 1,
             "eval_nodes": 10, "eval_consts": 2, "eval_bytes": 80,
             "bytes_written": 100}
        b = dict(a, eval_nodes=11)
        caught = run.counts(a) != run.counts(b)
        print(f"{'trace':18s} {'nodes count differs in one round':44s} -> "
              f"{'counts':9s} {'caught' if caught else 'MISSED'}")
        if not caught:
            self.failures.append(("trace", "counts", "counts"))


def main() -> int:
    test = SelfTest()
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-",
                            dir=os.path.join(BENCH, "out"))
    try:
        for name in ("pair", "extend", "cli"):
            d = os.path.join(work, name)
            os.makedirs(d)
            getattr(test, name)(d)
        test.counts()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if test.failures:
        print(f"selftest: {len(test.failures)} planted errors missed: "
              f"{test.failures}")
        return 1
    print("selftest: every planted error was caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
