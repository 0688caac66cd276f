#!/usr/bin/env python3
"""Digest every output of one source checkout, or compare two checkouts.

For each checkout, one fresh Python process imports that checkout's
``src/steadychaos`` and ``perfbench/workloads.py`` and runs, for each seed,
every operation of ``workloads.build(name, seed)`` for each workload name: a
CLI argv through ``steadychaos.cli.main`` with stdout and stderr captured, a
library call by the ``repr`` of what it returns (``self-check`` is a
``verdicts`` operation). It then runs
``scripts/transition_survey.py`` and ``scripts/reproduce_figures.py --steps
101`` (each figure CSV is digested on its own line). ``cli.main`` keeps no
state between calls, so one process serves every operation.

Each line gives the seed (``-`` for the scripts), the operation or file, the
exit code and a sha256 prefix of each output; warnings and escaped
exceptions count as stderr. With one checkout every line is printed. With
two, only the lines that differ are printed, ``-`` for the first checkout and
``+`` for the second, and the exit code is 1 if any differ:

    python3 scripts/output_digests.py --checkout ../parent --checkout . --seeds 1,7

Nothing is written into the checkouts: the figure CSVs go to a temporary
directory and no bytecode is cached.
"""

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = r'''
import contextlib, hashlib, io, os, runpy, sys, tempfile, warnings
from pathlib import Path

checkout, seeds = Path(sys.argv[1]), [int(s) for s in sys.argv[2].split(",")]
sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
import steadychaos
import steadychaos.cli as cli
import workloads

if not Path(steadychaos.__file__).resolve().is_relative_to(checkout / "src"):
    sys.exit(f"imported steadychaos from {steadychaos.__file__}, not from {checkout / 'src'}")


def run(fn):
    """(exit code, stdout, stderr) of fn(), which returns the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = fn()
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
            if isinstance(code, str):  # sys.exit(message) prints it and exits 1
                print(code, file=sys.stderr)
                code = 1
        except Exception as exc:
            code = "raised"
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    err.writelines(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), err.getvalue()


def emit(seed, name, code, **outputs):
    digests = " ".join(f"{key}={hashlib.sha256(text.encode()).hexdigest()[:16]}"
                       for key, text in outputs.items())
    print(f"{seed} {name} exit={code} {digests}", flush=True)


def script(name, *args):
    path = checkout / "scripts" / name
    sys.argv = [str(path), *args]
    runpy.run_path(str(path), run_name="__main__")
    return 0


for seed in seeds:
    for workload in workloads.NAMES:
        for op in workloads.build(workload, seed).ops:
            name = f"{workload}/{op.name}"
            if op.argv is not None:
                code, out, err = run(lambda: cli.main(op.argv))
                emit(seed, name, code, stdout=out, stderr=err)
            else:
                value = {}

                def call():
                    value["repr"] = repr(op.call(steadychaos))
                    return 0

                code, out, err = run(call)
                emit(seed, name, code, stdout=out, stderr=err, value=value.get("repr", ""))

with tempfile.TemporaryDirectory() as tmp:
    os.chdir(tmp)
    code, out, err = run(lambda: script("transition_survey.py"))
    emit("-", "transition_survey.py", code, stdout=out, stderr=err)
    code, out, err = run(lambda: script("reproduce_figures.py", "--steps", "101", "--out-dir", "out"))
    emit("-", "reproduce_figures.py", code, stdout=out, stderr=err)
    for path in sorted(Path("out").glob("*.csv")):
        emit("-", f"reproduce_figures.py/{path.name}", "-", file=path.read_text())
    os.chdir(checkout)
'''


def digests(checkout: Path, seeds: str) -> dict:
    """The digest lines of ``checkout``, keyed by (seed, operation or file)."""
    done = subprocess.run([sys.executable, "-B", "-c", CHILD, str(checkout), seeds],
                          cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: the run in {checkout} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return {tuple(line.split(" ", 2)[:2]): line for line in done.stdout.splitlines()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--checkout", action="append", type=Path,
                        help="a source checkout (default: this one); give two to compare them")
    parser.add_argument("--seeds", default="1,7", help="comma-separated workload seeds (default 1,7)")
    args = parser.parse_args()
    checkouts = [path.resolve() for path in args.checkout or [ROOT]]
    if len(checkouts) > 2:
        parser.error("give one checkout, or two to compare")
    try:
        if any(int(s) < 0 for s in args.seeds.split(",")):
            raise ValueError
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers >= 0, got {args.seeds!r}")
    runs = [digests(path, args.seeds) for path in checkouts]
    if len(runs) == 1:
        print("\n".join(runs[0].values()))
        return 0
    first, second = runs
    keys = list(dict.fromkeys([*first, *second]))
    differ = [key for key in keys if first.get(key) != second.get(key)]
    for key in differ:
        for sign, run in (("-", first), ("+", second)):
            if key in run:
                print(f"{sign} {run[key]}")
    print(f"{len(differ)} of {len(keys)} lines differ between {checkouts[0]} and {checkouts[1]}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
