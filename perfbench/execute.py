"""Two ways to run one `qwp` command line: as a child process or in-process.

Both return the same `Outcome`, so one set of checks covers the timed runs
(child processes, as a user runs the CLI) and the traced run (in-process
`qwp.cli.main` calls, so the span wrappers can see inside).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

# What the `qwp` console script runs.
QWP_MAIN = "import sys; from qwp.cli import main; sys.exit(main())"

# a child that outlives this is killed and counted as a crash, so a run still ends in time
CHILD_TIMEOUT_S = 60
# how often `tick` runs while a child runs
TICK_PERIOD_S = 0.1


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: str
    stderr: str
    seconds: float


def report_hash(stdout: str) -> str:
    """sha256 of a CLI report with its timestamp line removed."""
    kept = "\n".join(line for line in stdout.splitlines() if not line.lstrip().startswith('"timestamp":'))
    return hashlib.sha256(kept.encode("utf-8")).hexdigest()


def child_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, cwd: str, env: dict, tick=None) -> Outcome:
    """One closed-loop request: start `qwp`, wait for it to exit.

    With `tick`, call it when the child starts and every TICK_PERIOD_S while
    it runs. The CPU time the ticks take is taken off the child's wall time:
    the benchmark runs pinned to the child's CPU, so the child did not run then.
    """
    start = time.perf_counter()
    deadline = start + CHILD_TIMEOUT_S
    ticks_cpu = 0.0
    with subprocess.Popen(
        [sys.executable, "-c", QWP_MAIN, *args],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        while True:
            if tick is not None:
                cpu = time.process_time()
                tick()
                ticks_cpu += time.process_time() - cpu
            left = deadline - time.perf_counter()
            try:
                out, err = proc.communicate(timeout=max(0.0, min(left, TICK_PERIOD_S) if tick else left))
                break
            except subprocess.TimeoutExpired:
                if time.perf_counter() >= deadline:
                    proc.kill()
                    proc.communicate()
                    return Outcome(-9, "", f"killed after {CHILD_TIMEOUT_S} s", time.perf_counter() - start)
    return Outcome(proc.returncode, out, err, time.perf_counter() - start - ticks_cpu)


def run_inprocess(args, cwd: str) -> Outcome:
    """Call `qwp.cli.main` in this process, mapping exits as the interpreter would."""
    import click
    from qwp.cli import main

    out, err = io.StringIO(), io.StringIO()
    code = 0
    previous = os.getcwd()
    start = time.perf_counter()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main.main(args=list(args), prog_name="qwp", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            except click.ClickException as exc:
                exc.show()
                code = exc.exit_code
            except Exception:  # an uncaught error ends the real CLI with a traceback and status 1
                traceback.print_exc()
                code = 1
    finally:
        os.chdir(previous)
    return Outcome(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)
