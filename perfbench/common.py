"""Shared plumbing of the benchmark: paths, statistics, provenance.

Everything here is repository-agnostic bookkeeping; the workloads live
in ``crawl.py``, ``search.py`` and ``serve.py``.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import pickle
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

#: Root of the checkout the benchmark runs from (the parent of this package).
ROOT = Path(__file__).resolve().parent.parent
#: The program under test is imported from source: no build step.
SRC = ROOT / "src"
#: Results and span dumps of each run (ignored by git).
OUT_DIR = ROOT / ".perfbench_out"
#: Scratch space for on-disk indexes (ignored by git, emptied per run).
TMP_DIR = ROOT / ".perfbench_tmp"


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def import_program() -> None:
    """Put ``src/`` on the import path, or raise :class:`MissingProgram`."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program to benchmark: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def settle() -> None:
    """Start a repeat from the same collector state as the last one.

    Collects the previous repeat's garbage outside the timed region.
    """
    gc.collect()


def freeze_setup() -> None:
    """Move everything set-up built (inputs, oracles, response tables)
    out of the collector's reach, so the program's own allocations are
    what triggers and pays for collections during the timed repeats."""
    gc.collect()
    gc.freeze()


def in_child(function, *args):
    """``function(*args)``, computed in a forked child process.

    For the benchmark's own oracles: what they allocate stays out of
    this process's peak resident set, which is reported as the
    program's.  The result travels back pickled.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(function(*args), pipe)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"{function.__name__} failed in its child process")
    return pickle.loads(data)


def scratch_dir(name: str) -> Path:
    """A fresh, empty directory under :data:`TMP_DIR`."""
    path = TMP_DIR / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- statistics ----------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int, wanted: float) -> None:
    """Raise unless ``count`` samples leave >= 10 beyond percentile ``wanted``.

    A percentile with fewer than ten samples beyond it is set by a
    handful of outliers and does not repeat between runs.
    """
    beyond = count - math.ceil(wanted / 100.0 * count)
    if beyond < 10:
        raise ValueError(
            f"p{wanted:g} over {count} samples has only {beyond} beyond it (need 10)"
        )


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of a sample (a quarter dropped at each end).

    Steadier than the median when a run's repeats fall into two groups
    (the host ran fast for some and slow for others): the median jumps
    from one group to the other as their sizes cross, the mean of the
    middle half moves with the sizes; and unlike the plain mean, one
    stalled repeat does not move it.
    """
    if not values:
        raise ValueError("mean of an empty sample")
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut : len(ordered) - cut]
    return sum(middle) / len(middle)


def median_of(samples: list[dict]) -> dict:
    """Key-wise median of figure dicts (keys starting with ``_`` are
    internal cross-checks and are dropped)."""
    return {
        key: median([sample[key] for sample in samples])
        for key in samples[0]
        if not key.startswith("_")
    }


def share(part: float, whole: float) -> float:
    """``part / whole``, 0.0 when nothing happened."""
    return part / whole if whole else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Deadline:
    """Wall-clock budget of the measured part of a run."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    @property
    def expired(self) -> bool:
        return self.elapsed >= self.seconds


# -- provenance ----------------------------------------------------------------


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from ``/proc/stat``; (0, 0)
    where there is no such file."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def git_sha() -> str:
    """HEAD of the checkout, or ``"unknown"`` outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown"


def source_digest() -> str:
    """SHA-256 over every file under ``src/`` (path and bytes).

    Identifies the code measured even where the checkout is not a git
    work tree and :func:`git_sha` has nothing to report.
    """
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
    }
