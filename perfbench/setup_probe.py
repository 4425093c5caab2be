"""Measure one workload's set-up time in a fresh interpreter.

Started by ``run.py`` as a child process, once per set-up sample.  The
clock (a :class:`refclock.RefClock`) starts before ``import repro`` and
stops when the workload's first ``DtpNetwork.start`` returns; the
workload is then abandoned.  Prints one JSON object:
``{"setup_s": <scaled seconds>, "wall_s": <seconds>}``.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED SCRATCH_DIR``
"""

import refclock

_CLOCK = refclock.RefClock()
_CLOCK.arm()
_CLOCK.begin()

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import probes  # noqa: E402
import workloads  # noqa: E402


class _Started(BaseException):
    """Unwinds the workload once its network has started.

    A ``BaseException`` so no ``except Exception`` inside the workload
    swallows it.
    """


def _stop(network) -> None:
    _CLOCK.end()
    raise _Started


def main() -> int:
    name, seed, scratch = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workload = workloads.WORKLOADS[name]
    marks = probes.Marks()
    patcher = probes.Patcher()
    marks.install(patcher, on_started=_stop)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        workload.run(seed, workdir)
    except _Started:
        pass
    finally:
        _CLOCK.disarm()
        patcher.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    if marks.started_ns is None:
        print("setup probe: the workload never started a network", file=sys.stderr)
        return 1
    wall_s, setup_s = _CLOCK.times()
    print(json.dumps({"setup_s": setup_s, "wall_s": wall_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
