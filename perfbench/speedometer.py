"""Measure how fast the CPU runs Python code while a command runs beside it.

Usage: python3 perfbench/speedometer.py COUNTER_FILE PARENT_PID

A shared machine's speed drifts: the same command may take 1.5 times longer
in one spell of seconds than in the next, and the two CPUs of a machine drift
apart. So the benchmark pins itself, every command it runs and this
speedometer to one CPU, and lets the speedometer run alongside each timed
command. The scheduler hands that CPU back and forth between the two every
few milliseconds, so both see the same slow and fast spells. The speedometer
repeats a fixed unit of work shaped like the program's generator (small numpy
draws per model), loader and vote (JSON parsing, string clean-up,
per-position dict counts), and after each unit writes its CPU time and the
units done so far to COUNTER_FILE.

The command's own CPU time, scaled by the speedometer's rate over the same
window, is its time in reference seconds (``Speedometer.stop``): the
CPU time it would take on a CPU that runs ``REFERENCE_UNITS_PER_S`` units a
second. The speed drift cancels out of it; changes to the command do not.
"""

from __future__ import annotations

import ctypes
import json
import mmap
import os
import signal
import struct
import subprocess
import sys
from pathlib import Path
from time import process_time, sleep

# Units a second of speedometer CPU time on the machine the baseline was
# recorded on, in a quiet spell. It only sets the scale of reference seconds.
REFERENCE_UNITS_PER_S = 1400.0
_COUNTER = struct.Struct("dq")  # speedometer CPU seconds, units done
_PR_SET_PDEATHSIG = 1

_LINE = json.dumps({"sample_id": "s000123", "dataset": "synth", "predictions": [
    {"model": f"m{i:02d}", "text": "ab-c 1%d3" % i, "confidence": 0.5 + i / 40}
    for i in range(12)]})
_SEPARATORS = frozenset(" -")
_ALPHABET_TEXT = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
_ALPHABET = frozenset(_ALPHABET_TEXT)


def unit(index: int) -> str:
    """A fixed amount of work: draw one 12-model sample, then parse, clean and
    vote eight 12-model records. About a third of its time is in numpy."""
    # Imported here, not at the top: the benchmark process imports this module
    # for Speedometer and must stay small (see checks.py).
    import numpy as np

    block = np.random.Generator(np.random.Philox(key=7, counter=index * 4)).random(2 * 7)
    truth = (block[:7] * 36).astype(np.int64)
    for _ in range(12):
        codes = truth.copy()
        mask = block[7:] < 0.3
        if mask.any():
            codes[mask] = (truth[mask] + 1 + (block[:7][mask] * 35).astype(np.int64)) % 36
        "".join(map(_ALPHABET_TEXT.__getitem__, codes.tolist()))
    fused = ""
    for _ in range(8):
        record = json.loads(_LINE)
        texts, confs = [], []
        for p in record["predictions"]:
            kept = [ch for ch in p["text"].upper()
                    if ch not in _SEPARATORS and ch in _ALPHABET]
            texts.append("".join(kept))
            confs.append(p["confidence"])
        out = []
        for pos in range(len(texts[0])):
            slots: dict[str, list] = {}
            for i, t in enumerate(texts):
                slot = slots.get(t[pos])
                if slot is None:
                    slots[t[pos]] = [1, confs[i]]
                else:
                    slot[0] += 1
                    if confs[i] > slot[1]:
                        slot[1] = confs[i]
            out.append(max(slots.items(), key=lambda kv: (kv[1][0], kv[1][1]))[0])
        fused = json.dumps({"id": record["sample_id"], "text": "".join(out)})
    return fused


class Speedometer:
    """A speedometer child process, paused except while a command is timed."""

    def __init__(self, counter_file: Path):
        counter_file.write_bytes(bytes(_COUNTER.size))
        self._file = open(counter_file, "r+b")
        self._counter = mmap.mmap(self._file.fileno(), _COUNTER.size)
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(counter_file), str(os.getpid())],
            stdin=subprocess.DEVNULL)
        # Let it import and finish a first unit, then pause it.
        while self.read()[1] == 0:
            if self._proc.poll() is not None:
                raise RuntimeError("the speedometer exited at start")
            sleep(0.01)
        self.pause()

    def read(self) -> tuple[float, int]:
        while True:  # the speedometer may be writing; read until two agree
            first = _COUNTER.unpack_from(self._counter)
            if _COUNTER.unpack_from(self._counter) == first:
                return first

    def start(self) -> tuple[float, int]:
        self._proc.send_signal(signal.SIGCONT)
        return self.read()

    def pause(self) -> None:
        self._proc.send_signal(signal.SIGSTOP)

    def stop(self, started: tuple[float, int], cpu_s: float) -> float:
        """Pause; return ``cpu_s``, spent since ``started``, in reference seconds."""
        (cpu0, units0), (cpu1, units1) = started, self.read()
        self.pause()
        if units1 <= units0 or self._proc.poll() is not None:
            raise RuntimeError("the speedometer made no progress beside the command")
        return cpu_s * (units1 - units0) / (cpu1 - cpu0) / REFERENCE_UNITS_PER_S

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()  # SIGKILL also ends a stopped process
        self._proc.wait()
        self._counter.close()
        self._file.close()


def main(argv: list[str]) -> int:
    # Die with the benchmark, even if it is killed while this one is stopped.
    ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != int(argv[2]):
        return 0
    with open(argv[1], "r+b") as f:
        counter = mmap.mmap(f.fileno(), _COUNTER.size)
    units = 0
    while True:
        unit(units)
        units += 1
        _COUNTER.pack_into(counter, 0, process_time(), units)


if __name__ == "__main__":
    # The benchmark kills it; exit quietly on SIGTERM or Ctrl-C too.
    signal.signal(signal.SIGTERM, lambda signum, frame: os._exit(0))
    try:
        sys.exit(main(sys.argv))
    except KeyboardInterrupt:
        sys.exit(0)
