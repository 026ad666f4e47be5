"""``python -m bench run|report`` (from the repository root)."""

import argparse
import ctypes
import os
import sys

from bench import report, run


def main(argv=None) -> int:
    spec = run.load_spec()
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run.add_arguments(
        commands.add_parser("run", help="measure one workload, or a session"),
        spec,
    )
    report.add_arguments(
        commands.add_parser("report", help="compare two session result files")
    )
    args = parser.parse_args(argv)
    module = run if args.command == "run" else report
    return module.main(args, spec)


#: ``personality(2)`` flag: map stack, heap and libraries at fixed addresses.
ADDR_NO_RANDOMIZE = 0x0040000
PERSONALITY_QUERY = 0xFFFFFFFF


def pin_process_layout() -> None:
    """Start this interpreter again with a fixed memory layout and hash seed.

    Both are drawn anew for every process and bias all of its timings the
    same way, so no number of rounds inside the process averages them out.
    Six passes of ``campaign_rules`` on one seed spread over 4.6% of their
    median ``round_s`` as started, and over 0.3% with address-space
    randomisation off; string hashing (the layout of every dict and set)
    was worth 3.6% against 1.4% on ``execute_scale``.  A variable the caller
    set is kept, and where the kernel refuses the personality the run goes
    on as it is, only noisier.  The session's passes inherit both.
    """
    changed = False
    if "PYTHONHASHSEED" not in os.environ:
        os.environ["PYTHONHASHSEED"] = "0"
        changed = True
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.argtypes = [ctypes.c_ulong]
    libc.personality.restype = ctypes.c_int
    persona = libc.personality(PERSONALITY_QUERY)
    if persona != -1 and not persona & ADDR_NO_RANDOMIZE:
        changed |= libc.personality(persona | ADDR_NO_RANDOMIZE) != -1
    if changed:
        os.execv(sys.executable, [sys.executable, "-m", "bench", *sys.argv[1:]])


if __name__ == "__main__":
    pin_process_layout()
    sys.exit(main())
