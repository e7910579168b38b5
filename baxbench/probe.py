"""One set-up sample, in a fresh interpreter.

    python3 probe.py <src dir> <module>  < inputs

Reads permutations, one JSON array a line, from standard input first; then
times importing <module> from <src dir> and loading the permutations through
``baxlab.jsonio`` the way ``baxlab map --perm`` does, and prints the seconds
of CPU time this took.  Then it times calibration units (see
calibration.py) and prints their median, which scales the set-up time to the
reference speed of the box.
"""
import json
import sys
import time

UNITS = 5


def main() -> None:
    src, module = sys.argv[1], sys.argv[2]
    lines = sys.stdin.read().splitlines()
    started = time.process_time()
    sys.path.insert(0, src)
    __import__(module)
    from baxlab import jsonio

    perms = [jsonio.perm_from_obj(json.loads(line)) for line in lines]
    elapsed = time.process_time() - started
    import calibration  # after the timed part: not baxlab's set-up

    units = sorted(calibration.unit() for _ in range(UNITS))
    print(f"{elapsed!r} {len(perms)} {units[UNITS // 2]!r}")


if __name__ == "__main__":
    main()
