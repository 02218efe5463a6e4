"""Set-up probe: seconds from `import fluidspan` to the first flushed CSV row.

    python3 benchmarks/probe.py SRC_DIR CONFIG_JSON

Runs in a fresh interpreter, so imports and every lazy initialisation are
paid again; the run is stopped once its first data row has been flushed.
Prints the elapsed seconds.
"""

import json
import sys
import time


class FirstRowFlushed(Exception):
    pass


class FirstRowStream:
    """CSV stream that stops the run when the first data row is flushed."""

    def __init__(self, start):
        self.start = start
        self.text = []
        self.elapsed = None

    def write(self, s):
        self.text.append(s)

    def flush(self):
        if "".join(self.text).count("\n") >= 2:  # header line, then a row
            self.elapsed = time.perf_counter() - self.start
            raise FirstRowFlushed


def main():
    src, config = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    start = time.perf_counter()
    from fluidspan import harness

    stream = FirstRowStream(start)
    try:
        harness.run(harness.RunConfig(**config), stream)
    except FirstRowFlushed:
        pass
    if stream.elapsed is None:
        sys.exit("the run finished without flushing a CSV row")
    print(repr(stream.elapsed))


if __name__ == "__main__":
    main()
