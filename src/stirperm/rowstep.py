"""One step of the triangle's row recurrence, and the helper process that
runs it on the right-hand block of a large row.

Entry i of row m reads only entries i - 1 and i of row m - 1, so the indices
of a row split at any k into a left block 1..k, which needs nothing from the
right, and a right block k+1..m, which needs one entry T(m-1, k) from the
left per row. ``triangle.triangle_row`` computes the left block itself and
starts this file as a script for the right block:

    python -I -S rowstep.py

It reads from stdin the order n, the split point k, the starting order s,
the entries T(s, k+1..s), then T(m, k) for m = s..n-1 as the caller computes
them, and it writes T(n, k+1..n) to stdout. Every number goes as a
length-prefixed integer (``write_int``). The file imports nothing from its
package, so the helper starts in a bare interpreter, and the serial route,
the left block and the helper all run the same ``step``.
"""

import io
import sys

_PREFIX = 4  # bytes in the little-endian length of each integer


def step(
    m: int, span: range, prev: tuple[int, ...], left: int = 0
) -> tuple[int, ...]:
    """Entries T(m, i) for i in ``span``, a range of consecutive indices, by
    T(m, i) = i T(m-1, i) + (2m - i) T(m-1, i-1). ``prev`` holds T(m-1, i)
    for i in ``span``, one short at the right end where that entry is 0, and
    ``left`` is T(m-1, span.start - 1)."""
    return tuple(
        i * a + (2 * m - i) * b for i, a, b in zip(span, prev + (0,), (left,) + prev)
    )


def write_int(stream: io.BufferedIOBase, value: int) -> None:
    """Write the non-negative int ``value`` as its byte count, then its bytes."""
    data = value.to_bytes((value.bit_length() + 7) // 8, "little")
    stream.write(len(data).to_bytes(_PREFIX, "little"))
    stream.write(data)


def read_int(stream: io.BufferedIOBase) -> int:
    """The next int that ``write_int`` wrote; EOFError if the stream ends first."""
    head = stream.read(_PREFIX)
    if len(head) == _PREFIX:
        size = int.from_bytes(head, "little")
        data = stream.read(size)
        if len(data) == size:
            return int.from_bytes(data, "little")
    raise EOFError("stream ended inside an integer")


def serve(source: io.BufferedIOBase, sink: io.BufferedIOBase) -> None:
    """The helper's side of the split: the right block of row n."""
    n, k, start = (read_int(source) for _ in range(3))
    right = tuple(read_int(source) for _ in range(start - k))
    for m in range(start + 1, n + 1):
        right = step(m, range(k + 1, m + 1), right, read_int(source))
    for value in right:
        write_int(sink, value)
    sink.flush()


if __name__ == "__main__":
    serve(sys.stdin.buffer, sys.stdout.buffer)
