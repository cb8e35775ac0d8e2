#!/usr/bin/env python3
"""End-to-end smoke test of ebct_compress_cli.

Usage: tools/cli_smoke.py <path/to/ebct_compress_cli> <work_dir>

Checks (stdlib only; registered as the `cli_smoke` CTest):

 1. An sz:eb=1e-3 `c`/`d` round trip of a sine payload restores every
    float within the bound, through files and through stdin/stdout, and
    both routes write the same EBCS bytes.
 2. `d` rejects a 28-byte legacy EBCC container whose header declares
    2^28 floats: non-zero exit, the process stays small (it must not
    size an allocation from the untrusted header), and an existing
    output file is left untouched.
 3. A malformed `--window=` value exits non-zero.
 4. The retired positional form `c <in> <out> <eb>` exits non-zero.
 5. stdio round trips of the other registry codecs: `none` and
    `lossless` restore the input bit for bit, and `jpeg-act:quality=50`
    exits 0 and restores the input's length.

Exit code 0 = pass, 1 = any failed check (each printed).
"""

import math
import os
import struct
import subprocess
import sys

EB = 1e-3
N = 100_000
MAX_RSS_KB = 128 * 1024  # a 2^28-float decode would touch ~1 GB


def run(cmd, stdin=None):
    return subprocess.run(cmd, input=stdin, capture_output=True)


def run_measured(cmd):
    """Run cmd to completion; return (exit code, peak RSS in KiB)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    cli, work = sys.argv[1], sys.argv[2]
    os.makedirs(work, exist_ok=True)
    path = lambda name: os.path.join(work, name)
    errors = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            errors.append(what)

    values = [math.sin(i * 0.01) * (1.0 + 0.1 * math.cos(i * 0.003)) for i in range(N)]
    payload = struct.pack(f"<{N}f", *values)
    ref = struct.unpack(f"<{N}f", payload)  # float32-rounded originals
    with open(path("sine.f32"), "wb") as f:
        f.write(payload)

    def within_bound(raw):
        if len(raw) != len(payload):
            return False
        got = struct.unpack(f"<{N}f", raw)
        return max(abs(a - b) for a, b in zip(ref, got)) <= EB

    # 1. File round trip, then the same through stdio.
    spec = f"--codec=sz:eb={EB:g}"
    enc = run([cli, "c", path("sine.f32"), path("sine.ebcs"), spec])
    check(enc.returncode == 0, "c <file> <file> exits 0")
    dec = run([cli, "d", path("sine.ebcs"), path("sine.out.f32")])
    check(dec.returncode == 0, "d <file> <file> exits 0")
    if enc.returncode == 0 and dec.returncode == 0:
        with open(path("sine.out.f32"), "rb") as f:
            check(within_bound(f.read()), "file round trip within eb")

    enc = run([cli, "c", "-", "-", spec], stdin=payload)
    check(enc.returncode == 0, "c - - exits 0")
    if enc.returncode == 0:
        with open(path("sine.ebcs"), "rb") as f:
            check(enc.stdout == f.read(), "stdio and file encodes write the same bytes")
        dec = run([cli, "d", "-", "-"], stdin=enc.stdout)
        check(dec.returncode == 0, "d - - exits 0")
        check(dec.returncode == 0 and within_bound(dec.stdout), "stdio round trip within eb")

    # 2. Legacy EBCC container: "EBCC" | u32 spec len | spec | u64 numel | payload.
    ebcc = b"EBCC" + struct.pack("<I", 2) + b"sz" + struct.pack("<Q", 1 << 28) + bytes(10)
    assert len(ebcc) == 28
    with open(path("bomb.ebcc"), "wb") as f:
        f.write(ebcc)
    with open(path("keep.f32"), "wb") as f:
        f.write(payload)
    code, rss_kb = run_measured([cli, "d", path("bomb.ebcc"), path("keep.f32")])
    check(code != 0, f"d rejects an EBCC container (exit {code})")
    check(rss_kb < MAX_RSS_KB, f"d on EBCC stays small (max RSS {rss_kb} KiB)")
    with open(path("keep.f32"), "rb") as f:
        check(f.read() == payload, "rejected d leaves the existing output untouched")

    # 3. Malformed --window.
    bad = run([cli, "c", path("sine.f32"), path("w.ebcs"), "--window=abc"])
    check(bad.returncode != 0, f"--window=abc exits non-zero (exit {bad.returncode})")

    # 4. Retired positional error-bound form.
    old = run([cli, "c", path("sine.f32"), path("old.ebct"), "1e-3"])
    check(old.returncode != 0, f"positional 'c in out 1e-3' exits non-zero (exit {old.returncode})")

    # 5. Every other codec through the same streaming path, over stdio.
    for codec, exact in (("none", True), ("lossless", True), ("jpeg-act:quality=50", False)):
        enc = run([cli, "c", "-", "-", f"--codec={codec}"], stdin=payload)
        dec = run([cli, "d", "-", "-"], stdin=enc.stdout) if enc.returncode == 0 else enc
        check(dec.returncode == 0, f"{codec}: stdio c/d exit 0")
        if exact:
            check(dec.returncode == 0 and dec.stdout == payload, f"{codec}: round trip bit-exact")
        else:
            check(dec.returncode == 0 and len(dec.stdout) == len(payload),
                  f"{codec}: round trip keeps the input's length")

    if errors:
        print(f"cli_smoke: {len(errors)} check(s) failed", file=sys.stderr)
        return 1
    print("cli_smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
