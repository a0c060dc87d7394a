#!/usr/bin/env python3
"""Turns a sigprof.so dump into tables of sample shares.

    python3 symbolize.py prof.txt [--top N]

The executable (the first file mapped) is resolved with
`addr2line -a -i -f -C` after subtracting its load base, which gives every
sample two names: the innermost function inlined at that address — where
the time is spent — and the outermost symbol that contains it — what a
symbol-level profiler would have shown. Samples in shared objects (libc's
malloc, memmove, ...) have no debug info here and are bucketed by the
nearest `nm -D` symbol below them — "past NAME" when the sample lies
beyond that symbol's size, in code libc does not export (its allocator's
internals sit past `__default_morecore`, its AVX memmove/memset family
past `__nss_database_lookup`).

A third table is keyed by "innermost <= outermost", so that a helper
inlined into several callers (`Vec::extend`, `ptr::write`, ...) is split
by the symbol it was inlined into.
"""

import bisect
import collections
import re
import subprocess
import sys


def read_dump(path):
    """The file-backed mappings as (start, end, offset, path), and the samples."""
    mappings, samples = [], []
    with open(path) as dump:
        lines = iter(dump)
        for line in lines:
            if line.strip() == "samples":
                break
            fields = line.split(None, 5)
            if len(fields) == 6:
                start, end = (int(x, 16) for x in fields[0].split("-"))
                mappings.append((start, end, int(fields[2], 16), fields[5].strip()))
        samples = [int(line, 16) for line in lines]
    return mappings, samples


def trim(name):
    """Drops the hash suffix of a legacy-mangled Rust symbol."""
    return re.sub(r"::h[0-9a-f]{16}$", "", name)


def resolve_executable(exe, addresses):
    """{address: (innermost inlined function, outermost symbol)} by addr2line."""
    query = "".join(f"{a:#x}\n" for a in addresses)
    out = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", exe],
        input=query, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    names, frames, address = {}, [], None
    # Per address: the "0x..." echo, then (function, file:line) pairs,
    # innermost first.
    for line in out + ["0x0"]:
        if re.fullmatch(r"0x[0-9a-f]+", line):
            if address is not None:
                functions = frames[0::2] or ["??"]
                names[address] = (trim(functions[0]), trim(functions[-1]))
            address, frames = int(line, 16), []
        else:
            frames.append(line)
    return names


def dynamic_symbols(lib):
    """The sorted (address, size, name) triples `nm -D` defines in a shared object."""
    out = subprocess.run(
        ["nm", "-D", "-S", "--defined-only", lib], capture_output=True, text=True
    ).stdout
    symbols = []
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 4:
            address, size = int(fields[0], 16), int(fields[1], 16)
            symbols.append((address, size, fields[3].split("@")[0]))
    return sorted(symbols)


def main():
    args = sys.argv[1:]
    top = 25
    if "--top" in args:
        at = args.index("--top")
        top = int(args[at + 1])
        del args[at:at + 2]
    if len(args) != 1:
        sys.exit(__doc__)
    mappings, samples = read_dump(args[0])
    if not samples:
        sys.exit("no samples: did the program run for longer than a timer tick?")
    files = [m for m in mappings if m[3].startswith("/")]
    exe = files[0][3]
    # A position-independent object is loaded at the start of its offset-0
    # mapping; addresses inside the file count from there.
    base = {}
    for start, _, offset, path in files:
        if offset == 0:
            base.setdefault(path, start)

    counts = collections.Counter(samples)
    in_exe, elsewhere = {}, collections.Counter()
    for address, count in counts.items():
        owner = next((m for m in mappings if m[0] <= address < m[1]), None)
        if owner is None:
            elsewhere[("[unmapped]", None)] += count
        elif owner[3] == exe:
            in_exe[address - base[exe]] = count
        elif owner[3] in base:
            elsewhere[(owner[3], address - base[owner[3]])] += count
        else:
            elsewhere[(owner[3], None)] += count  # [vdso], [stack], ...

    innermost, outermost = collections.Counter(), collections.Counter()
    both = collections.Counter()
    for address, names in resolve_executable(exe, sorted(in_exe)).items():
        innermost[names[0]] += in_exe[address]
        outermost[names[1]] += in_exe[address]
        both[f"{names[0]} <= {names[1]}"] += in_exe[address]
    tables = {}
    for (path, address), count in elsewhere.items():
        label = path.rsplit("/", 1)[-1]
        if address is not None:
            if path not in tables:
                tables[path] = dynamic_symbols(path)
            at = bisect.bisect_right(tables[path], (address, float("inf"), "")) - 1
            if at >= 0:
                start, size, name = tables[path][at]
                past = "" if address < start + size else "past "
                label = f"{label}:{past}{name}"
        innermost[label] += count
        outermost[label] += count
        both[label] += count

    total = len(samples)
    print(f"{total} samples, {sum(in_exe.values())} in {exe}")
    reports = [
        ("innermost inlined function", innermost),
        ("outermost symbol", outermost),
        ("innermost <= outermost", both),
    ]
    for title, table in reports:
        print(f"\n-- by {title}")
        for name, count in table.most_common(top):
            print(f"{100 * count / total:6.2f} %  {count:7d}  {name}")


if __name__ == "__main__":
    main()
