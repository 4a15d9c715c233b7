#!/usr/bin/env python3
"""Rank what a sigprof.so sample file says, by function.

    tools/sigprof/resolve.py target-fp/release/experiments run.samples [TOP]

Every distinct address is resolved once with `addr2line -a -i -f -C`
(inlined frames included; the binary needs CARGO_PROFILE_RELEASE_DEBUG=2).
Three tables, as shares of all samples:

  self       by the innermost inlined frame at the leaf: who was executing.
             A leaf outside the binary (address 0: libc's malloc, memset,
             memcpy) is charged to its caller and shown as "<fn> [libc]",
             so allocator time lands on the code that asked for it.
  physical   the same by the outermost frame at the leaf: which compiled
             function, with its hottest file:line.
  inclusive  any frame of the stack, each function once per sample.
"""
import collections
import subprocess
import sys


def resolve(binary, addrs):
    """addr -> [(function, file:line), ...], innermost inlined frame first."""
    frames = {}
    addrs = sorted(addrs)
    for i in range(0, len(addrs), 2000):
        out = subprocess.run(
            ["addr2line", "-a", "-i", "-f", "-C", "-e", binary, *addrs[i : i + 2000]],
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        current = None
        lines = iter(out)
        for line in lines:
            if line.startswith("0x"):
                current = frames.setdefault(hex(int(line, 16)), [])
            else:
                current.append((line, next(lines).split(" (discriminator")[0]))
    return frames


def main():
    binary, samples = sys.argv[1], sys.argv[2]
    top = int(sys.argv[3]) if len(sys.argv) > 3 else 30
    stacks = [line.split() for line in open(samples) if line.strip()]
    frames = resolve(binary, {a for stack in stacks for a in stack if a != "0x0"})
    self_time, physical, lines, inclusive = (collections.Counter() for _ in range(4))
    for stack in stacks:
        outside = stack[0] == "0x0"
        walk = [hex(int(a, 16)) for a in stack[1 if outside else 0 :]]
        if not walk:
            self_time["[outside, no caller found]"] += 1
            continue
        leaf = frames.get(walk[0]) or [("??", "??")]
        tag = " [libc]" if outside else ""
        self_time[leaf[0][0] + tag] += 1
        physical[leaf[-1][0] + tag] += 1
        lines[(leaf[-1][0] + tag, leaf[0][1])] += 1
        seen = {fn for a in walk for fn, _ in frames.get(a, [])}
        inclusive.update(seen)
    total = len(stacks)
    print(f"{total} samples")
    for title, table in (("self", self_time), ("physical", physical), ("inclusive", inclusive)):
        print(f"\n== {title} ==")
        for name, n in table.most_common(top):
            where = ""
            if title == "physical":
                (_, line), hits = max(
                    ((k, v) for k, v in lines.items() if k[0] == name), key=lambda kv: kv[1]
                )
                where = f"   hottest {line} ({100 * hits / total:.1f}%)"
            print(f"{100 * n / total:6.2f}%  {name}{where}")


if __name__ == "__main__":
    main()
