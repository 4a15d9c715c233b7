#!/usr/bin/env python3
"""Rank what a sigprof.so sample file says, by function or by layer.

    tools/sigprof/resolve.py target-fp/release/experiments run.samples [TOP]
    tools/sigprof/resolve.py --layers target-fp/release/experiments run.samples

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

With --layers, one table instead: a partition of all samples by layer
whose shares sum to 100.00%. A sample is charged to the first
`spdyier_<crate>` frame on its stack, leaf first and innermost inlined
frame first, so std code inlined into a crate counts as that crate. The
layer is the crate's name (`tcp`, `spdy`, `http`, ...), and `core` is
split by module (`core.world`, `core.session`, `core.driver`, ...). A
libc leaf is charged to its caller, as above; a stack with no such frame
counts as `other`.
"""
import argparse
import collections
import re
import subprocess

# The owning path of a demangled function: `<A as B>::f` is owned by A.
WORKSPACE_FN = re.compile(r"<*spdyier_(\w+)::(\w+)(::)?")


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


def layer_of(function):
    """The layer a demangled function belongs to; None outside the workspace.

    >>> layer_of("spdyier_core::world::World::drain_tx")
    'core.world'
    >>> layer_of("<spdyier_spdy::compress::Compressor as core::default::Default>::default")
    'spdy'
    >>> layer_of("spdyier_core::Testbed::try_run_traced")
    'core.lib'
    >>> layer_of("alloc::vec::Vec<T,A>::push") is None
    True
    """
    m = WORKSPACE_FN.match(function)
    if not m:
        return None
    crate, item, nested = m.groups()
    if crate != "core":
        return crate
    # A lower-case segment followed by more path is a module of core.
    return f"core.{item}" if nested and item[0].islower() else "core.lib"


def stack_layer(stack, frames):
    """The layer one sample (addresses, leaf first) is charged to.

    `frames` is what `resolve` returns. A std frame inlined into a crate
    counts as that crate, and a libc leaf ("0x0") as its caller:

    >>> frames = {
    ...     "0x10": [("spdyier_core::world::World::drain_tx", "world.rs:9")],
    ...     "0x20": [("core::ptr::copy_nonoverlapping", "intrinsics.rs:1"),
    ...              ("spdyier_tcp::sender::Sender::poll_transmit", "sender.rs:5"),
    ...              ("spdyier_core::world::World::drain_tx", "world.rs:3")],
    ...     "0x30": [("std::rt::lang_start_internal", "rt.rs:1")],
    ... }
    >>> stack_layer(["0x10", "0x30"], frames)
    'core.world'
    >>> stack_layer(["0x20", "0x10"], frames)
    'tcp'
    >>> stack_layer(["0x0", "0x010", "0x30"], frames)
    'core.world'
    >>> stack_layer(["0x0", "0x30"], frames)
    'other'
    """
    for addr in stack:
        if addr == "0x0":
            continue
        for function, _ in frames.get(hex(int(addr, 16)), []):
            layer = layer_of(function)
            if layer:
                return layer
    return "other"


def percentages(counts, total):
    """Each count's share of `total`, rounded to hundredths of a percent so
    that the shares sum to exactly 100.00 (largest remainder first).

    >>> percentages({"a": 1, "b": 1, "c": 1}, 3)
    {'a': 33.34, 'b': 33.33, 'c': 33.33}
    >>> sum(percentages({"x": 2, "y": 5, "z": 7}, 14).values())
    100.0
    """
    units = 10_000
    share = {k: n * units // total for k, n in counts.items()}
    left = units - sum(share.values())
    for k in sorted(counts, key=lambda k: (-(counts[k] * units % total), k))[:left]:
        share[k] += 1
    return {k: v / 100 for k, v in share.items()}


def print_layers(stacks, frames):
    layers = collections.Counter(stack_layer(stack, frames) for stack in stacks)
    shares = percentages(layers, len(stacks))
    print(f"{len(stacks)} samples\n\n== layers ==")
    for name, _ in layers.most_common():
        print(f"{shares[name]:6.2f}%  {name}")
    print(f"{sum(shares.values()):6.2f}%  total")


def print_functions(stacks, frames, top):
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


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--layers", action="store_true", help="one partition of all samples by layer")
    parser.add_argument("binary")
    parser.add_argument("samples")
    parser.add_argument("top", nargs="?", type=int, default=30)
    args = parser.parse_args()
    stacks = [line.split() for line in open(args.samples) if line.strip()]
    frames = resolve(args.binary, {a for stack in stacks for a in stack if a != "0x0"})
    if args.layers:
        print_layers(stacks, frames)
    else:
        print_functions(stacks, frames, args.top)


if __name__ == "__main__":
    main()
