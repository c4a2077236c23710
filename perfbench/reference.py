#!/usr/bin/env python3
"""Independent reference for the UTS trees the benchmark simulates.

It walks the tree from its definition alone, with Python's hashlib SHA-1
rather than the simulator's own SHA-1 (src/sha1/):

  * the root is SHA-1 of the tree seed as 4 big-endian bytes;
  * child i of a node is SHA-1(parent digest || i as 4 big-endian bytes);
  * a node at depth d < depth has m children, geometric with expected
    branching b0 * (1 - d/depth) ("linear" shape), drawn by inverse
    transform from u = leading 32 bits of its digest / 2^32:
    m = floor(log(1 - u) / log(1 - 1/(1 + b))), capped at max_children.

Usage:
  python3 perfbench/reference.py --tree-seed 19 --depth 15
prints the node count, leaf count and deepest level of that tree.
"""
import argparse
import hashlib
import math
import struct

MAX_CHILDREN = 4096


def num_children(digest, level, depth, b0):
    if level >= depth:
        return 0
    b = b0 * (1.0 - level / depth)
    if b <= 0.0:
        return 0
    prob = 1.0 / (1.0 + b)
    u = struct.unpack(">I", digest[:4])[0] * 2.0**-32
    m = math.floor(math.log(1.0 - u) / math.log(1.0 - prob))
    return min(m, MAX_CHILDREN) if m > 0 else 0


def tree_info(tree_seed, depth, b0=4):
    """Returns (nodes, leaves, max_level) of the linear geometric tree."""
    sha1 = hashlib.sha1
    pack = struct.Struct(">I").pack
    stack = [(sha1(pack(tree_seed)).digest(), 0)]
    nodes = leaves = max_level = 0
    while stack:
        digest, level = stack.pop()
        nodes += 1
        max_level = max(max_level, level)
        k = num_children(digest, level, depth, b0)
        if k == 0:
            leaves += 1
        for i in range(k):
            stack.append((sha1(digest + pack(i)).digest(), level + 1))
    return nodes, leaves, max_level


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree-seed", type=int, required=True)
    ap.add_argument("--depth", type=int, required=True)
    ap.add_argument("--b0", type=int, default=4)
    a = ap.parse_args()
    nodes, leaves, max_level = tree_info(a.tree_seed, a.depth, a.b0)
    print(f"tree_seed={a.tree_seed} depth={a.depth} b0={a.b0} "
          f"nodes={nodes} leaves={leaves} max_level={max_level}")


if __name__ == "__main__":
    main()
