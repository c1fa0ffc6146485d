#!/usr/bin/env python3
"""List the library functions that no program links.

Usage: scripts/unlinked.py BUILD PERFBENCH_BUILD

BUILD is a configure of the repository root, PERFBENCH_BUILD one of
perfbench/. Configure both with

    -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections"
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections

and build the programs and the tests: every target in BUILD/bench,
BUILD/examples and BUILD/tests, and perfbench in PERFBENCH_BUILD. Each
function then sits in its own section and the linker drops every
section a binary does not reach; -O0 keeps calls out of line, so no
function looks unused only because it was inlined.

Prints, one qualified name per line (overloads share a line), every
bolt:: function that no program's symbol table holds and that either
a BUILD/src/*/libbolt_*.a archive defines out of line (nm type T; the
exact symbol is looked up) or a BUILD/tests binary defines inline (nm
type W; the name with its template arguments stripped is looked up, so
a template a program instantiates with other arguments counts as
linked). Constructors and destructors are skipped, and so are inline
assignment operators, which the compiler writes, and the tests' own
bolt::test helpers. Such a function is reached by tests or by nothing.
Exits 1 when a printed name is missing from scripts/unlinked_allow.txt,
the list of those kept on purpose, each with its reason; 2 on bad usage
or a missing build.
"""

import glob
import os
import subprocess
import sys

ALLOW = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "unlinked_allow.txt")


def defined_symbols(path):
    """(nm type, demangled signature) of every symbol `path` defines."""
    out = subprocess.run(["nm", "-C", "--defined-only", path],
                         capture_output=True, text=True, check=True).stdout
    for line in out.splitlines():
        fields = line.split(" ", 2)
        if len(fields) == 3:
            yield fields[1], fields[2]


def qualified_name(signature):
    """`ns::Class::fn(args) const` -> `ns::Class::fn`."""
    s = signature.replace("[abi:cxx11]", "")
    while s.endswith((" const", " &", " &&")):
        s = s.rsplit(" ", 1)[0]
    if not s.endswith(")"):
        return s
    depth = 0
    for i in range(len(s) - 1, -1, -1):
        depth += {")": 1, "(": -1}.get(s[i], 0)
        if depth == 0:
            return s[:i]
    return s


def untemplated_name(signature):
    """`R ns::C<T>::fn<U>(args)` -> `ns::C::fn`: template arguments and
    the return type a template's symbol carries are dropped."""
    out, depth, i = [], 0, 0
    while i < len(signature):
        if depth == 0 and signature.startswith("operator", i):
            # operator<, operator<<=, operator-> ... are not brackets.
            j = i + len("operator")
            while j < len(signature) and signature[j] in "<>=-":
                j += 1
            out.append(signature[i:j])
            i = j
            continue
        c = signature[i]
        if c == "<":
            depth += 1
        elif c == ">" and depth:
            depth -= 1
        elif depth == 0:
            out.append(c)
        i += 1
    name = qualified_name("".join(out))
    depth = 0
    for i in range(len(name) - 1, -1, -1):
        depth += {")": 1, "}": 1, "(": -1, "{": -1}.get(name[i], 0)
        if depth == 0 and name[i] == " ":
            return name[i + 1:]
    return name


def is_structor(name):
    parts = name.split("::")
    return len(parts) > 1 and (parts[-1].startswith("~") or
                               parts[-1] == parts[-2].split("<")[0])


def executables(pattern):
    return [p for p in glob.glob(pattern)
            if os.path.isfile(p) and os.access(p, os.X_OK)]


def programs(build, perfbench_build):
    found = executables(os.path.join(build, "bench", "*"))
    found.append(os.path.join(build, "examples", "bolt_cli"))
    found.append(os.path.join(perfbench_build, "perfbench"))
    return found


def main(argv):
    if len(argv) != 3:
        print("usage: scripts/unlinked.py BUILD PERFBENCH_BUILD",
              file=sys.stderr)
        return 2
    build, perfbench_build = argv[1], argv[2]
    archives = sorted(glob.glob(os.path.join(build, "src", "*",
                                             "libbolt_*.a")))
    tests = sorted(executables(os.path.join(build, "tests", "test_*")))
    progs = programs(build, perfbench_build)
    missing = [p for p in progs if not os.path.isfile(p)]
    if not archives:
        missing.append(build + "/src/*/libbolt_*.a")
    if not tests:
        missing.append(build + "/tests/test_*")
    if missing:
        print("unlinked.py: not built: " + ", ".join(missing),
              file=sys.stderr)
        return 2

    linked, linked_names = set(), set()
    for prog in progs:
        for _, sig in defined_symbols(prog):
            linked.add(sig)
            linked_names.add(untemplated_name(sig))
    unlinked = set()
    for archive in archives:
        for kind, sig in defined_symbols(archive):
            name = qualified_name(sig)
            if (kind == "T" and sig.startswith("bolt::") and
                    sig not in linked and not is_structor(name)):
                unlinked.add(name)
    for test in tests:
        for kind, sig in defined_symbols(test):
            name = untemplated_name(sig)
            if (kind == "W" and name.startswith("bolt::") and
                    not name.startswith("bolt::test::") and
                    name not in linked_names and not is_structor(name) and
                    not name.endswith("::operator=")):
                unlinked.add(name)

    with open(ALLOW) as f:
        allowed = {line.split("#", 1)[0].strip() for line in f}
    status = 0
    for name in sorted(unlinked):
        print(name)
        if name not in allowed:
            print(f"unlinked.py: {name} is linked by no program and not "
                  f"in {os.path.basename(ALLOW)}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
