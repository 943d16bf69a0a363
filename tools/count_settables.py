#!/usr/bin/env python3
"""Counts the settable values of the library and of mars_sim.

Run from the root of a checkout:

    python3 tools/count_settables.py            # one line per struct, total
    python3 tools/count_settables.py --total    # the total alone

A settable value is
  * a data member of a struct in a src/ header whose name ends in
    `Options` or `Config`, or of `ClientSpec`;
  * a row of mars_sim's `kFlags` table (tools/mars_sim.cc).

Nested structs count by the same name rule. One named `*Options` or
`*Config` (such as `FleetOptions::AbrConfig`) is a struct of its own,
listed under its qualified name. One named otherwise (such as
`FleetOptions::CellOutage`) adds nothing of its own: the member that
holds it (`cell_outages`) is one value of the enclosing struct. A member
whose type is another counted struct (such as `FleetOptions::cell`) is
one value, and the fields of that struct count once, under its own name.
Static members, functions, types and aliases are not values.
"""

import argparse
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTED_NAME = re.compile(r"(Options|Config)$")
STRUCT_HEAD = re.compile(r"\bstruct\s+(\w+)\s*(?:final\s*)?\{")


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    text = re.sub(r"//[^\n]*", " ", text)
    return re.sub(r'"(?:\\.|[^"\\])*"', '""', text)


def matching_brace(text, open_at):
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    raise ValueError("unbalanced braces")


def top_level_statements(body):
    """Splits a struct body into its top-level statements.

    Yields (text, nested) pairs: `nested` is the (name, body) of a
    struct defined by the statement, or None.
    """
    start = 0
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "{":
            close = matching_brace(body, i)
            head = body[start:i]
            struct = STRUCT_HEAD.search(head + "{")
            if struct and struct.end() - 1 == len(head):
                yield head, (struct.group(1), body[i + 1:close])
                start = close + 1
                if body[start:].lstrip().startswith(";"):
                    start = body.index(";", start) + 1
                i = start
                continue
            # A brace initializer or an inline function body.
            after = body[close + 1:].lstrip()
            if after.startswith(";") or after.startswith(","):
                i = close + 1
                continue
            yield body[start:close + 1], None  # function with a body
            start = close + 1
            i = start
            continue
        if ch == ";":
            yield body[start:i], None
            start = i + 1
        i += 1


def data_members(statement):
    """Number of data members a top-level statement declares."""
    text = " ".join(statement.split())
    if not text or text.endswith(":"):
        return 0
    text = re.sub(r"^(public|private|protected)\s*:\s*", "", text)
    if re.match(r"(static|using|typedef|friend|enum|template|struct|class)\b",
                text):
        return 0
    declarator = re.split(r"=|\{", text, maxsplit=1)[0]
    if "(" in declarator or "operator" in declarator:
        return 0  # a function, constructor or operator
    depth = 0
    names = 1
    for ch in declarator:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "," and depth == 0:
            names += 1
    return names


def count_struct(name, body, counts):
    members = 0
    for statement, nested in top_level_statements(body):
        if nested is not None:
            inner, inner_body = nested
            if COUNTED_NAME.search(inner):
                count_struct(f"{name}::{inner}", inner_body, counts)
            # A trailing declarator (`struct X {...} x;`) is rare here and
            # left out on purpose: none exists in src/.
            continue
        members += data_members(statement)
    counts[name] = members


def library_counts():
    counts = {}
    for folder, _, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        for file in sorted(files):
            if not file.endswith(".h"):
                continue
            path = os.path.join(folder, file)
            text = strip_comments(open(path, encoding="utf-8").read())
            rel = os.path.relpath(path, ROOT)
            for match in STRUCT_HEAD.finditer(text):
                name = match.group(1)
                if not (COUNTED_NAME.search(name) or name == "ClientSpec"):
                    continue
                scopes = enclosing_scopes(text, match.start())
                # Nested counted structs are reached from their parent.
                if scopes and (COUNTED_NAME.search(scopes[-1])
                               or scopes[-1] == "ClientSpec"):
                    continue
                open_at = match.end() - 1
                body = text[open_at + 1:matching_brace(text, open_at)]
                qualified = "::".join(scopes + [name])
                count_struct(f"{rel}: {qualified}", body, counts)
    return counts


def enclosing_scopes(text, pos):
    """Names of the classes and structs whose bodies contain `pos`."""
    scopes = []
    for match in re.finditer(r"\b(?:class|struct)\s+(\w+)[^;{()]*\{", text):
        if match.start() >= pos:
            break
        open_at = match.end() - 1
        if matching_brace(text, open_at) > pos:
            scopes.append(match.group(1))
    return scopes


def flag_rows():
    text = open(os.path.join(ROOT, "tools", "mars_sim.cc"),
                encoding="utf-8").read()
    start = text.index("constexpr Flag kFlags[] = {")
    body = text[start:matching_brace(text, text.index("{", start))]
    return len(re.findall(r'^\s*\{"[\w-]+",', body, flags=re.M))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--total", action="store_true",
                        help="print only the total")
    args = parser.parse_args()
    counts = library_counts()
    fields = sum(counts.values())
    flags = flag_rows()
    if args.total:
        print(fields + flags)
        return 0
    width = max(len(name) for name in counts)
    for name, members in sorted(counts.items()):
        print(f"{name:<{width}}  {members:3d}")
    print(f"{'option fields':<{width}}  {fields:3d}")
    print(f"{'mars_sim flags (kFlags rows)':<{width}}  {flags:3d}")
    print(f"{'settable values':<{width}}  {fields + flags:3d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
