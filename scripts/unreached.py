#!/usr/bin/env python3
"""Reachability gate: every public item has a caller outside its own tests.

Lists each `pub` fn, struct, enum, trait, const, static or type under
`crates/*/src` (outside `#[cfg(test)]` code) that nothing references
except
  - its own definition (for a type, also the `impl` blocks of that type),
  - `#[cfg(test)]` code,
  - `crates/*/benches`.
References from anywhere else count as callers: library code, bins,
integration tests (`tests/`, `crates/*/tests`), `examples/` and
`benchmark/src`. Integration tests cannot see `#[cfg(test)]` items, so an
item they call must stay public.

Items kept on purpose go in `scripts/unreached.allow`, one per line:
`<path> <name> <tag>: <reason>`. The gate fails on any flagged item that
is not listed, and on any allowlist line that no longer matches a flagged
item.

It also fails on a `std::env::var("C3_...")` name that is missing from
README.md's knob table, and on a table row that no code reads.

Limits: this is a word match on comment- and string-free tokens, not name
resolution. An item whose name appears anywhere else counts as reached,
so common names (`new`, `get`, `len`) always pass. `use` lines and `impl`
headers are not references. The scan is first-order: a caller that is
itself unreached still counts, so a deletion can expose more items on the
next run.

Run from anywhere: `python3 scripts/unreached.py`. Exit status 0 is clean.
"""

import re
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOW = ROOT / "scripts" / "unreached.allow"
README = ROOT / "README.md"

ITEM_KINDS = {"fn", "struct", "enum", "trait", "const", "static", "type"}
TYPE_KINDS = {"struct", "enum", "trait", "type"}
# Tokens after which an `impl` keyword starts an impl block (anywhere else
# it is `impl Trait` in a type position).
IMPL_BLOCK_AFTER = {"}", ";", "{", "]", "unsafe", "default", None}

IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
RAW_STR = re.compile(r'b?r(#*)"')
# Files whose references count as callers. Benches are not scanned: a
# reference from a bench does not count.
SCANNED = ("crates/*/src/**/*.rs", "crates/*/tests/**/*.rs", "tests/**/*.rs",
           "examples/**/*.rs", "benchmark/src/**/*.rs")


def tokenize(src):
    """Tokens as (kind, text); kind is 'id', 'str' or 'p' (punctuation).

    Comments are dropped; string, char and number literals become one
    token each, so words inside them are not identifiers.
    """
    toks = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
        elif src.startswith("//", i):
            j = src.find("\n", i)
            i = n if j < 0 else j
        elif src.startswith("/*", i):
            depth, i = 1, i + 2
            while i < n and depth:
                if src.startswith("/*", i):
                    depth, i = depth + 1, i + 2
                elif src.startswith("*/", i):
                    depth, i = depth - 1, i + 2
                else:
                    i += 1
        elif (m := RAW_STR.match(src, i)) is not None:
            end = src.index('"' + m.group(1), m.end())
            toks.append(("str", src[m.end() : end]))
            i = end + 1 + len(m.group(1))
        elif c == '"' or src.startswith('b"', i):
            j = i + (2 if c == "b" else 1)
            start = j
            while src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            toks.append(("str", src[start:j]))
            i = j + 1
        elif c == "'" or src.startswith("b'", i):
            j = i + (2 if c == "b" else 1)
            if src[j] == "\\":
                i = src.index("'", j + 2) + 1
                toks.append(("p", "char"))
            elif j + 1 < n and src[j + 1] == "'":
                i = j + 2
                toks.append(("p", "char"))
            else:
                # A lifetime or label: not an item reference.
                m = IDENT.match(src, j)
                i = m.end() if m else j
                toks.append(("p", "lifetime"))
        elif c.isdigit():
            j = i + 1
            while j < n and (src[j].isalnum() or src[j] == "_" or
                             (src[j] == "." and j + 1 < n and src[j + 1].isdigit())):
                j += 1
            toks.append(("p", "num"))
            i = j
        elif src.startswith("r#", i) and IDENT.match(src, i + 2):
            m = IDENT.match(src, i + 2)
            toks.append(("id", m.group()))
            i = m.end()
        elif (m := IDENT.match(src, i)) is not None:
            toks.append(("id", m.group()))
            i = m.end()
        else:
            toks.append(("p", c))
            i += 1
    return toks


def match_close(toks, i):
    """Index of the bracket closing the one at `i`."""
    opens, closes = "([{", ")]}"
    depth = 0
    for j in range(i, len(toks)):
        kind, t = toks[j]
        if kind != "p":
            continue
        if t in opens:
            depth += 1
        elif t in closes:
            depth -= 1
            if depth == 0:
                return j
    return len(toks) - 1


def item_end(toks, i):
    """Last token of the item starting at `i`: its first `;` outside
    brackets, or the `}` closing its first brace."""
    j = i
    while j < len(toks):
        kind, t = toks[j]
        if kind == "p" and t in "([":
            j = match_close(toks, j) + 1
            continue
        if kind == "p" and t == ";":
            return j
        if kind == "p" and t == "{":
            return match_close(toks, j)
        j += 1
    return len(toks) - 1


def is_cfg_test(toks, i):
    """True when `#[cfg(test)]` starts at `i`."""
    want = [("p", "#"), ("p", "["), ("id", "cfg"), ("p", "("), ("id", "test"),
            ("p", ")"), ("p", "]")]
    return toks[i : i + len(want)] == want


def impl_self_type(toks, i, brace):
    """Name of the type an `impl` header (tokens i..brace) implements for."""
    j = i + 1
    if toks[j] == ("p", "<"):
        depth = 0
        while j < brace:
            t = toks[j]
            if t == ("p", "<"):
                depth += 1
            elif t == ("p", ">") and toks[j - 1] != ("p", "-"):
                depth -= 1
                if depth == 0:
                    j += 1
                    break
            j += 1
    path = toks[j:brace]
    for k, t in enumerate(path):
        if t == ("id", "for"):
            path = path[k + 1 :]
            break
    name = None
    for kind, t in path:
        if (kind, t) in (("p", "<"), ("id", "where")):
            break
        if kind == "id" and t not in ("dyn", "mut"):
            name = t
    return name


class Source:
    def __init__(self, path):
        self.rel = path.relative_to(ROOT).as_posix()
        self.toks = tokenize(path.read_text())
        n = len(self.toks)
        # Tokens that never count as a reference: cfg(test) code, `use`
        # declarations and impl headers. `test` marks cfg(test) code alone.
        self.dead = bytearray(n)
        self.test = bytearray(n)
        # (self type, first, last) of each impl block.
        self.impls = []
        prev = None
        i = 0
        while i < n:
            kind, t = self.toks[i]
            if kind == "p" and t == "#" and is_cfg_test(self.toks, i):
                j = i + 7
                while self.toks[j] == ("p", "#"):
                    j = match_close(self.toks, j + 1) + 1
                end = item_end(self.toks, j)
                self.test[i : end + 1] = b"\1" * (end + 1 - i)
                self.dead[i : end + 1] = b"\1" * (end + 1 - i)
                prev, i = "}", end + 1
                continue
            if kind == "id" and t == "use":
                end = item_end(self.toks, i)
                self.dead[i : end + 1] = b"\1" * (end + 1 - i)
            if kind == "id" and t == "impl" and prev in IMPL_BLOCK_AFTER:
                brace = i
                while self.toks[brace] != ("p", "{"):
                    brace += 1
                self.dead[i:brace] = b"\1" * (brace - i)
                self.impls.append((impl_self_type(self.toks, i, brace), brace,
                                   match_close(self.toks, brace)))
            prev = t
            i += 1

    def pub_items(self):
        """(kind, name, first, last) of every `pub` item outside cfg(test)."""
        toks = self.toks
        for i, tok in enumerate(toks):
            if tok != ("id", "pub") or self.test[i]:
                continue
            j = i + 1
            while toks[j][1] in ("const", "unsafe", "async", "extern", "mut") \
                    or toks[j][0] == "str":
                if toks[j] == ("id", "const") and toks[j + 1][0] == "id" \
                        and toks[j + 1][1] not in ("fn", "unsafe", "async", "extern"):
                    break
                j += 1
            kind = toks[j][1]
            if toks[j][0] != "id" or kind not in ITEM_KINDS:
                continue
            k = j + 1
            if toks[k] == ("id", "mut"):
                k += 1
            if toks[k][0] != "id":
                continue
            yield kind, toks[k][1], i, item_end(toks, i)


def unreached(srcs):
    index = defaultdict(list)
    for s in srcs:
        for pos, (kind, t) in enumerate(s.toks):
            if kind == "id" and not s.dead[pos]:
                index[t].append((s, pos))
    impls = defaultdict(list)
    for s in srcs:
        for name, first, last in s.impls:
            impls[name].append((s, first, last))
    flagged = []
    for s in srcs:
        if not s.rel.startswith("crates/") or "/src/" not in s.rel:
            continue
        for kind, name, first, last in s.pub_items():
            own = [(s, first, last)]
            if kind in TYPE_KINDS:
                own += impls.get(name, [])
            reached = any(
                not any(o is src and lo <= pos <= hi for o, lo, hi in own)
                for src, pos in index.get(name, ())
            )
            if not reached:
                flagged.append((s.rel, name, kind))
    return flagged


def knob_errors(srcs):
    read = set()
    for s in srcs:
        toks = s.toks
        for i in range(len(toks) - 5):
            if toks[i] == ("id", "env") and toks[i + 1] == ("p", ":") \
                    and toks[i + 3][1] in ("var", "var_os") \
                    and toks[i + 4] == ("p", "(") and toks[i + 5][0] == "str":
                name = toks[i + 5][1]
                if name.startswith("C3_"):
                    read.add(name)
    table = set(re.findall(r"^\|\s*`(C3_[A-Z0-9_]+)`", README.read_text(), re.M))
    errors = [f"env var {n} is read but missing from README.md's knob table"
              for n in sorted(read - table)]
    errors += [f"README.md's knob table lists {n}, which no code reads"
               for n in sorted(table - read)]
    return errors


def main():
    srcs = [Source(path) for pattern in SCANNED for path in sorted(ROOT.glob(pattern))]
    flagged = unreached(srcs)
    allow = {}
    for lineno, line in enumerate(ALLOW.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 3)
        if len(parts) < 4 or not re.fullmatch(r"[a-z]+:", parts[2]):
            sys.exit(f"{ALLOW.name}:{lineno}: want `<path> <name> <tag>: <reason>`")
        allow[(parts[0], parts[1])] = lineno
    errors = []
    seen = set()
    for rel, name, kind in flagged:
        if (rel, name) in allow:
            seen.add((rel, name))
        else:
            errors.append(f"{rel}: pub {kind} {name} has no caller outside its own tests")
    for key, lineno in sorted(allow.items(), key=lambda kv: kv[1]):
        if key not in seen:
            errors.append(f"{ALLOW.name}:{lineno}: {key[0]} {key[1]} is no longer unreached")
    errors += knob_errors(srcs)
    for e in errors:
        print(e)
    print(f"unreached: {len(flagged)} unreached pub items, {len(allow)} allowed, "
          f"{len(errors)} errors", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
