#!/usr/bin/env python3
"""AST-level determinism-contract checker for the MiniCost tree.

tools/lint_contract.py greps for token-level hazards; this tool checks the
*semantic* half of the contract (DESIGN.md §7/§9/§12) — the violations a
grep cannot see because they hide behind typedefs, member types, call
chains, or the build graph:

  billing-exact-sum    a `double` compound accumulation (`+=`/`-=`) in code
                       reachable from StorageSimulator / BillingReport /
                       merge_shard must go through stats::ExactSum, or carry
                       a written order-independence argument. Reachability is
                       computed over the call graph (restricted to the
                       src/sim + src/stats universe, where bill state lives),
                       so e.g. CostBreakdown::operator+= is checked because
                       BillingReport::refresh() calls it — no token in that
                       operator mentions billing at all.
  rng-flow             construction of a std:: random engine (mt19937,
                       default_random_engine, random_device, ...) anywhere
                       outside src/util/rng.*, resolved through type aliases
                       (`using Engine = std::mt19937; Engine e;` is caught),
                       and propagated over the call graph: a call to a helper
                       function that constructs an engine is flagged at the
                       call site too.
  unordered-iteration  a range-for whose range expression's type resolves —
                       through aliases, member types, auto initializers, or
                       function return types — to a std::unordered_*
                       container, in any translation unit linked into
                       minicost_core (the link closure is parsed from the
                       src/*/CMakeLists.txt build graph, not hardcoded).
                       Hash-iteration order is unspecified, so planning and
                       billing results would depend on hashing details of
                       the build.
  lock-pool-callback   inside a method of a class with MC_GUARDED_BY-
                       annotated members, while a scoped lock is held, a call
                       back into the thread pool (submit / parallel_for)
                       or a blocking future get()/wait(). The help-while-waiting pool executes
                       queued tasks from inside blocking waits — re-entering
                       it with a mutex held is a lock-inversion deadlock
                       waiting for load (DESIGN.md §8).

Frontends: the rule engine runs on a backend-neutral "semantic facts" model
(declared types, alias tables, call edges, lock-held regions), so the C++
frontend is pluggable:

  --frontend=builtin  the bundled micro-frontend: tokenizer + scope/type/
                      call-graph extractor, stdlib-only. The *reference*
                      backend — the fixture suite in tests/lint/ pins it.
  --frontend=clang    libclang (python clang.cindex) over
                      compile_commands.json where installed; parses real
                      ASTs, so it also sees through macros and overload
                      resolution. Falls back to builtin with a warning when
                      libclang is unavailable.
  --frontend=auto     clang if importable, else builtin.

The default is builtin: lint verdicts must not depend on what happens to be
installed on the machine running them.

The translation-unit set comes from compile_commands.json (pass
--compile-commands or let it find build/compile_commands.json); without one
it falls back to globbing src/ tools/ bench/. Headers under those trees are
always indexed so cross-file aliases and member types resolve.

Suppression syntax — same line or the line directly above, reason mandatory:

    // lint-ast: allow(<rule-id>) -- <reason>

A suppression whose line no longer triggers its rule is itself an error
(stale-suppression), so silenced findings cannot outlive the code they
silenced. Suppressions naming an unknown rule id are errors too.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

RULE_IDS = (
    "billing-exact-sum",
    "rng-flow",
    "unordered-iteration",
    "lock-pool-callback",
)

SUPPRESS_RE = re.compile(
    r"lint-ast:\s*allow\((?P<rule>[A-Za-z0-9_-]+)\)"
    r"(?:\s*(?:--|—|:)\s*(?P<reason>\S.*))?"
)

RNG_ENGINE_TYPES = {
    "std::mt19937", "std::mt19937_64", "std::minstd_rand",
    "std::minstd_rand0", "std::default_random_engine", "std::ranlux24",
    "std::ranlux48", "std::ranlux24_base", "std::ranlux48_base",
    "std::knuth_b", "std::random_device",
}

LOCK_TYPE_RE = re.compile(
    r"\b(MutexLock|lock_guard|scoped_lock|unique_lock)\b")

POOL_CALLEES = {"submit", "parallel_for"}
FUTURE_BLOCKERS = {"get", "wait", "wait_for", "wait_until"}

RNG_EXEMPT_RE = re.compile(r"(^|/)src/util/rng\.(cpp|hpp)$")
BILLING_DIR_RE = re.compile(r"(^|/)src/(sim|stats)/")

KEYWORDS = {
    "alignas", "alignof", "auto", "bool", "break", "case", "catch", "char",
    "class", "const", "consteval", "constexpr", "constinit", "continue",
    "decltype", "default", "delete", "do", "double", "else", "enum",
    "explicit", "extern", "false", "final", "float", "for", "friend", "goto",
    "if", "inline", "int", "long", "mutable", "namespace", "new", "noexcept",
    "nullptr", "operator", "override", "private", "protected", "public",
    "register", "return", "short", "signed", "sizeof", "static",
    "static_assert", "static_cast", "const_cast", "dynamic_cast",
    "reinterpret_cast", "struct", "switch", "template", "this", "throw",
    "true", "try", "typedef", "typename", "union", "unsigned", "using",
    "virtual", "void", "volatile", "while",
}

TYPE_KEYWORDS = {
    "auto", "bool", "char", "double", "float", "int", "long", "short",
    "signed", "unsigned", "void", "wchar_t",
}

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "do", "else",
                    "try"}

SPECIFIERS = {
    "const", "constexpr", "constinit", "static", "inline", "virtual",
    "explicit", "friend", "mutable", "volatile", "typename", "extern",
    "register", "thread_local",
}


class Finding:
    def __init__(self, path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Lexing.
# --------------------------------------------------------------------------

def strip_code(text: str) -> list[str]:
    """Blanks comments, string/char literals, and preprocessor lines,
    preserving line structure. Handles /* */ across lines, raw strings, and
    backslash continuations of preprocessor lines."""
    lines = text.splitlines()
    out_lines: list[str] = []
    in_block = False
    continuation = False
    for line in lines:
        if continuation:
            continuation = line.rstrip().endswith("\\")
            out_lines.append("")
            continue
        if not in_block and re.match(r"\s*#", line):
            continuation = line.rstrip().endswith("\\")
            out_lines.append("")
            continue
        out = []
        i, n = 0, len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            ch = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if ch == "/" and nxt == "/":
                break
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if ch == "R" and nxt == '"':
                m = re.match(r'R"([^(]*)\(', line[i:])
                if m:
                    close = line.find(")" + m.group(1) + '"', i)
                    out.append('""')
                    i = n if close < 0 else close + len(m.group(1)) + 2
                    continue
            if ch in "\"'":
                quote = ch
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        break
                    i += 1
                out.append('""' if quote == '"' else "'x'")
                i += 1
                continue
            out.append(ch)
            i += 1
        out_lines.append("".join(out))
    return out_lines


TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*|::|->|\+=|-=|\*=|/=|==|!=|<=|>=|&&|\|\||\+\+|--"
    r"|\[\[|\]\]|[0-9][\w.]*|\S"
)


@dataclass
class Tok:
    line: int
    text: str


def tokenize(code_lines: list[str]) -> list[Tok]:
    toks: list[Tok] = []
    for idx, line in enumerate(code_lines, start=1):
        for m in TOKEN_RE.finditer(line):
            toks.append(Tok(idx, m.group(0)))
    return toks


# --------------------------------------------------------------------------
# Semantic facts: the backend-neutral model both frontends produce.
#
# Expression references defer type resolution: the frontend records the base
# identifier (with its locally-declared raw type, if the base is a local or
# parameter) plus the postfix chain; the Index resolves members, element
# types, aliases, and return types at rule time, when every file's symbols
# are known.
# --------------------------------------------------------------------------

@dataclass
class ExprRef:
    base: str                      # leading identifier ('' if unresolvable)
    base_type: str | None          # raw declared type when base is a local
    suffix: tuple = ()             # (('member', m) | ('call', m) | ('elem',))
    text: str = ""                 # source-ish text, for messages


@dataclass
class CallSite:
    line: int
    name: str                      # unqualified callee
    qual: str                      # full '::'-joined chain ('' if bare)
    receiver: ExprRef | None       # None for free/qualified calls


@dataclass
class FunctionFacts:
    qname: str                     # "BillingReport::refresh", "merge_shard"
    name: str
    cls: str | None
    rel: str
    line: int
    calls: list = field(default_factory=list)          # [CallSite]
    compound_adds: list = field(default_factory=list)  # [(line, ExprRef)]
    constructions: list = field(default_factory=list)  # [(line, raw type)]
    range_fors: list = field(default_factory=list)     # [(line, ExprRef)]
    locked_calls: list = field(default_factory=list)   # [CallSite]


@dataclass
class ClassFacts:
    name: str
    rel: str
    members: dict = field(default_factory=dict)        # name -> raw type
    guarded: bool = False
    method_returns: dict = field(default_factory=dict)  # name -> return type


@dataclass
class FileFacts:
    rel: str
    aliases: dict = field(default_factory=dict)
    classes: dict = field(default_factory=dict)
    functions: list = field(default_factory=list)
    global_vars: dict = field(default_factory=dict)
    free_returns: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# Builtin frontend.
# --------------------------------------------------------------------------

class _Scope:
    __slots__ = ("kind", "name", "access", "locals", "locks", "fn")

    def __init__(self, kind, name="", access="private", fn=None):
        self.kind = kind      # namespace | class | function | block
        self.name = name
        self.access = access
        self.locals: dict[str, str] = {}
        self.locks: list[str] = []
        self.fn = fn          # FunctionFacts of the enclosing function


def _is_macroish(name: str) -> bool:
    return name.startswith("MC_") or bool(re.fullmatch(r"[A-Z][A-Z0-9_]{2,}",
                                                       name))


def _extra_declarators(tail: list[str]) -> list[str]:
    """`double a, b, c;` — the names after the first declarator."""
    names = []
    depth = 0
    expect = False
    for t in tail:
        if t in ("(", "[", "{", "<"):
            depth += 1
        elif t in (")", "]", "}", ">"):
            depth = max(0, depth - 1)
        elif depth == 0:
            if t == ",":
                expect = True
                continue
            if expect and re.match(r"[A-Za-z_]\w*$", t) and t not in KEYWORDS:
                names.append(t)
            expect = False
    return names


def _type_chain_ok(tok: str) -> bool:
    return (tok == "::" or tok == "<" or tok == ">" or tok == "," or
            tok == "&" or tok == "*" or tok == "&&" or
            tok in SPECIFIERS or tok in TYPE_KEYWORDS or
            (tok not in KEYWORDS and re.match(r"[A-Za-z_]\w*$", tok)
             is not None))


class BuiltinFrontend:
    """Statement scanner with a scope stack. Not a C++ parser: it recognizes
    the declaration/definition shapes the clang-formatted MiniCost style
    produces, and degrades to opaque statements (never crashes) elsewhere."""

    def __init__(self, rel: str, text: str):
        self.rel = rel
        self.toks = tokenize(strip_code(text))
        self.facts = FileFacts(rel=rel)
        self.i = 0
        self.scopes: list[_Scope] = [_Scope("namespace", "")]

    # -- driving ---------------------------------------------------------

    def run(self) -> FileFacts:
        while self.i < len(self.toks):
            stmt, term = self._collect_statement()
            if term == "}":
                if stmt:
                    self._process_statement(stmt)
                if len(self.scopes) > 1:
                    self.scopes.pop()
                continue
            if term == "{":
                self._open_scope(stmt)
                continue
            if stmt:
                self._process_statement(stmt)
        return self.facts

    def _collect_statement(self):
        toks: list[Tok] = []
        depth = 0
        while self.i < len(self.toks):
            t = self.toks[self.i]
            if t.text in ("(", "["):
                depth += 1
            elif t.text in (")", "]"):
                depth = max(0, depth - 1)
            elif depth == 0:
                if t.text == ";":
                    self.i += 1
                    return toks, ";"
                if t.text == "}":
                    self.i += 1
                    return toks, "}"
                if t.text == "{":
                    prev = toks[-1].text if toks else ""
                    if prev in {")", "const", "noexcept", "override", "final",
                                "try", "else", "do"} or \
                            self._heads_scope(toks):
                        self.i += 1
                        return toks, "{"
                    # Initializer braces: consume the balanced group inline.
                    bd = 0
                    while self.i < len(self.toks):
                        tt = self.toks[self.i]
                        toks.append(tt)
                        if tt.text == "{":
                            bd += 1
                        elif tt.text == "}":
                            bd -= 1
                            if bd == 0:
                                break
                        self.i += 1
                    self.i += 1
                    continue
            toks.append(t)
            self.i += 1
        return toks, ";"

    def _heads_scope(self, toks: list[Tok]) -> bool:
        if not toks:
            return True
        return toks[0].text in {"namespace", "class", "struct", "enum",
                                "union", "extern"} or \
            toks[0].text in CONTROL_KEYWORDS

    # -- scope opening ---------------------------------------------------

    def _open_scope(self, stmt: list[Tok]) -> None:
        fn = self.scopes[-1].fn
        texts = [t.text for t in stmt]
        if texts and texts[0] == "template":
            stmt = self._strip_template(stmt)
            texts = [t.text for t in stmt]
        if not stmt:
            self.scopes.append(_Scope("block", fn=fn))
            return
        head = texts[0]
        if head == "namespace":
            name = texts[1] if len(texts) > 1 and \
                re.match(r"[A-Za-z_]\w*$", texts[1]) else ""
            self.scopes.append(_Scope("namespace", name, fn=None))
            return
        if head == "enum":
            self.scopes.append(_Scope("block", fn=fn))
            return
        if head in ("class", "struct", "union"):
            name = self._class_name(stmt)
            access = "public" if head != "class" else "private"
            self.scopes.append(_Scope("class", name, access))
            if name and name not in self.facts.classes:
                self.facts.classes[name] = ClassFacts(name=name, rel=self.rel)
            return
        if head in CONTROL_KEYWORDS:
            if head == "for":
                self._record_range_for(stmt, fn)
            if fn is not None:
                self._scan_sites(stmt, fn)
            self.scopes.append(_Scope("block", fn=fn))
            return
        # A '=' before the first top-level '(' means an initializer (e.g. a
        # lambda assigned to a local) rather than a function signature.
        eq_before_paren = False
        for t in texts:
            if t == "(":
                break
            if t == "=":
                eq_before_paren = True
                break
        if fn is not None and (eq_before_paren or "(" not in texts):
            self._process_statement(stmt)
            self.scopes.append(_Scope("block", fn=fn))
            return
        if "(" in texts and not eq_before_paren:
            self._open_function(stmt)
            return
        self.scopes.append(_Scope("block", fn=fn))

    def _strip_template(self, stmt: list[Tok]) -> list[Tok]:
        depth = 0
        for j in range(1, len(stmt)):
            if stmt[j].text == "<":
                depth += 1
            elif stmt[j].text == ">":
                depth -= 1
                if depth == 0:
                    return stmt[j + 1:]
        return []

    def _class_name(self, stmt: list[Tok]) -> str:
        j = 1
        name = ""
        while j < len(stmt):
            t = stmt[j].text
            if t == ":":
                break
            if t == "[[":
                while j < len(stmt) and stmt[j].text != "]]":
                    j += 1
                j += 1
                continue
            if re.match(r"[A-Za-z_]\w*$", t) and t not in KEYWORDS:
                if _is_macroish(t):
                    # Skip attribute-like macros, with or without arguments.
                    if j + 1 < len(stmt) and stmt[j + 1].text == "(":
                        depth = 0
                        while j < len(stmt):
                            if stmt[j].text == "(":
                                depth += 1
                            elif stmt[j].text == ")":
                                depth -= 1
                                if depth == 0:
                                    break
                            j += 1
                    j += 1
                    continue
                name = t
                j += 1
                continue
            j += 1
        return name

    def _open_function(self, stmt: list[Tok]) -> None:
        texts = [t.text for t in stmt]
        # Name = token before the first top-level '('.
        paren = -1
        depth = 0
        for j, t in enumerate(texts):
            if t == "<":
                depth += 1
            elif t == ">":
                depth = max(0, depth - 1)
            elif t == "(" and depth == 0:
                paren = j
                break
        if paren <= 0:
            self.scopes.append(_Scope("block", fn=self.scopes[-1].fn))
            return
        name = texts[paren - 1]
        name_at = paren - 1
        if name_at >= 1 and texts[name_at - 1] == "operator":
            name = "operator" + name
            name_at -= 1
        elif name == "]" and "operator" in texts[:paren]:
            name_at = texts.index("operator")
            name = "operator[]"
        elif name_at >= 1 and texts[name_at - 1] == "~":
            name = "~" + name
            name_at -= 1
        cls = None
        if name_at >= 2 and texts[name_at - 1] == "::" and \
                re.match(r"[A-Za-z_]\w*$", texts[name_at - 2]):
            cls = texts[name_at - 2]
            name_at -= 2
        scope_cls = self._enclosing_class_name()
        if cls is None:
            cls = scope_cls
        ret = self._canon_type(texts[:name_at])
        fn = FunctionFacts(
            qname=f"{cls}::{name}" if cls else name,
            name=name, cls=cls, rel=self.rel, line=stmt[0].line)
        self.facts.functions.append(fn)
        if cls:
            cf = self.facts.classes.setdefault(
                cls, ClassFacts(name=cls, rel=self.rel))
            if ret:
                cf.method_returns.setdefault(name, ret)
        elif ret:
            self.facts.free_returns.setdefault(name, ret)
        scope = _Scope("function", name, fn=fn)
        for pname, ptype in self._parse_params(stmt, paren):
            scope.locals[pname] = ptype
        self.scopes.append(scope)

    def _enclosing_class_name(self) -> str | None:
        for s in reversed(self.scopes):
            if s.kind == "class":
                return s.name
        return None

    def _parse_params(self, stmt: list[Tok], paren: int):
        depth = 0
        group: list[Tok] = []
        for t in stmt[paren:]:
            if t.text == "(":
                depth += 1
                if depth == 1:
                    continue
            elif t.text == ")":
                depth -= 1
                if depth == 0:
                    break
            if depth >= 1:
                group.append(t)
        params = []
        cur: list[Tok] = []
        depth = 0
        for t in group + [Tok(0, ",")]:
            if t.text in ("<", "(", "["):
                depth += 1
            elif t.text in (">", ")", "]"):
                depth = max(0, depth - 1)
            if t.text == "," and depth == 0:
                if cur:
                    params.append(cur)
                cur = []
                continue
            cur.append(t)
        out = []
        for p in params:
            texts = [t.text for t in p]
            if "=" in texts:
                texts = texts[:texts.index("=")]
            ids = [j for j, t in enumerate(texts)
                   if re.match(r"[A-Za-z_]\w*$", t) and t not in KEYWORDS]
            if len(ids) >= 2 or (ids and texts[ids[-1] - 1:ids[-1]] in
                                 (["&"], ["*"], [">"], ["&&"])):
                j = ids[-1]
                # The last identifier is the parameter name only if it is not
                # part of a qualified type chain tail like `std::size_t`.
                if j > 0 and texts[j - 1] == "::":
                    continue
                out.append((texts[j], self._canon_type(texts[:j])))
        return out

    # -- statement processing -------------------------------------------

    def _process_statement(self, stmt: list[Tok]) -> None:
        texts = [t.text for t in stmt]
        # Access labels prefix the next declaration in token stream order.
        while len(texts) >= 2 and texts[0] in ("public", "private",
                                               "protected") and \
                texts[1] == ":":
            if self.scopes[-1].kind == "class":
                self.scopes[-1].access = texts[0]
            stmt = stmt[2:]
            texts = texts[2:]
        if not stmt:
            return
        if texts[0] == "template":
            stmt = self._strip_template(stmt)
            texts = [t.text for t in stmt]
            if not stmt:
                return
        if texts[0] == "using" and "=" in texts:
            eq = texts.index("=")
            if eq >= 2 and re.match(r"[A-Za-z_]\w*$", texts[eq - 1]):
                self.facts.aliases[texts[eq - 1]] = \
                    self._canon_type(texts[eq + 1:])
            return
        if texts[0] == "typedef":
            if len(texts) >= 3 and re.match(r"[A-Za-z_]\w*$", texts[-1]):
                self.facts.aliases[texts[-1]] = \
                    self._canon_type(texts[1:-1])
            return
        if texts[0] == "using":  # using-declaration / using namespace
            return
        scope = self.scopes[-1]
        fn = scope.fn
        decl = self._find_decl(stmt)
        if scope.kind == "class":
            self._process_class_member(stmt, texts, decl)
            return
        if fn is None:
            if decl is not None:
                kind, type_str, name, _ = decl
                if kind == "var":
                    self.facts.global_vars[name] = type_str
                elif kind == "callable":
                    self.facts.free_returns.setdefault(name, type_str)
            return
        # Function body statement.
        if texts[0] == "for":
            self._record_range_for(stmt, fn)
        if decl is not None and decl[0] in ("var", "callable"):
            kind, type_str, name, tail = decl
            # `Type name(args);` in a body is a construction, not a decl of
            # a callable — the class-scope ambiguity does not exist here.
            for local in [name] + _extra_declarators(tail):
                scope.locals[local] = type_str
            if LOCK_TYPE_RE.search(type_str):
                scope.locks.append(name)
            fn.constructions.append((stmt[0].line, type_str))
            if type_str == "auto" and tail:
                scope.locals[name] = "auto=" + " ".join(tail)
        self._scan_sites(stmt, fn)

    def _process_class_member(self, stmt, texts, decl) -> None:
        cls_scope = self.scopes[-1]
        cf = self.facts.classes.setdefault(
            cls_scope.name, ClassFacts(name=cls_scope.name, rel=self.rel))
        if decl is None:
            return
        kind, type_str, name, tail = decl
        if kind == "callable":
            cf.method_returns.setdefault(name, type_str)
            return
        for member in [name] + _extra_declarators(tail):
            cf.members[member] = type_str
        if "MC_GUARDED_BY" in texts or "MC_PT_GUARDED_BY" in texts:
            cf.guarded = True

    def _find_decl(self, stmt: list[Tok]):
        """Recognizes `TYPE NAME ...` declarations. Returns
        (kind, type, name, tail_texts) with kind 'var' or 'callable'
        (callable = NAME directly followed by '(' holding type-ish tokens,
        i.e. a function declaration at class/namespace scope)."""
        texts = [t.text for t in stmt]
        if not texts or texts[0] in KEYWORDS and \
                texts[0] not in TYPE_KEYWORDS and texts[0] not in SPECIFIERS:
            return None
        depth = 0
        prev_ok = False
        for j, t in enumerate(texts):
            if t in ("<",):
                depth += 1
                continue
            if t in (">",):
                depth = max(0, depth - 1)
                continue
            if depth > 0:
                continue
            if t in ("(", "["):
                return None
            is_ident = bool(re.match(r"[A-Za-z_]\w*$", t)) and \
                t not in KEYWORDS
            if is_ident and prev_ok and j > 0 and texts[j - 1] != "::" and \
                    not _is_macroish(t):
                follow = texts[j + 1] if j + 1 < len(texts) else ";"
                if follow in (";", "=", "{", "(", "[", ",") or \
                        _is_macroish(follow):
                    type_str = self._canon_type(texts[:j])
                    if not type_str:
                        return None
                    tail = texts[j + 1:]
                    if follow == "(" and self.scopes[-1].kind != "function" \
                            and self.scopes[-1].fn is None:
                        return ("callable", type_str, t, tail)
                    if follow == "=" and tail:
                        tail = tail[1:]
                    return ("var", type_str, t, tail)
                return None
            if t == ",":
                continue
            prev_ok = (is_ident and not _is_macroish(t)) or \
                t in (">", "&", "*", "&&") or t in TYPE_KEYWORDS
            if t not in SPECIFIERS and not _type_chain_ok(t):
                return None
        return None

    def _canon_type(self, texts: list[str]) -> str:
        parts = [t for t in texts
                 if t not in SPECIFIERS and t not in ("&", "*", "&&")]
        return "".join(parts)

    # -- expression sites ------------------------------------------------

    def _record_range_for(self, stmt: list[Tok], fn) -> None:
        if fn is None:
            return
        depth = 0
        colon = -1
        end = -1
        for j, t in enumerate(stmt):
            if t.text in ("(", "["):
                depth += 1
            elif t.text in (")", "]"):
                depth -= 1
                if depth == 0:
                    end = j
                    break
            elif t.text == ":" and depth == 1:
                colon = j
        if colon < 0 or end <= colon:
            return
        expr = stmt[colon + 1:end]
        ref = self._expr_ref(expr)
        if ref is not None:
            fn.range_fors.append((stmt[colon].line, ref))

    def _expr_ref(self, toks: list[Tok]) -> ExprRef | None:
        texts = [t.text for t in toks]
        while texts and texts[0] in ("*", "&", "("):
            texts = texts[1:]
        while texts and texts[-1] == ")" and \
                texts.count("(") < texts.count(")"):
            texts = texts[:-1]
        if not texts:
            return None
        j = 0
        base = texts[0]
        if base == "this":
            j = 1
            if j < len(texts) and texts[j] == "->":
                j += 1
                if j < len(texts):
                    base = texts[j]
                    j += 1
                else:
                    return None
            else:
                return None
        elif re.match(r"[A-Za-z_]\w*$", base) and base not in KEYWORDS:
            # Swallow a leading qualified chain: keep the full chain as base
            # so `std::mt19937(...)` and `ns::helper(...)` stay recognizable.
            j = 1
            while j + 1 < len(texts) and texts[j] == "::" and \
                    re.match(r"[A-Za-z_]\w*$", texts[j + 1]):
                base = base + "::" + texts[j + 1]
                j += 2
        else:
            return None
        base_type = self._lookup_local(base)
        suffix = []
        while j < len(texts):
            t = texts[j]
            if t in (".", "->"):
                if j + 1 < len(texts) and \
                        re.match(r"[A-Za-z_]\w*$", texts[j + 1]):
                    m = texts[j + 1]
                    if j + 2 < len(texts) and texts[j + 2] == "(":
                        if m in ("at", "front", "back"):
                            suffix.append(("elem",))
                        else:
                            suffix.append(("call", m))
                        j = self._skip_group(texts, j + 2)
                        continue
                    suffix.append(("member", m))
                    j += 2
                    continue
                break
            if t == "[":
                suffix.append(("elem",))
                j = self._skip_group(texts, j)
                continue
            if t == "(":
                suffix.append(("invoke",))
                j = self._skip_group(texts, j)
                continue
            break
        return ExprRef(base=base, base_type=base_type, suffix=tuple(suffix),
                       text=" ".join(texts))

    def _trailing_chain(self, toks: list[Tok]) -> list[Tok]:
        """Longest postfix-expression chain ending the token list: walks
        backwards over identifiers, '::', '.', '->', 'this', and balanced
        ()/[] groups, stopping at anything else."""
        k = len(toks) - 1
        start = len(toks)
        while k >= 0:
            t = toks[k].text
            if t in ("]", ")"):
                opener = "[" if t == "]" else "("
                depth = 0
                while k >= 0:
                    if toks[k].text == t:
                        depth += 1
                    elif toks[k].text == opener:
                        depth -= 1
                        if depth == 0:
                            break
                    k -= 1
                if k < 0:
                    break
                start = k
                k -= 1
                continue
            if t in (".", "->", "::"):
                k -= 1
                continue
            if t == "this" or (re.match(r"[A-Za-z_]\w*$", t) and
                               t not in KEYWORDS):
                start = k
                k -= 1
                if k >= 0 and toks[k].text not in (".", "->", "::"):
                    break
                continue
            break
        return toks[start:]

    def _skip_group(self, texts: list[str], j: int) -> int:
        opener = texts[j]
        closer = {"(": ")", "[": "]", "{": "}"}[opener]
        depth = 0
        while j < len(texts):
            if texts[j] == opener:
                depth += 1
            elif texts[j] == closer:
                depth -= 1
                if depth == 0:
                    return j + 1
            j += 1
        return j

    def _lookup_local(self, name: str) -> str | None:
        if "::" in name:
            return None
        for s in reversed(self.scopes):
            if name in s.locals:
                return s.locals[name]
        return None

    def _locks_held(self) -> bool:
        return any(s.locks for s in self.scopes)

    def _scan_sites(self, stmt: list[Tok], fn: FunctionFacts) -> None:
        texts = [t.text for t in stmt]
        # Compound adds: trim the statement back to the postfix chain that
        # feeds the operator, so `for (...) x += y;` sees `x`, not `for`.
        depth = 0
        for j, t in enumerate(texts):
            if t in ("(", "["):
                depth += 1
            elif t in (")", "]"):
                depth = max(0, depth - 1)
            elif depth == 0 and t in ("+=", "-="):
                lhs = self._trailing_chain(stmt[:j])
                ref = self._expr_ref(lhs)
                if ref is not None:
                    fn.compound_adds.append((stmt[j].line, ref))
        # Calls: IDENT '(' (and brace-temporaries of qualified chains).
        locked = self._locks_held()
        j = 0
        while j < len(texts) - 1:
            t = texts[j]
            if re.match(r"[A-Za-z_]\w*$", t) and t not in KEYWORDS and \
                    not _is_macroish(t) and texts[j + 1] in ("(", "{"):
                if texts[j + 1] == "{" and (j + 1 >= len(texts) or
                                            "::" not in texts[max(0, j - 2):
                                                             j]):
                    j += 1
                    continue
                # Qualified chain backwards.
                start = j
                chain = [t]
                k = j - 1
                while k >= 1 and texts[k] == "::" and \
                        re.match(r"[A-Za-z_]\w*$", texts[k - 1]):
                    chain.insert(0, texts[k - 1])
                    start = k - 1
                    k -= 2
                receiver = None
                if start >= 2 and texts[start - 1] in (".", "->"):
                    # Member call: if the receiver expression is too complex
                    # to resolve, keep a sentinel so it is NOT treated as an
                    # unqualified call (which would name-match everything).
                    receiver = self._receiver_ref(texts, start - 1) or \
                        ExprRef(base="", base_type=None, text="<unresolved>")
                qual = "::".join(chain) if len(chain) > 1 else ""
                site = CallSite(line=stmt[j].line, name=t, qual=qual,
                                receiver=receiver)
                fn.calls.append(site)
                if locked:
                    fn.locked_calls.append(site)
            j += 1

    def _receiver_ref(self, texts: list[str], dot: int) -> ExprRef | None:
        """Best-effort receiver before `.`/`->` at index dot: a simple
        identifier chain only; anything else is unresolved (None)."""
        k = dot - 1
        parts: list[str] = []
        while k >= 0:
            t = texts[k]
            if re.match(r"[A-Za-z_]\w*$", t) and t not in KEYWORDS:
                parts.insert(0, t)
                if k >= 2 and texts[k - 1] in (".", "->", "::"):
                    k -= 2
                    continue
                break
            return None
        if not parts:
            return None
        base = parts[0]
        suffix = tuple(("member", p) for p in parts[1:])
        return ExprRef(base=base, base_type=self._lookup_local(base),
                       suffix=suffix, text=".".join(parts))


def extract_builtin(rel: str, text: str) -> FileFacts:
    return BuiltinFrontend(rel, text).run()


# --------------------------------------------------------------------------
# Whole-program index + type resolution.
# --------------------------------------------------------------------------

def _split_template_args(inner: str) -> list[str]:
    args, depth, cur = [], 0, []
    for ch in inner:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        if ch == "," and depth == 0:
            args.append("".join(cur))
            cur = []
            continue
        cur.append(ch)
    if cur:
        args.append("".join(cur))
    return args


class Index:
    def __init__(self, files: dict[str, FileFacts]):
        self.files = files
        self.aliases: dict[str, str] = {}
        self.classes: dict[str, ClassFacts] = {}
        self.free_returns: dict[str, str] = {}
        self.functions: list[FunctionFacts] = []
        self.global_vars: dict[str, str] = {}
        for ff in files.values():
            self.aliases.update(ff.aliases)
            for name, cf in ff.classes.items():
                if name in self.classes:
                    merged = self.classes[name]
                    merged.members.update(cf.members)
                    merged.method_returns.update(cf.method_returns)
                    merged.guarded = merged.guarded or cf.guarded
                else:
                    self.classes[name] = cf
            self.free_returns.update(ff.free_returns)
            self.functions.extend(ff.functions)
            self.global_vars.update(ff.global_vars)
        self.by_name: dict[str, list[FunctionFacts]] = {}
        for fn in self.functions:
            self.by_name.setdefault(fn.name, []).append(fn)

    # -- type machinery --------------------------------------------------

    def canonical(self, type_str: str | None) -> str:
        if not type_str:
            return ""
        t = type_str
        for _ in range(8):
            simple = t.split("<")[0].split("::")[-1]
            if simple in self.aliases:
                expansion = self.aliases[simple]
                if expansion == t:
                    break
                t = expansion
                continue
            break
        return t

    def class_of(self, type_str: str | None) -> ClassFacts | None:
        if not type_str:
            return None
        simple = self.canonical(type_str).split("<")[0].split("::")[-1]
        return self.classes.get(simple)

    def element_type(self, type_str: str) -> str | None:
        t = self.canonical(type_str)
        m = re.match(r"(?:std::)?(?:vector|span|deque|valarray|array)<(.*)>$",
                     t)
        if m:
            return _split_template_args(m.group(1))[0]
        m = re.match(r"(?:std::)?(?:map|unordered_map)<(.*)>$", t)
        if m:
            args = _split_template_args(m.group(1))
            return args[1] if len(args) > 1 else None
        return None

    def is_double(self, type_str: str | None) -> bool:
        return self.canonical(type_str) in {"double", "float", "longdouble"}

    def is_unordered(self, type_str: str | None) -> bool:
        t = self.canonical(type_str or "")
        return bool(re.search(r"\bunordered_(map|set|multimap|multiset)<", t))

    def is_rng_engine(self, type_str: str | None) -> bool:
        t = self.canonical(type_str or "").split("<")[0].split("(")[0]
        if not t:
            return False
        if not t.startswith("std::"):
            t = "std::" + t.split("::")[-1]
        return t in RNG_ENGINE_TYPES

    def resolve(self, ref: ExprRef | None, fn: FunctionFacts) -> str | None:
        """Resolves an expression reference to a raw type string, walking
        aliases, the enclosing class's members, globals, free-function
        return types, and container element types."""
        if ref is None:
            return None
        t = ref.base_type
        suffix = list(ref.suffix)
        if t is None:
            if ref.base == "this" or (fn.cls and ref.base == fn.cls):
                t = fn.cls
            else:
                cf = self.classes.get(fn.cls) if fn.cls else None
                if cf and ref.base in cf.members:
                    t = cf.members[ref.base]
                elif ref.base in self.global_vars:
                    t = self.global_vars[ref.base]
                elif suffix and suffix[0] == ("invoke",):
                    name = ref.base.split("::")[-1]
                    t = self.free_returns.get(name)
                    if t is None and cf:
                        t = cf.method_returns.get(name)
                    suffix = suffix[1:]
                else:
                    return None
        if t is not None and t.startswith("auto="):
            sub = t[len("auto="):].split()
            inner = BuiltinFrontend("", "")  # expression-only reuse
            ref2 = inner._expr_ref([Tok(0, x) for x in sub])
            t = self.resolve(ref2, fn) if ref2 else None
        for op in suffix:
            if t is None:
                return None
            if op == ("elem",):
                t = self.element_type(t)
                continue
            if op == ("invoke",):
                continue
            kind, name = op if len(op) == 2 else (op[0], "")
            cf = self.class_of(t)
            if cf is None:
                return None
            if kind == "member":
                t = cf.members.get(name)
            elif kind == "call":
                t = cf.method_returns.get(name)
            else:
                return None
        return t


# --------------------------------------------------------------------------
# Build-graph scoping: which directories are linked into minicost_core.
# --------------------------------------------------------------------------

def core_link_closure(root: Path) -> list[str] | None:
    """Returns repo-relative directory prefixes of every library in
    minicost_core's link closure (parsed from src/*/CMakeLists.txt), or None
    when the build graph is absent (then all of src/ is in scope)."""
    libs: dict[str, tuple[str, set[str]]] = {}
    for cml in sorted(root.glob("src/*/CMakeLists.txt")):
        try:
            text = cml.read_text(encoding="utf-8", errors="replace")
        except OSError:
            continue
        m = re.search(r"add_library\(\s*(minicost_\w+)", text)
        if not m:
            continue
        name = m.group(1)
        deps: set[str] = set()
        dm = re.search(r"target_link_libraries\s*\(\s*" + name +
                       r"\b([^)]*)\)", text, re.S)
        if dm:
            for dep in re.findall(r"minicost_\w+", dm.group(1)):
                if dep not in (name, "minicost_warnings",
                               "minicost_strict_warnings"):
                    deps.add(dep)
        rel_dir = cml.parent.relative_to(root).as_posix()
        libs[name] = (rel_dir, deps)
    if "minicost_core" not in libs:
        return None
    closure: set[str] = set()
    stack = ["minicost_core"]
    while stack:
        lib = stack.pop()
        if lib in closure or lib not in libs:
            continue
        closure.add(lib)
        stack.extend(libs[lib][1])
    return sorted(libs[lib][0] for lib in closure)


# --------------------------------------------------------------------------
# Rules.
# --------------------------------------------------------------------------

def _resolve_call_targets(index: Index, fn: FunctionFacts,
                          site: CallSite) -> list[FunctionFacts]:
    if site.qual:
        tail = site.qual.split("::")[-2:]
        out = []
        for cand in index.by_name.get(site.name, []):
            if cand.qname.endswith("::".join(tail)) or \
                    cand.qname == site.name:
                out.append(cand)
        return out
    if site.receiver is not None:
        recv_type = index.resolve(site.receiver, fn)
        cf = index.class_of(recv_type)
        if cf is not None:
            return [cand for cand in index.by_name.get(site.name, [])
                    if cand.cls == cf.name]
        return []
    # Unqualified call: prefer same-class methods (implicit this), then free
    # functions; only fall back to every name match when neither exists.
    cands = index.by_name.get(site.name, [])
    if fn.cls:
        same = [c for c in cands if c.cls == fn.cls]
        if same:
            return same
    free = [c for c in cands if c.cls is None]
    return free or cands


def rule_billing_exact_sum(index: Index) -> list[Finding]:
    universe = [fn for fn in index.functions
                if BILLING_DIR_RE.search(fn.rel)]
    in_universe = set(id(fn) for fn in universe)
    seeds = [fn for fn in universe
             if (fn.cls and ("Simulator" in fn.cls or
                             fn.cls == "BillingReport")) or
             fn.name == "merge_shard"]
    # Call edges, including operator+= edges implied by compound assignment
    # on class-typed lvalues.
    edges: dict[int, list[FunctionFacts]] = {}
    for fn in universe:
        targets: list[FunctionFacts] = []
        for site in fn.calls:
            targets.extend(t for t in _resolve_call_targets(index, fn, site)
                           if id(t) in in_universe)
        for _, ref in fn.compound_adds:
            t = index.resolve(ref, fn)
            cf = index.class_of(t)
            if cf is not None:
                targets.extend(c for c in index.by_name.get("operator+=", [])
                               if c.cls == cf.name and id(c) in in_universe)
        edges[id(fn)] = targets
    reachable: dict[int, FunctionFacts] = {}
    stack = list(seeds)
    while stack:
        fn = stack.pop()
        if id(fn) in reachable:
            continue
        reachable[id(fn)] = fn
        stack.extend(edges.get(id(fn), []))
    findings = []
    for fn in reachable.values():
        for line, ref in fn.compound_adds:
            t = index.resolve(ref, fn)
            if index.is_double(t):
                findings.append(Finding(
                    fn.rel, line, "billing-exact-sum",
                    f"double '+=' on '{ref.text}' in {fn.qname}(), which is "
                    "reachable from Simulator/BillingReport/merge_shard "
                    "code; accumulate through stats::ExactSum or document "
                    "why the fold order is fixed"))
    return findings


def rule_rng_flow(index: Index) -> tuple[list[Finding], dict]:
    """Returns construction findings plus the taint map used after
    suppression filtering to flag callers of constructing functions."""
    findings = []
    constructing: dict[int, tuple[FunctionFacts, str]] = {}
    for fn in index.functions:
        if RNG_EXEMPT_RE.search(fn.rel):
            continue
        for line, type_str in fn.constructions:
            if index.is_rng_engine(type_str):
                findings.append(Finding(
                    fn.rel, line, "rng-flow",
                    f"constructs {index.canonical(type_str)} in "
                    f"{fn.qname}(); all randomness must flow through an "
                    "explicitly seeded util::Rng"))
                constructing[id(fn)] = (fn, index.canonical(type_str))
        for site in fn.calls:
            if site.qual and index.is_rng_engine(site.qual):
                findings.append(Finding(
                    fn.rel, site.line, "rng-flow",
                    f"constructs a temporary {index.canonical(site.qual)} "
                    f"in {fn.qname}(); all randomness must flow through an "
                    "explicitly seeded util::Rng"))
                constructing[id(fn)] = (fn, index.canonical(site.qual))
    return findings, constructing


def rule_rng_flow_callers(index: Index, tainted: dict) -> list[Finding]:
    """Call-graph propagation: direct and transitive callers of functions
    that construct engines (post-suppression) are flagged at the call site."""
    findings = []
    tainted_ids = dict(tainted)
    changed = True
    flagged_sites = set()
    while changed:
        changed = False
        for fn in index.functions:
            if RNG_EXEMPT_RE.search(fn.rel):
                continue
            for site in fn.calls:
                for target in _resolve_call_targets(index, fn, site):
                    if id(target) not in tainted_ids:
                        continue
                    key = (fn.rel, site.line, target.qname)
                    if key in flagged_sites:
                        continue
                    flagged_sites.add(key)
                    _, engine = tainted_ids[id(target)]
                    findings.append(Finding(
                        fn.rel, site.line, "rng-flow",
                        f"{fn.qname}() calls {target.qname}(), which "
                        f"constructs {engine}; route the randomness through "
                        "util::Rng instead"))
                    if id(fn) not in tainted_ids:
                        tainted_ids[id(fn)] = (fn, engine)
                        changed = True
    return findings


def rule_unordered_iteration(index: Index,
                             scope_dirs: list[str] | None) -> list[Finding]:
    findings = []
    for fn in index.functions:
        if scope_dirs is not None:
            if not any(fn.rel.startswith(d + "/") or fn.rel == d
                       for d in scope_dirs):
                continue
        elif not re.search(r"(^|/)src/", fn.rel):
            continue
        for line, ref in fn.range_fors:
            t = index.resolve(ref, fn)
            if index.is_unordered(t):
                findings.append(Finding(
                    fn.rel, line, "unordered-iteration",
                    f"range-for over '{ref.text}' whose type resolves to "
                    f"{index.canonical(t)} in {fn.qname}(); hash-iteration "
                    "order is unspecified in a TU linked into minicost_core"))
    return findings


def rule_lock_pool_callback(index: Index) -> list[Finding]:
    findings = []
    for fn in index.functions:
        cf = index.classes.get(fn.cls) if fn.cls else None
        if cf is None or not cf.guarded:
            continue
        for site in fn.locked_calls:
            recv_type = index.resolve(site.receiver, fn) \
                if site.receiver is not None else None
            recv_canon = index.canonical(recv_type) if recv_type else ""
            if site.name in POOL_CALLEES:
                if recv_type is None or "ThreadPool" in recv_canon:
                    findings.append(Finding(
                        fn.rel, site.line, "lock-pool-callback",
                        f"{fn.qname}() calls {site.name}() while holding a "
                        f"lock in MC_GUARDED_BY-annotated class {fn.cls}; "
                        "re-entering the help-while-waiting pool with a "
                        "mutex held can deadlock (DESIGN.md §8)"))
            elif site.name in FUTURE_BLOCKERS and "future" in recv_canon:
                findings.append(Finding(
                    fn.rel, site.line, "lock-pool-callback",
                    f"{fn.qname}() blocks on future::{site.name}() while "
                    f"holding a lock in MC_GUARDED_BY-annotated class "
                    f"{fn.cls}; the pool may steal work that needs the "
                    "same mutex (DESIGN.md §8)"))
    return findings


# --------------------------------------------------------------------------
# Optional clang.cindex frontend.
# --------------------------------------------------------------------------

def extract_clang(root: Path, rels: list[str],
                  compile_db: Path | None) -> dict[str, FileFacts] | None:
    """Parses each TU with libclang and lowers the cursors into the same
    FileFacts model the builtin frontend produces. Returns None when
    libclang is unavailable so the caller can fall back."""
    try:
        from clang import cindex  # type: ignore
        index = cindex.Index.create()
    except Exception as err:  # pragma: no cover - environment dependent
        print(f"lint_ast: clang frontend unavailable ({err}); "
              "falling back to builtin", file=sys.stderr)
        return None

    args_by_file: dict[str, list[str]] = {}
    if compile_db and compile_db.is_file():
        for entry in json.loads(compile_db.read_text()):
            path = str(Path(entry["directory"]) / entry["file"])
            raw = entry.get("arguments") or entry.get("command", "").split()
            args = [a for a in raw[1:] if not a.endswith(".cpp") and
                    a not in ("-c", "-o") and not a.endswith(".o")]
            args_by_file[str(Path(path).resolve())] = args

    ck = cindex.CursorKind
    files: dict[str, FileFacts] = {}

    def rel_of(cursor) -> str | None:
        loc = cursor.location
        if loc.file is None:
            return None
        try:
            return Path(loc.file.name).resolve().relative_to(root).as_posix()
        except ValueError:
            return None

    def facts_for(rel: str) -> FileFacts:
        return files.setdefault(rel, FileFacts(rel=rel))

    def canon_type(ctype) -> str:
        return ctype.get_canonical().spelling.replace(" ", "")

    def lower_function(cursor, rel: str) -> None:
        cls = None
        sem = cursor.semantic_parent
        if sem is not None and sem.kind in (ck.CLASS_DECL, ck.STRUCT_DECL):
            cls = sem.spelling
        fn = FunctionFacts(
            qname=f"{cls}::{cursor.spelling}" if cls else cursor.spelling,
            name=cursor.spelling, cls=cls, rel=rel,
            line=cursor.location.line)
        facts_for(rel).functions.append(fn)
        lock_extents: list[tuple[int, int]] = []

        def locked(line: int) -> bool:
            return any(a <= line <= b for a, b in lock_extents)

        def walk(node):
            for child in node.get_children():
                kind = child.kind
                line = child.location.line
                if kind == ck.VAR_DECL:
                    t = canon_type(child.type)
                    fn.constructions.append((line, t))
                    if LOCK_TYPE_RE.search(t):
                        ext = child.semantic_parent.extent \
                            if child.semantic_parent else node.extent
                        lock_extents.append((line, ext.end.line))
                elif kind == ck.COMPOUND_ASSIGNMENT_OPERATOR:
                    kids = list(child.get_children())
                    if kids:
                        t = canon_type(kids[0].type)
                        fn.compound_adds.append(
                            (line, ExprRef(base="", base_type=t,
                                           text=_tokens_text(child))))
                elif kind == ck.CXX_FOR_RANGE_STMT:
                    kids = list(child.get_children())
                    if len(kids) >= 2:
                        t = canon_type(kids[1].type)
                        fn.range_fors.append(
                            (line, ExprRef(base="", base_type=t,
                                           text=_tokens_text(kids[1]))))
                elif kind == ck.CALL_EXPR:
                    ref = child.referenced
                    name = child.spelling or ""
                    qual = ""
                    recv_type = None
                    if ref is not None:
                        sp = ref.semantic_parent
                        if sp is not None and sp.kind in (ck.CLASS_DECL,
                                                          ck.STRUCT_DECL):
                            qual = f"{sp.spelling}::{ref.spelling}"
                            recv_type = sp.spelling
                    site = CallSite(line=line, name=name, qual=qual,
                                    receiver=ExprRef(
                                        base="", base_type=recv_type)
                                    if recv_type else None)
                    fn.calls.append(site)
                    if locked(line):
                        fn.locked_calls.append(site)
                walk(child)

        def _tokens_text(node) -> str:
            try:
                return " ".join(t.spelling for t in node.get_tokens())[:60]
            except Exception:
                return ""

        walk(cursor)

    def visit(cursor):
        for child in cursor.get_children():
            rel = rel_of(child)
            if rel is None:
                continue
            kind = child.kind
            if kind in (ck.NAMESPACE, ck.UNEXPOSED_DECL):
                visit(child)
            elif kind in (ck.CLASS_DECL, ck.STRUCT_DECL) and \
                    child.is_definition():
                cf = facts_for(rel).classes.setdefault(
                    child.spelling,
                    ClassFacts(name=child.spelling, rel=rel))
                for member in child.get_children():
                    if member.kind == ck.FIELD_DECL:
                        cf.members[member.spelling] = canon_type(member.type)
                        if any("guarded_by" in (a.spelling or "")
                               for a in member.get_children()):
                            cf.guarded = True
                    elif member.kind == ck.CXX_METHOD and \
                            member.is_definition():
                        cf.method_returns.setdefault(
                            member.spelling,
                            canon_type(member.result_type))
                        lower_function(member, rel)
                visit(child)
            elif kind in (ck.FUNCTION_DECL, ck.CXX_METHOD, ck.CONSTRUCTOR,
                          ck.DESTRUCTOR) and child.is_definition():
                lower_function(child, rel)
            elif kind == ck.TYPE_ALIAS_DECL or kind == ck.TYPEDEF_DECL:
                try:
                    facts_for(rel).aliases[child.spelling] = \
                        canon_type(child.underlying_typedef_type)
                except Exception:
                    pass

    for rel in rels:
        if not rel.endswith(".cpp"):
            continue
        path = root / rel
        args = args_by_file.get(str(path.resolve()),
                                ["-std=c++20", f"-I{root / 'src'}"])
        try:
            tu = index.parse(str(path), args=args)
        except Exception as err:  # pragma: no cover
            print(f"lint_ast: clang parse failed for {rel} ({err}); "
                  "falling back to builtin", file=sys.stderr)
            return None
        visit(tu.cursor)
    return files


# --------------------------------------------------------------------------
# Suppressions (shared semantics with lint_contract.py, distinct tag).
# --------------------------------------------------------------------------

def collect_suppressions(raw_lines: list[str], rel: str):
    """Returns ({line: {rule}}, [(line, rule)], [Finding-errors]). A
    suppression covers its own line and the one below it."""
    allowed: dict[int, set[str]] = {}
    declared: list[tuple[int, str]] = []
    errors: list[Finding] = []
    for idx, line in enumerate(raw_lines, start=1):
        m = SUPPRESS_RE.search(line)
        if not m:
            if "lint-ast" in line and "allow" in line:
                errors.append(Finding(rel, idx, "bad-suppression",
                                      "malformed lint-ast suppression"))
            continue
        if not m.group("reason"):
            errors.append(Finding(rel, idx, "bad-suppression",
                                  "suppression must give a reason: "
                                  "// lint-ast: allow(rule) -- why"))
            continue
        rule = m.group("rule")
        if rule not in RULE_IDS:
            errors.append(Finding(rel, idx, "bad-suppression",
                                  f"unknown rule id '{rule}' in lint-ast "
                                  "suppression"))
            continue
        declared.append((idx, rule))
        allowed.setdefault(idx, set()).add(rule)
        allowed.setdefault(idx + 1, set()).add(rule)
    return allowed, declared, errors


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------

SOURCE_DIRS = ("src", "tools", "bench")
SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".cxx"}


def discover_files(root: Path, compile_db: Path | None) -> list[str]:
    rels: set[str] = set()
    if compile_db is not None and compile_db.is_file():
        try:
            entries = json.loads(compile_db.read_text())
        except (OSError, json.JSONDecodeError):
            entries = []
        for entry in entries:
            path = Path(entry.get("directory", ".")) / entry.get("file", "")
            try:
                rel = path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                continue
            if rel.split("/")[0] in SOURCE_DIRS:
                rels.add(rel)
    if not rels:
        for top in SOURCE_DIRS:
            base = root / top
            if base.is_dir():
                rels.update(p.relative_to(root).as_posix()
                            for p in base.rglob("*.cpp"))
    # Headers are always indexed: aliases and member types live there.
    for top in SOURCE_DIRS:
        base = root / top
        if base.is_dir():
            for suffix in (".hpp", ".h"):
                rels.update(p.relative_to(root).as_posix()
                            for p in base.rglob(f"*{suffix}"))
    return sorted(rels)


def run(root: Path, paths: list[Path] | None = None,
        compile_db: Path | None = None,
        frontend: str = "builtin") -> list[Finding]:
    root = root.resolve()
    if paths:
        rels = []
        for p in paths:
            p = (root / p) if not p.is_absolute() else p
            if p.suffix in SOURCE_SUFFIXES and p.is_file():
                try:
                    rels.append(p.resolve().relative_to(root).as_posix())
                except ValueError:
                    continue
        rels = sorted(set(rels))
    else:
        rels = discover_files(root, compile_db)

    raw_by_rel: dict[str, list[str]] = {}
    for rel in rels:
        try:
            raw_by_rel[rel] = (root / rel).read_text(
                encoding="utf-8", errors="replace").splitlines()
        except OSError:
            raw_by_rel[rel] = []

    files: dict[str, FileFacts] | None = None
    if frontend in ("clang", "auto"):
        files = extract_clang(root, rels, compile_db)
        if files is None and frontend == "clang":
            frontend = "builtin"
    if files is None:
        files = {rel: extract_builtin(rel, "\n".join(raw_by_rel[rel]))
                 for rel in rels}
    index = Index(files)
    scope_dirs = core_link_closure(root)

    allowed_by_rel = {}
    declared_by_rel = {}
    findings: list[Finding] = []
    for rel in rels:
        allowed, declared, errors = collect_suppressions(raw_by_rel[rel], rel)
        allowed_by_rel[rel] = allowed
        declared_by_rel[rel] = declared
        findings.extend(errors)

    used: set[tuple[str, int, str]] = set()

    def apply_suppressions(raw: list[Finding]) -> list[Finding]:
        out = []
        for f in raw:
            allowed = allowed_by_rel.get(str(f.path), {})
            if f.rule in allowed.get(f.line, set()):
                for decl_line in (f.line, f.line - 1):
                    for idx, rule in declared_by_rel.get(str(f.path), []):
                        if idx == decl_line and rule == f.rule:
                            used.add((str(f.path), idx, rule))
                continue
            out.append(f)
        return out

    findings.extend(apply_suppressions(rule_billing_exact_sum(index)))
    rng_raw, constructing = rule_rng_flow(index)
    rng_kept = apply_suppressions(rng_raw)
    findings.extend(rng_kept)
    # Only unsuppressed constructions taint their callers: an allow() with a
    # written reason vouches for the whole flow below it.
    kept_keys = {(f.path, f.line) for f in rng_kept}
    surviving = {fid: v for fid, v in constructing.items()
                 if any((v[0].rel, line) in kept_keys
                        for line, t in v[0].constructions
                        if index.is_rng_engine(t)) or
                 any((v[0].rel, s.line) in kept_keys
                     for s in v[0].calls if s.qual and
                     index.is_rng_engine(s.qual))}
    findings.extend(apply_suppressions(
        rule_rng_flow_callers(index, surviving)))
    findings.extend(apply_suppressions(
        rule_unordered_iteration(index, scope_dirs)))
    findings.extend(apply_suppressions(rule_lock_pool_callback(index)))

    for rel in rels:
        for idx, rule in declared_by_rel[rel]:
            if (rel, idx, rule) not in used:
                findings.append(Finding(
                    rel, idx, "stale-suppression",
                    f"allow({rule}) no longer suppresses anything here; "
                    "delete the comment (or fix the rule id)"))
    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path.cwd(),
                        help="repository root (default: cwd)")
    parser.add_argument("--compile-commands", type=Path, default=None,
                        help="compile_commands.json (default: "
                             "<root>/build/compile_commands.json if present)")
    parser.add_argument("--frontend", choices=("builtin", "clang", "auto"),
                        default="builtin",
                        help="C++ frontend (default: builtin)")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="specific files to lint (default: the "
                             "compile_commands TU set + headers)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not root.is_dir():
        print(f"lint_ast: no such root: {root}", file=sys.stderr)
        return 2
    compile_db = args.compile_commands
    if compile_db is None:
        candidate = root / "build" / "compile_commands.json"
        compile_db = candidate if candidate.is_file() else None
    findings = run(root, args.paths or None, compile_db, args.frontend)
    for finding in findings:
        print(finding)
    if findings:
        print(f"lint_ast: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
