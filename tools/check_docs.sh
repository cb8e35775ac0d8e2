#!/usr/bin/env bash
# Documentation consistency checks, run by the docs leg of CI and usable
# locally from the repo root:
#
#   tools/check_docs.sh
#
# Eight gates, all stdlib-only (bash + python3, no packages):
#
#  1. Link check — every relative markdown link in README.md and docs/*.md
#     must resolve to an existing file or directory. External links
#     (http/https/mailto) and pure in-page anchors are skipped; a
#     "path#anchor" link is checked for the file part only.
#
#  2. Env-var drift guard — every EBCT_[A-Z_]* name that appears anywhere
#     in src/ or bench/ must be documented in docs/CONFIG.md. A new env
#     var without a CONFIG.md row fails CI until it is written up.
#
#  3. Stale env-var guard — the reverse direction: every EBCT_[A-Z_]* name
#     in docs/CONFIG.md or in README's env table must still appear in code,
#     CI or tooling (src/, bench/, benchmark/, tests/, examples/, tools/,
#     CMakeLists.txt, .github/). A row left behind by a deleted option
#     fails CI until it is removed.
#
#  4. Config-field guard — both directions for the core::FrameworkConfig
#     struct: every data member in src/core/config.hpp needs a row in
#     docs/CONFIG.md's "FrameworkConfig fields" table, and every row there
#     must name a member that still exists.
#
#  5. Bench-report guard — both directions for the BENCH_<name>.json
#     reports: every `bench::JsonReporter <var>("<name>")` in bench/*.cpp
#     needs a "## `BENCH_<name>.json`" section in docs/BENCH_SCHEMA.md, and
#     every such section must name a report some bench still writes.
#
#  6. Metrics-family guard — both directions for TrainingSession::metrics():
#     the families it emits (the text before the first "." of each metric
#     name literal in its body: iterations, phase, pager, ...) must equal the
#     families named in the first column of docs/OBSERVABILITY.md's
#     metrics table. A deleted metric cannot leave its row behind.
#
#  7. CMake-option guard — both directions for the build options: every
#     `option(EBCT_...)` or `set(EBCT_... CACHE ...)` in CMakeLists.txt
#     needs a row in docs/CONFIG.md's "CMake options" table, and every row
#     there must name an option that still exists.
#
#  8. Codec-param guard — both directions for every codec whose factory
#     parses its spec through CodecParams: each key the factory reads with
#     `get_*("<key>", ...)` must appear as `<key>=` in the params_help
#     string it registers and in the first cell of README's codec-table row
#     for that codec, and each key listed in either place must still be
#     read. The policy codec parses routing rules, not keys, and is not
#     covered.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

echo "== markdown link check =="
python3 - <<'EOF' || fail=1
import glob, os, re, sys

# [text](target) — excluding images is unnecessary: image targets must
# exist too. Reference-style links are not used in this repo.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
ok = True
files = ["README.md"] + sorted(glob.glob("docs/*.md"))
for md in files:
    base = os.path.dirname(md)
    with open(md, encoding="utf-8") as f:
        text = f.read()
    for target in LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        resolved = os.path.normpath(os.path.join(base, path))
        if not os.path.exists(resolved):
            print(f"BROKEN  {md}: ({target}) -> {resolved}")
            ok = False
print(f"checked {len(files)} files")
sys.exit(0 if ok else 1)
EOF

echo "== EBCT_* env-var drift guard =="
# Any EBCT_ name in code (string literal or comment) counts: a variable
# mentioned in a doc comment but missing from CONFIG.md is still drift.
vars=$(grep -rhoE "EBCT_[A-Z_]+" src bench | sort -u)
for v in $vars; do
  # \b so EBCT_TRACE is not satisfied by EBCT_TRACE_RING_EVENTS alone.
  if ! grep -qE "${v}\b" docs/CONFIG.md; then
    echo "UNDOCUMENTED  $v (found in src/ or bench/, missing from docs/CONFIG.md)"
    fail=1
  fi
done
echo "checked $(echo "$vars" | wc -l) env vars"

echo "== stale EBCT_* doc-row guard =="
# Family prefixes such as EBCT_SERVE_* end in "_" and name no variable.
# This script is excluded from the search: its own comments name
# variables only as examples.
documented=$( {
  grep -hoE "EBCT_[A-Z_]+" docs/CONFIG.md
  grep -oE '^\| `EBCT_[A-Z_]+' README.md | grep -oE "EBCT_[A-Z_]+"
} | grep -v '_$' | sort -u)
for v in $documented; do
  if ! grep -rqE --exclude=check_docs.sh "${v}\b" \
      src bench benchmark tests examples tools CMakeLists.txt .github; then
    echo "STALE  $v (documented, but no code, CI or tool reads it)"
    fail=1
  fi
done
echo "checked $(echo "$documented" | wc -l) documented env vars"

echo "== FrameworkConfig field guard =="
python3 - <<'EOF' || fail=1
import re, sys

src = open("src/core/config.hpp", encoding="utf-8").read()
body = re.search(r"struct FrameworkConfig \{(.*?)\n\};", src, re.S).group(1)
code = "\n".join(line.split("//", 1)[0] for line in body.splitlines())
# A data member is "<type> <name> [= init];" at statement level.
fields = set(re.findall(r"(\w+)\s*(?:=[^;]*)?;", code))

doc = open("docs/CONFIG.md", encoding="utf-8").read()
table = re.search(r"## FrameworkConfig fields\n(.*?)\n## ", doc, re.S).group(1)
rows = set(re.findall(r"^\| `(\w+)` \|", table, re.M))

ok = True
for f in sorted(fields - rows):
    print(f"UNDOCUMENTED  FrameworkConfig::{f} (no row in docs/CONFIG.md)")
    ok = False
for f in sorted(rows - fields):
    print(f"STALE  FrameworkConfig::{f} (documented, but not a field in config.hpp)")
    ok = False
print(f"checked {len(fields)} fields against {len(rows)} rows")
sys.exit(0 if ok else 1)
EOF

echo "== BENCH_*.json report guard =="
python3 - <<'EOF' || fail=1
import glob, re, sys

reports = set()
for path in sorted(glob.glob("bench/*.cpp")):
    src = open(path, encoding="utf-8").read()
    reports |= set(re.findall(r'JsonReporter\s+\w+\(\s*"([^"]+)"\s*\)', src))

doc = open("docs/BENCH_SCHEMA.md", encoding="utf-8").read()
sections = set(re.findall(r"^## `BENCH_([\w.-]+)\.json`", doc, re.M))

ok = True
for r in sorted(reports - sections):
    print(f"UNDOCUMENTED  BENCH_{r}.json (written by bench/, no section in docs/BENCH_SCHEMA.md)")
    ok = False
for r in sorted(sections - reports):
    print(f"STALE  BENCH_{r}.json (documented, but no bench writes it)")
    ok = False
print(f"checked {len(reports)} reports against {len(sections)} sections")
sys.exit(0 if ok else 1)
EOF

echo "== metrics-family guard =="
python3 - <<'EOF' || fail=1
import re, sys

src = open("src/core/session.cpp", encoding="utf-8").read()
body = re.search(r"TrainingSession::metrics\(\) const \{\n(.*?)\n\}\n", src, re.S).group(1)
# A name literal has a "." in it ("pager.evictions", "phase.") or is the
# first argument of emplace_back ("iterations"); other literals, such as a
# table of suffixes, are not metric names.
names = [lit for lit in re.findall(r'"([^"\\]*)"', body) if "." in lit]
names += re.findall(r'emplace_back\(\s*"([^"\\]*)"', body)
emitted = {name.split(".", 1)[0] for name in names}
emitted.discard("")

doc = open("docs/OBSERVABILITY.md", encoding="utf-8").read()
section = re.search(r"## Metrics: one consolidated snapshot\n(.*?)(?:\n## |\Z)", doc, re.S).group(1)
documented = set()
for cell in re.findall(r"^\| (`[^|]*)\|", section, re.M):
    documented |= {name.split(".", 1)[0] for name in re.findall(r"`([^`]+)`", cell)}

ok = True
for f in sorted(emitted - documented):
    print(f"UNDOCUMENTED  metrics family '{f}' (emitted by metrics(), no row in docs/OBSERVABILITY.md)")
    ok = False
for f in sorted(documented - emitted):
    print(f"STALE  metrics family '{f}' (documented, but metrics() no longer emits it)")
    ok = False
print(f"checked {len(emitted)} emitted families against {len(documented)} documented")
sys.exit(0 if ok else 1)
EOF

echo "== CMake option guard =="
python3 - <<'EOF' || fail=1
import re, sys

cmake = open("CMakeLists.txt", encoding="utf-8").read()
options = set(re.findall(r"^\s*option\(\s*(EBCT_\w+)", cmake, re.M))
options |= set(re.findall(r"^\s*set\(\s*(EBCT_\w+)\s[^)]*?\bCACHE\b", cmake, re.M))

doc = open("docs/CONFIG.md", encoding="utf-8").read()
table = re.search(r"## CMake options\n(.*?)(?:\n## |\Z)", doc, re.S).group(1)
rows = set(re.findall(r"^\| `(EBCT_\w+)` \|", table, re.M))

ok = True
for o in sorted(options - rows):
    print(f"UNDOCUMENTED  CMake option {o} (no row in docs/CONFIG.md)")
    ok = False
for o in sorted(rows - options):
    print(f"STALE  CMake option {o} (documented, but not in CMakeLists.txt)")
    ok = False
print(f"checked {len(options)} options against {len(rows)} rows")
sys.exit(0 if ok else 1)
EOF

echo "== codec-param guard =="
python3 - <<'EOF' || fail=1
import glob, re, sys

STR = r'(?:"[^"]*"\s*)+'
INFO = re.compile(r"\{\s*(" + STR + r"),\s*(" + STR + r"),\s*(" + STR + r"),")

def literal(group):
    return "".join(re.findall(r'"([^"]*)"', group))

def keys(text):
    return set(re.findall(r"(\w+)=", text))

def call_args(src, start):
    """The text of the call whose '(' is at src[start], up to its ')'."""
    depth, i = 0, start
    while True:
        c = src[i]
        if c == '"':
            i = src.index('"', i + 1)
        elif c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return src[start:i]
        i += 1

readme = open("README.md", encoding="utf-8").read()
rows = {}
for cell in re.findall(r"^\| `([^`]+)` \|", readme, re.M):
    rows.setdefault(re.match(r"[\w-]*", cell).group(0), cell)

ok = True
checked = 0
for path in sorted(glob.glob("src/**/*.cpp", recursive=True)):
    src = open(path, encoding="utf-8").read()
    for m in re.finditer(r"\.register_codec(?=\()", src):
        chunk = call_args(src, m.end())
        if "CodecParams" not in chunk:
            continue
        info = INFO.search(chunk)
        name, help_keys = literal(info.group(1)), keys(literal(info.group(3)))
        read = set(re.findall(r'\bget_\w+\(\s*"(\w+)"', chunk))
        checked += 1
        if name not in rows:
            print(f"UNDOCUMENTED  codec '{name}' ({path}) has no row in README's codec table")
            ok = False
        for where, listed in (("params_help", help_keys),
                              ("README's codec table", keys(rows.get(name, "")))):
            for k in sorted(read - listed):
                print(f"UNDOCUMENTED  {name}: key '{k}' is read in {path}, missing from {where}")
                ok = False
            for k in sorted(listed - read):
                print(f"STALE  {name}: key '{k}' is listed in {where}, but {path} no longer reads it")
                ok = False
print(f"checked {checked} codecs")
sys.exit(0 if ok else 1)
EOF

if [ "$fail" -ne 0 ]; then
  echo "docs check FAILED"
  exit 1
fi
echo "docs check OK"
