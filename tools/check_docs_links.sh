#!/bin/sh
# Docs lint: fail on broken relative links in README.md and docs/*.md, and
# on fenced C++ snippets that drifted away from the code.
#
# Link check: every markdown inline link `[text](target)` outside fenced
# code blocks whose target is not an absolute URL or a pure in-page anchor;
# the target (minus any #anchor) must exist relative to the file containing
# the link.
#
# Snippet drift check: every CamelCase identifier (two humps or more, e.g.
# RequestStore, FilterSs2pl) inside a ```cpp fenced block must appear
# somewhere under src/, examples/, or tests/ — a cheap grep-level guard
# that catches docs quoting renamed or deleted API. Single-hump names
# (Protocol, Status) are deliberately skipped: too many generic words.
#
# Metric table check, both directions: every string literal passed to
# GetCounter / GetGauge / GetHistogram under src/ (the call may span
# lines) must name a row of a metric table in docs/OBSERVABILITY.md — a
# table whose header starts `| Series |` — and every name in the first
# cell of such a row must be registered under src/.
#
# Run from anywhere:
#   tools/check_docs_links.sh [repo-root]

set -u
root="${1:-$(dirname "$0")/..}"
cd "$root" || exit 2

status=0
checked=0
idents_checked=0
for doc in README.md docs/*.md; do
  [ -f "$doc" ] || continue
  dir=$(dirname "$doc")
  # Extract link targets, one per line, skipping ``` fenced code blocks
  # (where [](...) is usually a C++ lambda, not a link).
  targets=$(awk '
    /^```/ { fence = !fence; next }
    !fence {
      line = $0
      while (match(line, /\]\([^)]*\)/)) {
        print substr(line, RSTART + 2, RLENGTH - 3)
        line = substr(line, RSTART + RLENGTH)
      }
    }' "$doc")
  # Real markdown targets never contain spaces (ours never use <...> or
  # titles), so line-wise iteration is safe.
  old_ifs=$IFS
  IFS='
'
  for target in $targets; do
    IFS=$old_ifs
    case "$target" in
      http://*|https://*|mailto:*|\#*|*" "*) continue ;;
    esac
    path="${target%%#*}"
    [ -n "$path" ] || continue
    if [ ! -e "$dir/$path" ]; then
      echo "BROKEN LINK in $doc: $target" >&2
      status=1
    fi
    checked=$((checked + 1))
  done
  IFS=$old_ifs
done

for doc in README.md docs/*.md; do
  [ -f "$doc" ] || continue
  # Identifiers from ```cpp blocks only (```sql / ```sh / untagged
  # diagrams are not C++ and would false-positive).
  idents=$(awk '
    /^```/ {
      in_cpp = ($0 ~ /^```[ \t]*(cpp|c\+\+)[ \t]*$/) ? !in_cpp && 1 : 0
      next
    }
    in_cpp { print }' "$doc" |
    grep -oE '[A-Z][a-z0-9]+([A-Z][A-Za-z0-9]*)+' | sort -u)
  old_ifs=$IFS
  IFS='
'
  for ident in $idents; do
    IFS=$old_ifs
    if ! grep -rqF "$ident" src examples tests; then
      echo "STALE SNIPPET in $doc: identifier '$ident' not found in src/, examples/, or tests/" >&2
      status=1
    fi
    idents_checked=$((idents_checked + 1))
  done
  IFS=$old_ifs
done

# Registered names: each file is scanned as one line, so a literal on the
# line after its GetCounter( still counts.
registered=$(find src -name '*.cc' -o -name '*.h' | sort | xargs awk '
  function scan(text) {
    while (match(text, /Get(Counter|Gauge|Histogram)\([ \t]*"[^"]*"/)) {
      call = substr(text, RSTART, RLENGTH)
      sub(/^[^"]*"/, "", call)
      sub(/"$/, "", call)
      print call
      text = substr(text, RSTART + RLENGTH)
    }
  }
  FNR == 1 && NR > 1 { scan(text); text = "" }
  { text = text " " $0 }
  END { scan(text) }' | sort -u)
documented=$(awk '
  /^\| *Series *\|/ { table = 1; next }
  !/^\|/ { table = 0 }
  table {
    split($0, cells, "|")
    cell = cells[2]
    while (match(cell, /`[a-z_][a-z0-9_]*`/)) {
      print substr(cell, RSTART + 1, RLENGTH - 2)
      cell = substr(cell, RSTART + RLENGTH)
    }
  }' docs/OBSERVABILITY.md | sort -u)
metrics_checked=0
for name in $registered; do
  if ! printf '%s\n' "$documented" | grep -qxF "$name"; then
    echo "UNDOCUMENTED METRIC: '$name' is registered under src/ but has no row in docs/OBSERVABILITY.md" >&2
    status=1
  fi
  metrics_checked=$((metrics_checked + 1))
done
for name in $documented; do
  if ! printf '%s\n' "$registered" | grep -qxF "$name"; then
    echo "STALE METRIC ROW in docs/OBSERVABILITY.md: '$name' is not registered under src/" >&2
    status=1
  fi
done

if [ "$metrics_checked" -eq 0 ]; then
  echo "docs lint: no metric registrations found — check the extraction pattern" >&2
  exit 2
fi
if [ "$checked" -eq 0 ]; then
  echo "docs lint: no links found — check the extraction pattern" >&2
  exit 2
fi
echo "docs lint: $checked relative links checked, $idents_checked snippet identifiers checked, $metrics_checked metric names checked"
exit $status
