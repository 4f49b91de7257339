#!/usr/bin/env bash
# Print the size of src/ at one or more git revisions: raw lines, and
# lines that are neither blank nor comment-only (a line counts unless it
# is empty, whitespace only, or starts with `//` after its indentation).
# The second figure is the one CHANGES.md and ROADMAP.md quote.
#
# Reads each revision through `git archive`, so the work tree and the
# index are never touched.
#
# Usage: scripts/src_lines.sh [rev...]   (default: HEAD)
set -eu

[ $# -eq 0 ] && set -- HEAD
for rev in "$@"; do
  sha=$(git rev-parse --short "$rev^{commit}")
  raw=$(git archive "$sha" src | tar -xO | wc -l)
  code=$(git archive "$sha" src | tar -xO |
         grep -cvE '^[[:space:]]*(//.*)?$' || true)
  printf '%-12s %s  raw %6d  non-blank non-comment %6d\n' \
    "$rev" "$sha" "$raw" "$code"
done
