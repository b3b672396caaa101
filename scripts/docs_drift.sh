#!/usr/bin/env bash
# Docs-drift check: fail when MANUAL.md and the obda CLI disagree about
# which flags exist, or when the docs cite a lib/ source file that is gone.
#
# For every subcommand listed by `obda --help`, the flag inventory of
# `obda CMD --help=plain` (OPTIONS section; the cmdliner COMMON OPTIONS
# --help/--version are excluded) is compared against the flags mentioned
# in MANUAL.md's "### `obda CMD`" section, plus the two shared sections
# ("Resource budgets and telemetry" and "Parallel evaluation") that
# document flags common to several subcommands:
#
#   - UNDOCUMENTED: the command accepts a flag none of whose aliases is
#     mentioned in the relevant MANUAL.md sections;
#   - PHANTOM: the command's MANUAL.md section mentions a flag the
#     command does not accept;
#   - MISSING SECTION: a subcommand exists with no "### `obda CMD`"
#     heading at all;
#   - MISSING SOURCE: DESIGN.md, README.md, EXPERIMENTS.md or MANUAL.md
#     names a lib/<dir>/<file>.ml or .mli that does not exist.
#
# Usage: scripts/docs_drift.sh  (from the repo root)
#   OBDA=/path/to/obda.exe MANUAL=path/to/MANUAL.md to override.
set -u

OBDA=${OBDA:-_build/default/bin/obda.exe}
MANUAL=${MANUAL:-MANUAL.md}

if [ ! -x "$OBDA" ]; then
  echo "docs-drift: obda binary not found at $OBDA (set OBDA=...)" >&2
  exit 2
fi
if [ ! -f "$MANUAL" ]; then
  echo "docs-drift: manual not found at $MANUAL (set MANUAL=...)" >&2
  exit 2
fi

fail=0

# stdin -> one flag token per line (--long or -s), deduplicated.
flags_in() {
  awk '{
    n = split($0, t, /[^A-Za-z0-9-]+/)
    for (i = 1; i <= n; i++)
      if (t[i] ~ /^--[A-Za-z][A-Za-z0-9-]*$/ || t[i] ~ /^-[A-Za-z]$/)
        print t[i]
  }' | sort -u
}

# $1 = cmd -> the body of MANUAL.md's "### `obda CMD`" section.
manual_section() {
  awk -v head="### \`obda $1\`" '
    $0 == head    { insec = 1; next }
    insec && /^##/ { insec = 0 }
    insec          { print }' "$MANUAL"
}

# The shared-flag sections of MANUAL.md (budget/telemetry + parallel eval).
shared_sections() {
  awk '
    /^## Resource budgets and telemetry/ { insec = 1 }
    /^## Parallel evaluation/            { insec = 1 }
    /^## / && !/budgets and telemetry|Parallel evaluation/ { insec = 0 }
    insec { print }' "$MANUAL"
}

# $1 = cmd -> one line per accepted option, all its aliases space-separated.
help_options() {
  "$OBDA" "$1" --help=plain 2>/dev/null | awk '
    /^OPTIONS$/ { inopt = 1; next }
    /^[A-Z]/    { if (!/^OPTIONS$/) inopt = 0 }
    inopt && /^       -/ {
      n = split($0, t, /[^A-Za-z0-9-]+/); line = ""
      for (i = 1; i <= n; i++)
        if (t[i] ~ /^--[A-Za-z][A-Za-z0-9-]*$/ || t[i] ~ /^-[A-Za-z]$/)
          line = line " " t[i]
      if (line != "") print substr(line, 2)
    }'
}

# Subcommand inventory straight from the CLI, so a new subcommand without
# a manual section is itself a drift failure.
CMDS=$("$OBDA" --help=plain 2>/dev/null | awk '
  /^COMMANDS$/ { incmd = 1; next }
  /^[A-Z]/     { if (!/^COMMANDS$/) incmd = 0 }
  incmd && /^       [a-z]/ { print $1 }' | sort -u)

if [ -z "$CMDS" ]; then
  echo "docs-drift: could not extract subcommand list from '$OBDA --help'" >&2
  exit 2
fi

SHARED=$(shared_sections | flags_in)

for cmd in $CMDS; do
  if ! grep -q "^### \`obda $cmd\`\$" "$MANUAL"; then
    echo "docs-drift: MISSING SECTION: no '### \`obda $cmd\`' heading in $MANUAL" >&2
    fail=1
    continue
  fi

  sec_flags=$(manual_section "$cmd" | flags_in)
  doc_flags=$(printf '%s\n%s\n' "$sec_flags" "$SHARED" | sort -u)

  # Undocumented: every accepted option needs at least one alias mentioned.
  while IFS= read -r aliases; do
    [ -n "$aliases" ] || continue
    found=0
    for a in $aliases; do
      if printf '%s\n' "$doc_flags" | grep -qxF -- "$a"; then
        found=1
        break
      fi
    done
    if [ "$found" -eq 0 ]; then
      echo "docs-drift: UNDOCUMENTED: obda $cmd accepts [$aliases] but $MANUAL does not mention it" >&2
      fail=1
    fi
  done <<EOF
$(help_options "$cmd")
EOF

  # Phantom: every flag the manual section mentions must be accepted.
  accepted=$(help_options "$cmd" | tr ' ' '\n' | sort -u)
  while IFS= read -r f; do
    [ -n "$f" ] || continue
    if ! printf '%s\n' "$accepted" | grep -qxF -- "$f"; then
      echo "docs-drift: PHANTOM: $MANUAL documents $f under 'obda $cmd' but the command does not accept it" >&2
      fail=1
    fi
  done <<EOF
$sec_flags
EOF
done

# Source paths cited by the docs must exist, so a moved or deleted module
# takes its citations with it.
for doc in DESIGN.md README.md EXPERIMENTS.md MANUAL.md; do
  [ -f "$doc" ] || continue
  for path in $(grep -o 'lib/[A-Za-z0-9_]*/[A-Za-z0-9_]*\.mli\?\b' "$doc" | sort -u); do
    if [ ! -f "$path" ]; then
      echo "docs-drift: MISSING SOURCE: $doc names $path, which does not exist" >&2
      fail=1
    fi
  done
done

if [ "$fail" -ne 0 ]; then
  echo "docs-drift: FAILED — update the docs (or the cmdliner terms) until they agree with the code" >&2
  exit 1
fi
echo "docs-drift: OK — MANUAL.md flag inventory matches every subcommand's --help; every cited lib/ source exists"
