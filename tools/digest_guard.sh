#!/bin/sh
# Byte-identity guard: compare this tree's digest (tools/identity_hashes.py)
# with the digest of commit BASE, computed in a git worktree by BASE's own
# tool and library.  Prints both.  Exits 1 when they differ and the lines
# this tree adds to CHANGES.md since BASE do not name the new digest in full,
# the way a change that moves the digest announces it.  Exits 2 when
# either tree's tool fails or prints anything but a 64-hex-digit digest.
#
#   sh tools/digest_guard.sh BASE      # BASE: a commit, e.g. HEAD~1
set -eu
base=$1
root=$(git rev-parse --show-toplevel)
scratch=$(mktemp -d)
trap 'git -C "$root" worktree remove --force "$scratch/base" 2>/dev/null; rm -rf "$scratch"' EXIT
git -C "$root" worktree add --quiet --detach "$scratch/base" "$base"

digest() {  # the digest of the source tree at $1, by that tree's own tool
    PYTHONPATH="$1/src" python -c 'import sys, balm; sys.exit(not balm.__file__.startswith(sys.argv[1]))' "$1/src" \
        || { echo "balm does not import from $1/src" >&2; exit 2; }
    out=$(PYTHONPATH="$1/src" python "$1/tools/identity_hashes.py") \
        || { echo "tools/identity_hashes.py failed in $1" >&2; exit 2; }
    printf '%s\n' "$out" | tail -n 1 | grep -Ex '[0-9a-f]{64}' \
        || { echo "tools/identity_hashes.py in $1 printed no digest on its last line" >&2; exit 2; }
}

old=$(digest "$scratch/base")
new=$(digest "$root")
echo "digest at $base: $old"
echo "digest here: $new"
[ "$old" = "$new" ] && exit 0
if git -C "$root" diff "$base" -- CHANGES.md | grep '^+' | grep -qF "$new"; then
    echo "the digest changed, and CHANGES.md announces the new one"
    exit 0
fi
echo "the digest changed, and no line this change adds to CHANGES.md names $new" >&2
exit 1
