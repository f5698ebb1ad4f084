#!/bin/sh
# `odb store append` and `odb store checkpoint` over a wal.log whose
# first record decodes but does not replay (it sets an attribute of an
# object that does not exist) and whose second record is valid.  Both
# must exit 2 and leave wal.log byte-identical; a torn tail after the
# same valid record is still cut off and appended over.
#
# Usage: store_unreplayable.sh ODB SCHEMA WAL
set -u

odb=$1
schema=$2
wal=$3
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

"$odb" store init "$tmp/db" --schema "$schema" >/dev/null
printf 'new #2 Employee ssn=8\n' >"$tmp/script"

for action in append checkpoint; do
  cp "$wal" "$tmp/db/wal.log"
  "$odb" store "$action" "$tmp/db" --script "$tmp/script" >/dev/null 2>"$tmp/err"
  echo "$action: exit $?"
  cat "$tmp/err"
  if cmp -s "$wal" "$tmp/db/wal.log"; then
    echo "$action: wal.log unchanged"
  else
    echo "$action: wal.log CHANGED"
  fi
done

# the valid record alone as seq 1, then a torn partial line
printf 'w 1 24d763f2 new #1 Employee ssn=7 name="eve"\nw 2 0000' >"$tmp/db/wal.log"
"$odb" store append "$tmp/db" --script "$tmp/script" 2>&1 >/dev/null
echo "torn tail: exit $?"
"$odb" store verify "$tmp/db"
