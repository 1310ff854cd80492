#!/bin/sh
# Usage: spill.sh MUTEXLB ARG...
#
# Runs `MUTEXLB check ARG... --spill-dir D --json` on a fresh D and
# prints, in order: the exit code, the JSON verdict, then for each
# spill directory under D its check.manifest and an md5 list of its
# other files. The exit code is part of the answer.
exe=$1
shift
d=$(mktemp -d)
"$exe" check "$@" --spill-dir "$d/spill" --json > "$d/stdout" 2> /dev/null
echo "exit $?"
cat "$d/stdout"
export LC_ALL=C
for sub in $(ls "$d/spill"); do
  echo "== $sub/check.manifest"
  cat "$d/spill/$sub/check.manifest"
  echo "== $sub md5"
  (cd "$d/spill/$sub" && md5sum $(ls | grep -v '^check\.manifest$'))
done
rm -rf "$d"
