#!/usr/bin/env sh
# Behaviour oracle for changes that must not move the paper's results: run
# the paper-result binaries from two build directories (say, the parent
# commit's and the change's) and require byte-identical stdout.
#
#   ./tools/paper_oracle.sh <parent-build> <change-build>
#
# Each binary runs in its own scratch directory (the QoS bench writes its
# JSON there) and the two stdouts are compared with cmp. Exits non-zero when
# any output differs or any run fails; the scratch directory is then kept
# for inspection. Use Release builds of both sides: fig6 alone takes about
# half a minute there.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 <parent-build> <change-build>" >&2
  exit 2
fi
parent=$(CDPATH= cd -- "$1" && pwd) || exit 2
change=$(CDPATH= cd -- "$2" && pwd) || exit 2
work=$(mktemp -d "${TMPDIR:-/tmp}/paper-oracle.XXXXXX") || exit 2
failed=0

# check <bench binary> [args...]
check() {
  bin=$1
  shift
  for side in parent change; do
    if [ "$side" = parent ]; then dir=$parent; else dir=$change; fi
    out="$work/$side/$bin"
    mkdir -p "$out"
    if ! (cd "$out" && "$dir/bench/$bin" "$@" >stdout 2>stderr); then
      echo "FAIL   $bin: the $side run exited non-zero (see $out/stderr)"
      failed=1
      return
    fi
  done
  if cmp -s "$work/parent/$bin/stdout" "$work/change/$bin/stdout"; then
    echo "same   $bin"
  else
    echo "DIFFER $bin"
    diff "$work/parent/$bin/stdout" "$work/change/$bin/stdout" | head -20
    failed=1
  fi
}

check fig6_raptor_lake
check fig7_odroid
check fig8_learning
check energy_attribution
check dvfs_extension
check phase_extension
check qos_workload --quick --out qos.json

if [ "$failed" -ne 0 ]; then
  echo "paper oracle: outputs differ or a run failed (kept in $work)"
  exit 1
fi
rm -rf "$work"
echo "paper oracle: all outputs byte-identical"
