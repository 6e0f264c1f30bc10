#!/usr/bin/env bash
# Prints the MD5 of every table/figure bench's `--quick --report` artifact,
# one `<md5> <binary>` line each: the byte-identity referee for a change
# that must leave every artifact as it was.
#
# With --against PARENT_BUILD it runs every bench on both builds and prints
# `<parent md5> <change md5> <binary>` lines instead; for each pair that
# differs it prints scripts/report_diff.py's listing to stderr, and it exits
# non-zero if any pair differs.
#
# A report's config object records the --report path, so every binary writes
# the same relative path inside a scratch directory.  Not run:
# micro_components (its report carries google-benchmark wall times) and
# obs_lint (the artifact validator, not a bench).
#
# Each bench also runs again at --jobs 1, and the script exits non-zero when
# that report's tables or metrics differ from the default-jobs run's: a
# sweep's results must not depend on how many threads ran it.  Only config,
# which records the flag, may differ.  scripts/report_diff.py judges the
# pair and, on a failure, names the differing cells and metrics.  Takes
# several seconds.
#
# Usage: scripts/report_digests.sh [BUILD_DIR]   (default: the repo's build/)
#        scripts/report_digests.sh --against PARENT_BUILD [BUILD_DIR]
#        scripts/report_digests.sh --list        (the bench names, one a line;
#                                                 check.sh's coverage stage
#                                                 runs the same list)
set -euo pipefail

benches=(
  table1_ior_single_server table2_mpi_p2p
  fig3_ior_scaling fig4_fieldio_high_contention fig5_fieldio_low_contention
  fig6_objclass_size fig7_tcp_vs_psm2
  fig_contention_serving fig_snapshot_rw fig_rebuild_interference fig_interfaces
  baseline_lustre ablation_transfer_scheme projection_future_volumes
)
if [[ "${1:-}" == --list ]]; then
  printf '%s\n' "${benches[@]}"
  exit 0
fi

repo="$(cd "$(dirname "$0")/.." && pwd)"
parent_dir=""
if [[ "${1:-}" == --against ]]; then
  parent_dir="$(cd "${2:?--against needs the parent build directory}" && pwd)"
  shift 2
fi
build_dir="$(cd "${1:-$repo/build}" && pwd)"

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
cd "$scratch"
# The parent writes the same relative report path from its own directory, so
# the two reports' config objects match.
mkdir parent
status=0
for name in "${benches[@]}"; do
  "$build_dir/bench/$name" --quick --report=report.json >/dev/null
  digest="$(md5sum <report.json | cut -d' ' -f1)"
  if [[ -z "$parent_dir" ]]; then
    echo "$digest $name"
  else
    (cd parent && "$parent_dir/bench/$name" --quick --report=report.json >/dev/null)
    parent_digest="$(md5sum <parent/report.json | cut -d' ' -f1)"
    echo "$parent_digest $digest $name"
    if [[ "$parent_digest" != "$digest" ]]; then
      echo "$name: the report differs from the parent's:" >&2
      python3 "$repo/scripts/report_diff.py" parent/report.json report.json >&2 || true
      status=1
    fi
  fi
  "$build_dir/bench/$name" --quick --jobs=1 --report=serial.json >/dev/null
  if ! listing="$(python3 "$repo/scripts/report_diff.py" report.json serial.json)"; then
    echo "$name: tables or metrics at --jobs 1 differ from the default-jobs run:" >&2
    echo "$listing" >&2
    status=1
  fi
done
exit "$status"
