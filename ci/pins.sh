#!/usr/bin/env bash
# The packaging smoke test and the output pins of an installed r2subfield.
#
#   bash ci/pins.sh CHECKOUT OUTDIR [m5]
#
# CHECKOUT is the repository, for perfbench/expected.json; OUTDIR is a
# scratch directory that receives the outputs.  The script runs from OUTDIR:
# the tests run with tests/ on sys.path, so only an installed copy run
# outside the checkout shows that the package imports nothing from it.  The
# `r2subfield` command and `import r2subfield` must reach that copy.  Every
# sha256 below is the recorded output of one call; a wrong hash, a failing
# call or a missed exit code stops the script with a nonzero status.  With
# m5 it also runs the full m = 5 sweeps, each under a 200 MiB peak-RSS gate.
set -eo pipefail
checkout=$(cd "$1" && pwd)
out=$(cd "$2" && pwd)
cd "$out"
python -c "import r2subfield"
# a sweep runs in one process whatever --jobs says: neither the CLI
# nor a sweep imports a process pool
python -c "import sys, r2subfield.cli as cli; assert cli.main(['verify', '--m', '1', '--jobs', '2']) == 0; assert 'concurrent.futures' not in sys.modules"
r2subfield scan
python -m r2subfield scan
# the longest code at m = 5, n = 2^15
r2subfield code --m 5 --family 1 --L 1,2,3,4,5 --M 1,2,3,4,5 --N 1,2,3,4,5 --format json
# the global complement moves the zero message to weight 0
r2subfield code --m 5 --family 9 --L 1 --M 1 --N 1 --format json
# --jobs is accepted and changes nothing, from the installed copy
r2subfield verify --m 2 --jobs 2
# the sweep must equal the recorded one (the output goes to a file,
# so a failing exit stops bash -e)
r2subfield verify --m 3 --jobs 2 --format json > "$out/sweep_m3.json"
expected=$(python -c "import json, sys; print(json.load(open(sys.argv[1]))['sweep_m3']['sha256'])" "$checkout/perfbench/expected.json")
test "$(sha256sum < "$out/sweep_m3.json" | cut -d ' ' -f 1)" = "$expected"
# three m values in one sweep, whose tasks share a slot table per m
# and complement pattern and never one across m values
r2subfield verify --m 1,2,3 --format json > "$out/sweep_m123.json"
test "$(sha256sum < "$out/sweep_m123.json" | cut -d ' ' -f 1)" = a310ae68cd922a6ae1d0bd999b521d9fa72503b08482510c89888cd8b45eefdb
# the full m = 4 sweep covers all 1,125 size classes; the per-class caches
# hold every class up to m = 5 (3,960).  Its hash is the one recorded when
# the sweep was last checked by hand.  One process's per-factor records
# serve the whole sweep, with or without --jobs
r2subfield verify --m 4 --format json > "$out/sweep_m4.json"
test "$(sha256sum < "$out/sweep_m4.json" | cut -d ' ' -f 1)" = 8d775c5c3b0035db8a9decf1c1ef634a238c71e0310bf03591fdda3fe098e178
r2subfield verify --m 4 --jobs 2 --format json > "$out/sweep_m4.json"
test "$(sha256sum < "$out/sweep_m4.json" | cut -d ' ' -f 1)" = 8d775c5c3b0035db8a9decf1c1ef634a238c71e0310bf03591fdda3fe098e178
# the CSV and markdown renderings of the same sweep
r2subfield verify --m 4 --format csv > "$out/sweep_m4.csv"
test "$(sha256sum < "$out/sweep_m4.csv" | cut -d ' ' -f 1)" = 8fa4e4783ca542cfbcf446210552df18d1cee32fc19d77f2e50a74e886f01e15
r2subfield verify --m 4 --format md > "$out/sweep_m4.md"
test "$(sha256sum < "$out/sweep_m4.md" | cut -d ' ' -f 1)" = 4a6135fb80eefa93f78eed42d5edf52a911cbe36d06b1e408b5fd4c8878c03f3
# the full m = 5 sweep covers all 1,944 size classes.  It writes 108 MB
# one (family, m) task at a time, in 1.3-2.0 s on two cores with a peak
# RSS of 46 MiB, with --jobs 1 or 2 (381 MiB when the whole document was
# built before the first byte).  It runs both ways, through a wrapper that
# reports the peak RSS of the sweep on stderr and fails above 200 MiB
if [ "${3:-}" = m5 ]; then
  for jobs in 1 2; do
    python -c '
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
command = " ".join(sys.argv[1:])
print(f"peak RSS {peak:.0f} MiB: {command}", file=sys.stderr)
sys.exit(peak > 200)
' r2subfield verify --m 5 --jobs "$jobs" --format json > "$out/sweep_m5.json"
    test "$(sha256sum < "$out/sweep_m5.json" | cut -d ' ' -f 1)" = 308def6c1d76122b6acd42b58a768eb060a374a6939cdc161ddf2eb5f8df974b
  done
  # the CSV and markdown renderings of the m = 5 sweep
  r2subfield verify --m 5 --format csv > "$out/sweep_m5.csv"
  test "$(sha256sum < "$out/sweep_m5.csv" | cut -d ' ' -f 1)" = 92fb63e7681a300d6ed9c13b344d7c9edf9eb7a72c6415d1a7488258f5f2098e
  r2subfield verify --m 5 --format md > "$out/sweep_m5.md"
  test "$(sha256sum < "$out/sweep_m5.md" | cut -d ' ' -f 1)" = 051759dbf9c473985bde63cfc43364f05e61afdb04d948539e6ed539b74b48de
fi
r2subfield tables --family 5 --m 2 --sL 0 --sM 0 --sN 2 --format csv
r2subfield code --m 3 --family 2 --L 1 --M 1,2 --N 1,2,3 --format md --out "$out/report.md"
test -s "$out/report.md"
# invalid input exits 2; `|| status=$?` keeps bash -e running past it
status=0
r2subfield tables --family 10 --m 2 --sL 0 --sM 0 --sN 0 || status=$?
test "$status" -eq 2
# a manifest row that cannot be computed exits 2 and names its line
printf 'family,m,L,M,N,n,k,d\n5,6,-,-,1,1,1,1\n' > "$out/m6.csv"
status=0
r2subfield scan --manifest "$out/m6.csv" 2> "$out/m6.err" || status=$?
test "$status" -eq 2
grep -q 'manifest line' "$out/m6.err"
echo "pins: all passed" >&2
