#!/usr/bin/env bash
# End-to-end robustness smoke, registered with ctest as `robustness-smoke`
# (labeled `robustness`, so it also runs under DEPSURF_SANITIZE builds).
# Drives `depsurf doctor` over a clean image, a hand-poisoned one, and a
# seeded fault-injection sweep, runs a short coverage-guided fuzz campaign
# (deterministic across reruns, lintable fuzz_campaign.v1 document), then
# walks the quarantine path of `study build` end to end: the default policy
# (no --strict) must finish with the poisoned image quarantined and listed in
# the aggregate report; --strict must fail. JSON nested 300k deep must be a
# typed error for `metrics lint` and for one serve request. Last, bad argv: every malformed
# invocation the command table's parser rejects must exit 1 naming its cause,
# and a failed write must never report success.
set -eu

DEPSURF=${1:?usage: robustness_smoke.sh /path/to/depsurf}
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT
cd "$WORKDIR"

fail() {
  echo "robustness_smoke: FAIL: $*" >&2
  exit 1
}

# ---- doctor on a clean image: exit 0, clean health, valid JSON document.
"$DEPSURF" gen --version=5.4 --scale=0.02 --out=img || fail "gen exited $?"
"$DEPSURF" doctor img > doctor.txt || fail "doctor on clean image exited $?"
grep -q "clean" doctor.txt || fail "clean image not reported clean"
"$DEPSURF" doctor img --json > doctor.json || fail "doctor --json exited $?"
"$DEPSURF" metrics lint doctor.json --kind=diag || fail "diagnostics doc invalid"

# ---- doctor on a salvaged image: damage the image body, expect exit 2
# and ledger entries in the JSON document.
python3 - <<'EOF'
bytes = bytearray(open('img', 'rb').read())
# Clobber a window in the middle of the file: hits section bodies, not the
# ELF container, so extraction salvages instead of dying.
mid = len(bytes) // 2
bytes[mid:mid + 256] = b'\xff' * 256
open('damaged', 'wb').write(bytes)
EOF
set +e
"$DEPSURF" doctor damaged --json > damaged.json
code=$?
set -e
[ "$code" -eq 0 ] || [ "$code" -eq 2 ] || fail "doctor on damaged image exited $code"
"$DEPSURF" metrics lint damaged.json --kind=diag || fail "damaged diagnostics doc invalid"

# ---- seeded sweep: 64 mutations, no crash, deterministic across reruns.
"$DEPSURF" doctor img --sweep=64 --seed=11 > sweep1.txt || fail "sweep exited $?"
grep -q "0 crashes" sweep1.txt || fail "sweep summary missing"
"$DEPSURF" doctor img --sweep=64 --seed=11 > sweep2.txt || fail "sweep rerun exited $?"
cmp -s sweep1.txt sweep2.txt || fail "sweep is not deterministic"

# ---- malformed sweep flags must exit 1 and name the offending flag.
set +e
"$DEPSURF" doctor img --sweep=abc 2> badsweep.err
code=$?
set -e
[ "$code" -eq 1 ] || fail "doctor --sweep=abc exited $code, want 1"
grep -q -- "--sweep" badsweep.err || fail "sweep flag error does not name --sweep"
set +e
"$DEPSURF" doctor img --sweep=8 --seed=-3 2> badseed.err
code=$?
set -e
[ "$code" -eq 1 ] || fail "doctor --seed=-3 exited $code, want 1"
grep -q -- "--seed" badseed.err || fail "seed flag error does not name --seed"

# ---- short fuzz campaign: deterministic across reruns (identical JSON and
# corpus bytes), lintable document, and a minimized corpus on disk.
"$DEPSURF" fuzz img --rounds=24 --seed=7 --corpus-dir=corpus1 --json > fuzz1.json \
  || fail "fuzz campaign exited $?"
"$DEPSURF" fuzz img --rounds=24 --seed=7 --corpus-dir=corpus2 --json > fuzz2.json \
  || fail "fuzz campaign rerun exited $?"
cmp -s fuzz1.json fuzz2.json || fail "fuzz campaign is not deterministic"
for f in corpus1/*; do
  cmp -s "$f" "corpus2/$(basename "$f")" || fail "corpus file $(basename "$f") differs across reruns"
done
"$DEPSURF" metrics lint fuzz1.json --kind=fuzz || fail "fuzz campaign doc invalid"
"$DEPSURF" metrics lint corpus1/campaign.json --kind=fuzz || fail "corpus campaign.json invalid"
ls corpus1/fuzz_0000_seed.bin > /dev/null || fail "corpus is missing the seed entry"

# ---- study build (default policy) with one poisoned image: completes, the
# poisoned image is quarantined, and the aggregate lists its fatal entry.
mkdir -p reps
"$DEPSURF" study build --versions=5.4,5.8 --scale=0.02 \
  --poison=v5.8-x86-generic-gcc10 --report-dir=reps --out=ds > study.txt \
  || fail "default-policy study build exited $?"
grep -q "quarantined v5.8-x86-generic-gcc10" study.txt || fail "no quarantine line"
grep -q "1 images" study.txt || fail "dataset should hold only the survivor"
"$DEPSURF" metrics lint reps/report_agg.json --kind=agg || fail "aggregate invalid"
grep -q '"severity": "fatal"' reps/report_agg.json \
  || fail "aggregate is missing the quarantined image's fatal diagnostic"
grep -q '"label": "v5.8-x86-generic-gcc10"' reps/report_agg.json \
  || fail "aggregate diagnostic is not attributed to the poisoned image"

# ---- JSON nested far beyond any real document: `metrics lint` and a serve
# batch answer with a typed error, never a stack overflow, and the valid
# requests around the deep line still answer.
python3 -c "print('[' * 300000 + ']' * 300000)" > deep.json
set +e
"$DEPSURF" metrics lint deep.json --kind=analysis 2> deep.err
code=$?
set -e
[ "$code" -eq 1 ] || fail "metrics lint of a 300k-deep document exited $code, want 1"
grep -q "nested deeper than" deep.err || fail "deep document error does not name the depth"
{
  echo '{"id": 1, "funcs": ["vfs_read"]}'
  cat deep.json
  echo '{"id": 2, "funcs": ["vfs_write"]}'
} > deep_batch.ndjson
"$DEPSURF" serve --against=ds --oneshot < deep_batch.ndjson > deep_answers.ndjson 2> /dev/null \
  || fail "serve over a deep request line exited $?"
[ "$(wc -l < deep_answers.ndjson)" -eq 3 ] || fail "serve lost answers around a deep line"
sed -n 1p deep_answers.ndjson | grep -q '^{"id": 1, .*"ok": true' \
  || fail "request before the deep line did not answer"
sed -n 2p deep_answers.ndjson | grep -q '"ok": false, "error": "bad request JSON: .*nested deeper' \
  || fail "deep line did not answer a typed error"
sed -n 3p deep_answers.ndjson | grep -q '^{"id": 2, .*"ok": true' \
  || fail "request after the deep line did not answer"

# ---- the same corpus under --strict must fail.
set +e
"$DEPSURF" study build --versions=5.4,5.8 --scale=0.02 \
  --poison=v5.8-x86-generic-gcc10 --strict > strict.txt 2> strict.err
code=$?
set -e
[ "$code" -ne 0 ] || fail "strict build succeeded over a poisoned corpus"
grep -q "v5.8-x86-generic-gcc10" strict.err || fail "strict error does not name the image"

# ---- strict flag parsing: every malformed numeric flag must exit 1 with an
# error that names the flag, never silently parse to 0 (the atoi family) or
# to a truncated prefix (the strtoull family).
check_flag_error() {
  flag_name=$1; shift
  set +e
  "$DEPSURF" "$@" > flagerr.txt 2>&1
  flag_code=$?
  set -e
  [ "$flag_code" -eq 1 ] \
    || fail "'depsurf $*' exited $flag_code, want 1: $(cat flagerr.txt)"
  grep -q -- "$flag_name" flagerr.txt \
    || fail "error for 'depsurf $*' does not name $flag_name: $(cat flagerr.txt)"
}
check_flag_error --jobs study build --scale=0.02 --out=dsx --jobs=abc
check_flag_error --jobs profile reps1/report_agg.json --live --jobs=abc
check_flag_error --jobs serve --against=ds_v2.dds --oneshot --jobs=999
check_flag_error --min-spans metrics lint gen.json --min-spans=abc
check_flag_error --window perf trend --history=none.ndjson --window=0
check_flag_error --window perf trend --history=none.ndjson --window=abc
check_flag_error --top perf diff a.json b.json --top=0
check_flag_error --top perf diff a.json b.json --top=abc
check_flag_error --scale gen --version=5.4 --out=imgx --scale=abc
check_flag_error --seed study build --scale=0.02 --out=dsx --seed=-1
check_flag_error --oneshot serve --against=ds_v2.dds


# ---- every command and subcommand in the table rejects an unknown flag.
# The list comes from the generated usage text, so a new command is covered
# as soon as it is declared.
set +e
"$DEPSURF" > /dev/null 2> usage.txt
set -e
sed -n 's/^  \([a-z]\{1,\}\( [a-z]\{1,\}\)\{0,1\}\)\( .*\)\{0,1\}$/\1/p' usage.txt > commands.txt
[ "$(wc -l < commands.txt)" -eq 25 ] \
  || fail "usage lists $(wc -l < commands.txt) commands, want 25: $(cat commands.txt)"
while read -r command; do
  # shellcheck disable=SC2086  # "perf compare" is two words on purpose
  check_flag_error --no-such-flag $command --no-such-flag
done < commands.txt

# ---- flag shape: a value flag needs =VALUE (never the next word) and a
# nonempty one, a boolean takes none, and no flag may be given twice.
check_flag_error --against analyze prog.o --against ds --json
check_flag_error --json analyze prog.o --json=1
check_flag_error --jobs study build --scale=0.02 --jobs=
check_flag_error --jobs study build --scale=0.02 --jobs=1 --jobs=8
check_flag_error --trace stats img --trace=1

# ---- positional counts are checked against the table.
check_flag_error '"C"' dataset migrate A B C
check_flag_error '"B.o"' analyze A.o B.o
check_flag_error 'needs IMG' surface

# ---- a failed write (a full disk) exits 1 and never prints "wrote".
check_write_error() {
  set +e
  "$DEPSURF" "$@" > write.out 2> write.err
  write_code=$?
  set -e
  [ "$write_code" -eq 1 ] || fail "'depsurf $*' exited $write_code, want 1"
  if grep -q "^wrote" write.out; then
    fail "'depsurf $*' claims a write that failed: $(cat write.out)"
  fi
  grep -q "/dev/full" write.err || fail "'depsurf $*' error does not name the file"
}
check_write_error study build --versions=5.4 --scale=0.02 --out=/dev/full
# llcstat's object is small enough to sit in the stream buffer, so its
# write fails only when the close flushes it.
check_write_error emit llcstat --out=/dev/full
# The global options' reports are small too: --metrics-out and --trace-out
# must fail the run, naming the file, when the close fails.
check_write_error progs --metrics-out=/dev/full
check_write_error progs --trace-out=/dev/full

# ---- --report-dir: a missing nested directory is created; one that cannot
# be created fails before any image is built, naming the flag.
"$DEPSURF" study build --versions=5.4 --scale=0.02 --report-dir=new/nested/reps \
  > nested.txt || fail "study build into a nested --report-dir exited $?"
[ -s new/nested/reps/report_agg.json ] || fail "nested --report-dir holds no aggregate"
check_flag_error --report-dir study build --versions=5.4 --scale=0.02 --report-dir=img/reps
if grep -q '^\[' flagerr.txt; then
  fail "bad --report-dir failed only after the build started"
fi

# ---- profile reads the depsurf.profile.v1 files study build writes: --json
# reproduces the file byte for byte, and --folded-out (a profile has no
# stacks) is refused naming the flag.
"$DEPSURF" study build --versions=5.4 --scale=0.02 --profile-out=p.json > /dev/null \
  || fail "study build --profile-out exited $?"
"$DEPSURF" profile p.json --json > p2.json || fail "profile of a profile exited $?"
cmp -s p.json p2.json || fail "profile --json does not reproduce its profile input"
"$DEPSURF" profile p.json | grep -q "critical path" || fail "profile text of a profile"
check_flag_error --folded-out profile p.json --folded-out=p.folded
check_write_error profile p.json --out=/dev/full

echo "robustness_smoke: PASS"
