#!/usr/bin/env bash
# Byte-identity oracle for the dataset pipeline, registered with ctest as
# `golden-dds`. Builds a small fixed corpus (3 versions, --scale=0.05,
# --seed=7), migrates it to the v2 layout, and compares the SHA-256 of both
# files against tests/golden/dds.sha256. A change that alters any byte of
# the v1 or v2 output fails here; regenerate the digests only for a change
# that means to alter the format or the extracted surfaces, and say so.
set -eu

DEPSURF=${1:?usage: golden_dds.sh /path/to/depsurf /path/to/cmake /path/to/dds.sha256}
CMAKE=${2:?usage: golden_dds.sh /path/to/depsurf /path/to/cmake /path/to/dds.sha256}
EXPECTED=${3:?usage: golden_dds.sh /path/to/depsurf /path/to/cmake /path/to/dds.sha256}
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT
cd "$WORKDIR"

"$DEPSURF" study build --versions=4.4,5.4,6.8 --scale=0.05 --seed=7 --jobs=2 --strict \
  --out=golden.dds > /dev/null
"$DEPSURF" dataset migrate golden.dds golden.v2.dds > /dev/null
"$CMAKE" -E sha256sum golden.dds golden.v2.dds > actual.sha256
if ! diff -u "$EXPECTED" actual.sha256; then
  echo "golden_dds: FAIL: .dds bytes differ from the committed digests" >&2
  exit 1
fi
echo "golden_dds: ok"
