#!/usr/bin/env bash
# Byte-identity oracle for the image writer, registered with ctest as
# `golden-images`. Generates one small v5.4 image (--scale=0.05, --seed=3)
# for each ELF flavor the corpus spans: x86 (ELF64 little-endian), ppc
# (ELF64 big-endian) and arm32 (ELF32), and compares their SHA-256 against
# tests/golden/images.sha256. golden-dds pins what is extracted from images;
# this pins the image bytes themselves (ELF, BTF and DWARF-lite encoders).
# Regenerate the digests only for a change that means to alter the images,
# and say so.
set -eu

DEPSURF=${1:?usage: golden_images.sh /path/to/depsurf /path/to/cmake /path/to/images.sha256}
CMAKE=${2:?usage: golden_images.sh /path/to/depsurf /path/to/cmake /path/to/images.sha256}
EXPECTED=${3:?usage: golden_images.sh /path/to/depsurf /path/to/cmake /path/to/images.sha256}
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT
cd "$WORKDIR"

for arch in x86 ppc arm32; do
  "$DEPSURF" gen --version=5.4 --scale=0.05 --seed=3 --arch="$arch" \
    --out="img54_$arch.img" > /dev/null
done
"$CMAKE" -E sha256sum img54_x86.img img54_ppc.img img54_arm32.img > actual.sha256
if ! diff -u "$EXPECTED" actual.sha256; then
  echo "golden_images: FAIL: image bytes differ from the committed digests" >&2
  exit 1
fi
echo "golden_images: ok"
