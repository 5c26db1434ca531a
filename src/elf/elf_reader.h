// Parses ELF objects produced by ElfWriter (and structurally-valid ELF in
// general, within the supported subset). All parsing is bounds-checked and
// reports malformed input via Result rather than aborting.
#ifndef DEPSURF_SRC_ELF_ELF_READER_H_
#define DEPSURF_SRC_ELF_ELF_READER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/elf/elf.h"
#include "src/util/byte_buffer.h"
#include "src/util/error.h"

namespace depsurf {

struct ElfSectionView {
  std::string name;
  SectionType type = SectionType::kNull;
  uint64_t flags = 0;
  uint64_t addr = 0;
  uint64_t offset = 0;  // file offset
  uint64_t size = 0;
  uint32_t link = 0;
  uint64_t entsize = 0;
};

class ElfReader {
 public:
  // Takes ownership of the file bytes.
  static Result<ElfReader> Parse(std::vector<uint8_t> bytes);

  const ElfIdent& ident() const { return ident_; }
  int pointer_size() const { return ident_.pointer_size(); }
  Endian endian() const { return ident_.endian; }

  const std::vector<ElfSectionView>& sections() const { return sections_; }
  const std::vector<ElfSymbol>& symbols() const { return symbols_; }

  // Finds a section by name; nullptr if absent.
  const ElfSectionView* SectionByName(std::string_view name) const;

  // A bounds-checked reader over the section body, endianness inherited
  // from the file.
  Result<ByteReader> SectionData(const ElfSectionView& section) const;
  Result<ByteReader> SectionDataByName(std::string_view name) const;

  // Resolves a virtual address to a reader positioned at that address inside
  // the containing allocated section. This is the primitive behind the
  // "generic parser that interprets and dereferences contents in the data
  // sections" used for tracepoint and syscall extraction.
  Result<ByteReader> ReadAtAddress(uint64_t vaddr) const;

  // First symbol with the given name, if any.
  std::optional<ElfSymbol> FindSymbol(std::string_view name) const;

 private:
  ElfReader() = default;

  Status ParseSections();
  Status ParseSymbols();

  std::vector<uint8_t> bytes_;
  ElfIdent ident_;
  uint64_t shoff_ = 0;
  uint16_t shentsize_ = 0;
  uint16_t shnum_ = 0;
  uint16_t shstrndx_ = 0;
  std::vector<ElfSectionView> sections_;
  std::vector<ElfSymbol> symbols_;
};

}  // namespace depsurf

#endif  // DEPSURF_SRC_ELF_ELF_READER_H_
