#include "src/elf/elf_reader.h"

#include "src/obs/context.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/diagnostic_ledger.h"

namespace depsurf {

namespace {

// Attributes a broken section body to the extraction layer that owns the
// section, so a poisoned .sdwarf_info reads as a DWARF failure in the
// quarantine diagnostics rather than a generic ELF one.
DiagSubsystem SubsystemForSection(std::string_view name) {
  if (name.rfind(".sdwarf", 0) == 0) {
    return DiagSubsystem::kDwarf;
  }
  if (name.rfind(".BTF", 0) == 0) {  // .BTF and .BTF_ids
    return DiagSubsystem::kBtf;
  }
  return DiagSubsystem::kElf;
}

}  // namespace

const char* ElfMachineName(ElfMachine machine) {
  switch (machine) {
    case ElfMachine::kX86_64:
      return "x86";
    case ElfMachine::kAarch64:
      return "arm64";
    case ElfMachine::kArm:
      return "arm32";
    case ElfMachine::kPpc64:
      return "ppc";
    case ElfMachine::kRiscv:
      return "riscv";
  }
  return "unknown";
}

Result<ElfReader> ElfReader::Parse(std::vector<uint8_t> bytes) {
  obs::ScopedSpan span("elf.parse");
  span.AddAttr("bytes", static_cast<uint64_t>(bytes.size()));
  ElfReader reader;
  reader.bytes_ = std::move(bytes);
  if (reader.bytes_.size() < 52) {
    return Error(ErrorCode::kMalformedData, "file too small for ELF header");
  }
  const auto& b = reader.bytes_;
  if (b[0] != 0x7f || b[1] != 'E' || b[2] != 'L' || b[3] != 'F') {
    return Error(ErrorCode::kMalformedData, "bad ELF magic");
  }
  if (b[4] != 1 && b[4] != 2) {
    return Error(ErrorCode::kMalformedData, "bad EI_CLASS");
  }
  if (b[5] != 1 && b[5] != 2) {
    return Error(ErrorCode::kMalformedData, "bad EI_DATA");
  }
  reader.ident_.klass = static_cast<ElfClass>(b[4]);
  reader.ident_.endian = b[5] == 1 ? Endian::kLittle : Endian::kBig;

  ByteReader r(reader.bytes_, reader.ident_.endian);
  DEPSURF_RETURN_IF_ERROR(r.Seek(16));
  DEPSURF_ASSIGN_OR_RETURN(etype, r.ReadU16());
  (void)etype;
  DEPSURF_ASSIGN_OR_RETURN(machine, r.ReadU16());
  reader.ident_.machine = static_cast<ElfMachine>(machine);
  DEPSURF_ASSIGN_OR_RETURN(version, r.ReadU32());
  if (version != 1) {
    return Error(ErrorCode::kMalformedData, "bad e_version");
  }
  int ptr = reader.ident_.pointer_size();
  DEPSURF_ASSIGN_OR_RETURN(entry, r.ReadAddr(ptr));
  (void)entry;
  DEPSURF_ASSIGN_OR_RETURN(phoff, r.ReadAddr(ptr));
  (void)phoff;
  DEPSURF_ASSIGN_OR_RETURN(shoff, r.ReadAddr(ptr));
  reader.shoff_ = shoff;
  DEPSURF_RETURN_IF_ERROR(r.Skip(4 + 2 + 2 + 2));  // flags, ehsize, phentsize, phnum
  DEPSURF_ASSIGN_OR_RETURN(shentsize, r.ReadU16());
  reader.shentsize_ = shentsize;
  DEPSURF_ASSIGN_OR_RETURN(shnum, r.ReadU16());
  reader.shnum_ = shnum;
  DEPSURF_ASSIGN_OR_RETURN(shstrndx, r.ReadU16());
  reader.shstrndx_ = shstrndx;

  DEPSURF_RETURN_IF_ERROR(reader.ParseSections());
  DEPSURF_RETURN_IF_ERROR(reader.ParseSymbols());
  span.AddAttr("sections", static_cast<uint64_t>(reader.sections_.size()));
  span.AddAttr("symbols", static_cast<uint64_t>(reader.symbols_.size()));
  // Counters resolve through the current obs::Context every call — no static
  // pointer caching, which would bind to whichever per-image context parsed
  // the first file and pollute every later one.
  obs::MetricsRegistry& metrics = obs::Context::Current().metrics();
  metrics.Counter("elf.files_parsed")->fetch_add(1, std::memory_order_relaxed);
  metrics.Counter("elf.bytes_parsed")
      ->fetch_add(reader.bytes_.size(), std::memory_order_relaxed);
  metrics.Counter("elf.sections_parsed")
      ->fetch_add(reader.sections_.size(), std::memory_order_relaxed);
  metrics.Counter("elf.symbols_parsed")
      ->fetch_add(reader.symbols_.size(), std::memory_order_relaxed);
  obs::Histogram* section_bytes = metrics.GetHistogram("elf.section_bytes");
  for (const ElfSectionView& s : reader.sections_) {
    section_bytes->Record(s.size);
  }
  return reader;
}

Status ElfReader::ParseSections() {
  const size_t expected_entsize = ident_.klass == ElfClass::k64 ? 64 : 40;
  if (shentsize_ != expected_entsize) {
    return Status(ErrorCode::kMalformedData, "unexpected shentsize");
  }
  // shoff_ comes straight from the file; the naive `shoff_ + shnum_ *
  // shentsize_` sum can wrap for hostile headers, so compare subtractively.
  if (shoff_ > bytes_.size() ||
      static_cast<uint64_t>(shnum_) * shentsize_ > bytes_.size() - shoff_) {
    return Status(Error(ErrorCode::kMalformedData, "section header table beyond file")
                      .WithOffset(shoff_));
  }
  if (shstrndx_ >= shnum_) {
    return Status(ErrorCode::kMalformedData, "shstrndx out of range");
  }

  ByteReader r(bytes_, ident_.endian);
  int ptr = ident_.pointer_size();
  sections_.clear();
  sections_.reserve(shnum_);
  std::vector<uint32_t> name_offsets;
  name_offsets.reserve(shnum_);
  for (uint16_t i = 0; i < shnum_; ++i) {
    DEPSURF_RETURN_IF_ERROR(r.Seek(shoff_ + static_cast<uint64_t>(i) * shentsize_));
    ElfSectionView s;
    DEPSURF_ASSIGN_OR_RETURN(name_off, r.ReadU32());
    DEPSURF_ASSIGN_OR_RETURN(type, r.ReadU32());
    s.type = static_cast<SectionType>(type);
    DEPSURF_ASSIGN_OR_RETURN(flags, r.ReadAddr(ptr));
    s.flags = flags;
    DEPSURF_ASSIGN_OR_RETURN(addr, r.ReadAddr(ptr));
    s.addr = addr;
    DEPSURF_ASSIGN_OR_RETURN(offset, r.ReadAddr(ptr));
    s.offset = offset;
    DEPSURF_ASSIGN_OR_RETURN(size, r.ReadAddr(ptr));
    s.size = size;
    DEPSURF_ASSIGN_OR_RETURN(link, r.ReadU32());
    s.link = link;
    DEPSURF_RETURN_IF_ERROR(r.Skip(4));  // sh_info
    DEPSURF_RETURN_IF_ERROR(r.Skip(ptr));  // sh_addralign
    DEPSURF_ASSIGN_OR_RETURN(entsize, r.ReadAddr(ptr));
    s.entsize = entsize;
    name_offsets.push_back(name_off);
    sections_.push_back(std::move(s));
  }

  // Section names are resolved before body-bounds validation so that a
  // broken body can be attributed to the subsystem that owns the section.
  // The shstrtab body itself must be validated first — it is the one section
  // read before names exist, and it is always the ELF layer's problem.
  const ElfSectionView& shstr = sections_[shstrndx_];
  if (shstr.type != SectionType::kStrtab) {
    return Status(ErrorCode::kMalformedData, "shstrtab is not a STRTAB");
  }
  if (shstr.offset > bytes_.size() || shstr.size > bytes_.size() - shstr.offset) {
    return Status(Error(ErrorCode::kMalformedData, "section body beyond file")
                      .WithOffset(shstr.offset)
                      .WithSubsystem(DiagSubsystem::kElf));
  }
  ByteReader names(bytes_.data() + shstr.offset, shstr.size, ident_.endian);
  for (size_t i = 0; i < sections_.size(); ++i) {
    uint32_t off = name_offsets[i];
    if (off == 0) {
      continue;
    }
    DEPSURF_ASSIGN_OR_RETURN(nm, names.ReadCStringAt(off));
    sections_[i].name = nm;
  }

  for (const ElfSectionView& s : sections_) {
    if (s.type != SectionType::kNobits && s.type != SectionType::kNull &&
        (s.offset > bytes_.size() || s.size > bytes_.size() - s.offset)) {
      return Status(Error(ErrorCode::kMalformedData,
                          "section body beyond file: " + std::string(s.name))
                        .WithOffset(s.offset)
                        .WithSubsystem(SubsystemForSection(s.name)));
    }
  }
  return Status::Ok();
}

Status ElfReader::ParseSymbols() {
  const ElfSectionView* symtab = SectionByName(".symtab");
  if (symtab == nullptr) {
    return Status::Ok();  // objects without symbols are legal
  }
  if (symtab->link >= sections_.size()) {
    return Status(ErrorCode::kMalformedData, "symtab link out of range");
  }
  const ElfSectionView& strtab = sections_[symtab->link];
  if (strtab.type != SectionType::kStrtab) {
    return Status(ErrorCode::kMalformedData, "symtab link is not a STRTAB");
  }
  ByteReader names(bytes_.data() + strtab.offset, strtab.size, ident_.endian);
  ByteReader r(bytes_.data() + symtab->offset, symtab->size, ident_.endian);
  const size_t entsize = ident_.klass == ElfClass::k64 ? 24 : 16;
  if (symtab->size % entsize != 0) {
    return Status(ErrorCode::kMalformedData, "symtab size not a multiple of entry size");
  }
  size_t count = symtab->size / entsize;
  symbols_.clear();
  symbols_.reserve(count > 0 ? count - 1 : 0);
  for (size_t i = 0; i < count; ++i) {
    ElfSymbol sym;
    uint32_t name_off = 0;
    if (ident_.klass == ElfClass::k64) {
      DEPSURF_ASSIGN_OR_RETURN(n, r.ReadU32());
      name_off = n;
      DEPSURF_ASSIGN_OR_RETURN(info, r.ReadU8());
      sym.bind = static_cast<SymBind>(info >> 4);
      sym.type = static_cast<SymType>(info & 0xf);
      DEPSURF_RETURN_IF_ERROR(r.Skip(1));
      DEPSURF_ASSIGN_OR_RETURN(shndx, r.ReadU16());
      sym.shndx = shndx;
      DEPSURF_ASSIGN_OR_RETURN(value, r.ReadU64());
      sym.value = value;
      DEPSURF_ASSIGN_OR_RETURN(size, r.ReadU64());
      sym.size = size;
    } else {
      DEPSURF_ASSIGN_OR_RETURN(n, r.ReadU32());
      name_off = n;
      DEPSURF_ASSIGN_OR_RETURN(value, r.ReadU32());
      sym.value = value;
      DEPSURF_ASSIGN_OR_RETURN(size, r.ReadU32());
      sym.size = size;
      DEPSURF_ASSIGN_OR_RETURN(info, r.ReadU8());
      sym.bind = static_cast<SymBind>(info >> 4);
      sym.type = static_cast<SymType>(info & 0xf);
      DEPSURF_RETURN_IF_ERROR(r.Skip(1));
      DEPSURF_ASSIGN_OR_RETURN(shndx, r.ReadU16());
      sym.shndx = shndx;
    }
    if (i == 0) {
      continue;  // null symbol
    }
    if (name_off != 0) {
      DEPSURF_ASSIGN_OR_RETURN(nm, names.ReadCStringAt(name_off));
      sym.name = nm;
    }
    symbols_.push_back(std::move(sym));
  }
  return Status::Ok();
}

const ElfSectionView* ElfReader::SectionByName(std::string_view name) const {
  for (const ElfSectionView& s : sections_) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

Result<ByteReader> ElfReader::SectionData(const ElfSectionView& section) const {
  if (section.offset > bytes_.size() || section.size > bytes_.size() - section.offset) {
    return Error(ErrorCode::kOutOfRange, "section beyond file").WithOffset(section.offset);
  }
  return ByteReader(bytes_.data() + section.offset, section.size, ident_.endian);
}

Result<ByteReader> ElfReader::SectionDataByName(std::string_view name) const {
  const ElfSectionView* s = SectionByName(name);
  if (s == nullptr) {
    return Error(ErrorCode::kNotFound, "no section named " + std::string(name));
  }
  return SectionData(*s);
}

Result<ByteReader> ElfReader::ReadAtAddress(uint64_t vaddr) const {
  for (const ElfSectionView& s : sections_) {
    if ((s.flags & kShfAlloc) == 0 || s.type == SectionType::kNobits) {
      continue;
    }
    if (vaddr >= s.addr && vaddr - s.addr < s.size) {
      DEPSURF_ASSIGN_OR_RETURN(reader, SectionData(s));
      DEPSURF_RETURN_IF_ERROR(reader.Seek(vaddr - s.addr));
      return reader;
    }
  }
  return Error(ErrorCode::kNotFound, "address not in any allocated section");
}

std::optional<ElfSymbol> ElfReader::FindSymbol(std::string_view name) const {
  for (const ElfSymbol& s : symbols_) {
    if (s.name == name) {
      return s;
    }
  }
  return std::nullopt;
}

}  // namespace depsurf
