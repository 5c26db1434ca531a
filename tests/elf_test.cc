#include <gtest/gtest.h>

#include "src/elf/elf_reader.h"
#include "src/elf/elf_writer.h"

namespace depsurf {
namespace {

struct ElfVariant {
  ElfClass klass;
  Endian endian;
  ElfMachine machine;
};

class ElfRoundTripTest : public ::testing::TestWithParam<ElfVariant> {};

TEST_P(ElfRoundTripTest, SectionsSymbolsAndAddresses) {
  const ElfVariant& v = GetParam();
  ElfWriter w(ElfIdent{v.klass, v.endian, v.machine});

  ByteWriter text(v.endian);
  text.WriteU32(0x90909090);
  uint32_t text_idx =
      w.AddSection(".text", SectionType::kProgbits, text.TakeBytes(), 0x1000, kShfAlloc);

  ByteWriter rodata(v.endian);
  rodata.WriteU64(0xabcdef);
  rodata.WriteCString("hello");
  w.AddSection(".rodata", SectionType::kProgbits, rodata.TakeBytes(), 0x2000, kShfAlloc);

  w.AddSymbol(
      {"static_helper", 0x1000, 16, SymBind::kLocal, SymType::kFunc, (uint16_t)text_idx});
  w.AddSymbol({"vfs_fsync", 0x1002, 32, SymBind::kGlobal, SymType::kFunc, (uint16_t)text_idx});

  auto bytes = w.Finish();
  ASSERT_TRUE(bytes.ok()) << bytes.error().ToString();

  auto reader = ElfReader::Parse(bytes.TakeValue());
  ASSERT_TRUE(reader.ok()) << reader.error().ToString();
  EXPECT_EQ(reader->ident().klass, v.klass);
  EXPECT_EQ(reader->ident().endian, v.endian);
  EXPECT_EQ(reader->ident().machine, v.machine);

  const ElfSectionView* text_sec = reader->SectionByName(".text");
  ASSERT_NE(text_sec, nullptr);
  EXPECT_EQ(text_sec->addr, 0x1000u);
  EXPECT_EQ(text_sec->size, 4u);

  ASSERT_EQ(reader->symbols().size(), 2u);
  auto sym = reader->FindSymbol("vfs_fsync");
  ASSERT_TRUE(sym.has_value());
  EXPECT_EQ(sym->value, 0x1002u);
  EXPECT_EQ(sym->size, 32u);
  EXPECT_EQ(sym->bind, SymBind::kGlobal);
  EXPECT_EQ(sym->type, SymType::kFunc);

  // Address-based dereference into .rodata.
  auto at = reader->ReadAtAddress(0x2008);
  ASSERT_TRUE(at.ok());
  EXPECT_EQ(at->ReadCString().value(), "hello");
  auto val = reader->ReadAtAddress(0x2000);
  ASSERT_TRUE(val.ok());
  EXPECT_EQ(val->ReadU64().value(), 0xabcdefu);
  EXPECT_FALSE(reader->ReadAtAddress(0x9999).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ElfRoundTripTest,
    ::testing::Values(ElfVariant{ElfClass::k64, Endian::kLittle, ElfMachine::kX86_64},
                      ElfVariant{ElfClass::k64, Endian::kLittle, ElfMachine::kAarch64},
                      ElfVariant{ElfClass::k32, Endian::kLittle, ElfMachine::kArm},
                      ElfVariant{ElfClass::k64, Endian::kBig, ElfMachine::kPpc64},
                      ElfVariant{ElfClass::k64, Endian::kLittle, ElfMachine::kRiscv}));

TEST(ElfReaderTest, RejectsGarbage) {
  EXPECT_FALSE(ElfReader::Parse({}).ok());
  EXPECT_FALSE(ElfReader::Parse(std::vector<uint8_t>(100, 0)).ok());
  std::vector<uint8_t> bad_magic(100, 0);
  bad_magic[0] = 0x7f;
  bad_magic[1] = 'E';
  bad_magic[2] = 'L';
  bad_magic[3] = 'G';
  EXPECT_FALSE(ElfReader::Parse(bad_magic).ok());
}

TEST(ElfReaderTest, RejectsTruncatedFile) {
  ElfWriter w(ElfIdent{});
  w.AddSection(".data", SectionType::kProgbits, std::vector<uint8_t>(64, 7), 0x100, kShfAlloc);
  auto bytes = w.Finish();
  ASSERT_TRUE(bytes.ok());
  std::vector<uint8_t> truncated(bytes->begin(), bytes->begin() + bytes->size() / 2);
  EXPECT_FALSE(ElfReader::Parse(truncated).ok());
}

TEST(ElfReaderTest, EmptyObjectParses) {
  ElfWriter w(ElfIdent{});
  auto bytes = w.Finish();
  ASSERT_TRUE(bytes.ok());
  auto reader = ElfReader::Parse(bytes.TakeValue());
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->symbols().empty());
  // null section + shstrtab
  EXPECT_EQ(reader->sections().size(), 2u);
  EXPECT_EQ(reader->SectionByName(".missing"), nullptr);
  EXPECT_FALSE(reader->SectionDataByName(".missing").ok());
}

TEST(ElfReaderTest, LocalSymbolsPrecedeGlobals) {
  ElfWriter w(ElfIdent{});
  uint32_t text =
      w.AddSection(".text", SectionType::kProgbits, std::vector<uint8_t>(4, 0), 0, kShfAlloc);
  w.AddSymbol({"g1", 0, 0, SymBind::kGlobal, SymType::kFunc, (uint16_t)text});
  w.AddSymbol({"l1", 0, 0, SymBind::kLocal, SymType::kFunc, (uint16_t)text});
  auto reader = ElfReader::Parse(w.Finish().TakeValue());
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader->symbols().size(), 2u);
  EXPECT_EQ(reader->symbols()[0].name, "l1");
  EXPECT_EQ(reader->symbols()[1].name, "g1");
}

TEST(ElfWriterTest, SectionDataRoundTripsBigEndian) {
  ElfWriter w(ElfIdent{ElfClass::k64, Endian::kBig, ElfMachine::kPpc64});
  ByteWriter data(Endian::kBig);
  data.WriteU32(0x11223344);
  w.AddSection(".rodata", SectionType::kProgbits, data.TakeBytes(), 0x4000, kShfAlloc);
  auto reader = ElfReader::Parse(w.Finish().TakeValue());
  ASSERT_TRUE(reader.ok());
  auto r = reader->SectionDataByName(".rodata");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->endian(), Endian::kBig);
  EXPECT_EQ(r->ReadU32().value(), 0x11223344u);
}

}  // namespace
}  // namespace depsurf
