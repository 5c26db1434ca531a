#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "src/dwarf/dwarf.h"
#include "src/dwarf/dwarf_codec.h"
#include "src/dwarf/function_view.h"
#include "tests/dwarf_reference.h"

namespace depsurf {
namespace {

// Builds the paper's vfs_fsync example: defined in fs/sync.c, inlined into
// the fsync/fdatasync syscalls in the same TU, called out of line from
// fs/aio.c.
DwarfDocument MakeVfsFsyncDocument() {
  DwarfDocument doc;
  uint32_t cu_sync = doc.AddDie(DwTag::kCompileUnit, 0);
  doc.SetString(cu_sync, DwAttr::kName, "fs/sync.c");

  uint32_t vfs_fsync = doc.AddDie(DwTag::kSubprogram, cu_sync);
  doc.SetString(vfs_fsync, DwAttr::kName, "vfs_fsync");
  doc.SetString(vfs_fsync, DwAttr::kDeclFile, "fs/sync.c");
  doc.SetNumber(vfs_fsync, DwAttr::kDeclLine, 213);
  doc.SetFlag(vfs_fsync, DwAttr::kExternal);
  doc.SetNumber(vfs_fsync, DwAttr::kInline, static_cast<uint64_t>(DwInl::kInlined));
  doc.SetNumber(vfs_fsync, DwAttr::kLowPc, 0xffffffff81234000ull);
  uint32_t param = doc.AddDie(DwTag::kFormalParameter, vfs_fsync);
  doc.SetString(param, DwAttr::kName, "file");

  uint32_t sys_fsync = doc.AddDie(DwTag::kSubprogram, cu_sync);
  doc.SetString(sys_fsync, DwAttr::kName, "__x64_sys_fsync");
  doc.SetNumber(sys_fsync, DwAttr::kLowPc, 0xffffffff81234100ull);
  uint32_t inl = doc.AddDie(DwTag::kInlinedSubroutine, sys_fsync);
  doc.SetNumber(inl, DwAttr::kAbstractOrigin, vfs_fsync);

  uint32_t cu_aio = doc.AddDie(DwTag::kCompileUnit, 0);
  doc.SetString(cu_aio, DwAttr::kName, "fs/aio.c");
  uint32_t aio_fsync = doc.AddDie(DwTag::kSubprogram, cu_aio);
  doc.SetString(aio_fsync, DwAttr::kName, "aio_fsync_work");
  doc.SetNumber(aio_fsync, DwAttr::kLowPc, 0xffffffff81250000ull);
  uint32_t call = doc.AddDie(DwTag::kCallSite, aio_fsync);
  doc.SetNumber(call, DwAttr::kCallOrigin, vfs_fsync);

  return doc;
}

// The attributes of one DIE, in order, with strings resolved.
std::vector<std::tuple<DwAttr, std::string, uint64_t>> AttrsOf(const DwarfDocument& doc,
                                                               uint32_t die) {
  std::vector<std::tuple<DwAttr, std::string, uint64_t>> out;
  doc.ForEachAttr(die, [&](const DwarfAttrValue& v) {
    bool is_string = FormOf(v.attr) == DwForm::kString;
    out.emplace_back(v.attr, std::string(doc.StringOf(v)), is_string ? 0 : v.num);
  });
  return out;
}

size_t ChildCount(const DwarfDocument& doc, uint32_t die) {
  size_t n = 0;
  doc.ForEachChild(die, [&](uint32_t) { ++n; });
  return n;
}

// The streaming decoder's view of `doc`'s encoding, checked against the
// reference reader on the same bytes.
Result<FunctionInstanceMap> Streamed(const DwarfDocument& doc) {
  DwarfSections sections = EncodeDwarf(doc);
  auto streamed = DecodeFunctionInstances(sections.abbrev, sections.info);
  EXPECT_EQ(DescribeInstances(streamed), DescribeInstances(CollectFunctionInstances(doc)));
  return streamed;
}

TEST(DwarfDocumentTest, TreeStructure) {
  DwarfDocument doc = MakeVfsFsyncDocument();
  EXPECT_EQ(doc.roots().size(), 2u);
  EXPECT_EQ(doc.num_dies(), 8u);
  uint32_t cu = doc.roots()[0];
  EXPECT_EQ(doc.die(cu).tag, DwTag::kCompileUnit);
  EXPECT_EQ(ChildCount(doc, cu), 2u);
  EXPECT_EQ(doc.GetString(cu, DwAttr::kName).value(), "fs/sync.c");
  EXPECT_FALSE(doc.GetString(cu, DwAttr::kDeclFile).has_value());
  EXPECT_FALSE(doc.GetNumber(cu, DwAttr::kDeclLine).has_value());
  // Attributes keep their order, and the first of a repeated one wins.
  uint32_t vfs_fsync = doc.die(cu).first_child;
  EXPECT_EQ(std::get<0>(AttrsOf(doc, vfs_fsync).front()), DwAttr::kName);
  EXPECT_EQ(std::get<0>(AttrsOf(doc, vfs_fsync).back()), DwAttr::kLowPc);
  doc.SetString(vfs_fsync, DwAttr::kName, "shadowed");
  EXPECT_EQ(doc.GetString(vfs_fsync, DwAttr::kName).value(), "vfs_fsync");
}

TEST(DwarfCodecTest, RoundTripPreservesEverything) {
  for (Endian endian : {Endian::kLittle, Endian::kBig}) {
    DwarfDocument doc = MakeVfsFsyncDocument();
    DwarfSections sections = EncodeDwarf(doc, endian);
    EXPECT_FALSE(sections.abbrev.empty());
    EXPECT_FALSE(sections.info.empty());

    auto decoded = DecodeDwarf(sections.abbrev, sections.info, endian);
    ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
    ASSERT_EQ(decoded->num_dies(), doc.num_dies());
    ASSERT_EQ(decoded->roots().size(), doc.roots().size());

    // Arena order equals pre-order for this document, so DIEs align 1:1.
    for (uint32_t i = 1; i <= doc.num_dies(); ++i) {
      EXPECT_EQ(doc.die(i).tag, decoded->die(i).tag) << "die " << i;
      EXPECT_EQ(AttrsOf(doc, i), AttrsOf(*decoded, i)) << "die " << i;
      EXPECT_EQ(ChildCount(doc, i), ChildCount(*decoded, i)) << "die " << i;
    }
  }
}

TEST(DwarfCodecTest, AbbrevSharing) {
  // Two subprograms with identical attribute shapes must share one abbrev.
  DwarfDocument doc;
  uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
  doc.SetString(cu, DwAttr::kName, "a.c");
  for (const char* name : {"f", "g", "h"}) {
    uint32_t sub = doc.AddDie(DwTag::kSubprogram, cu);
    doc.SetString(sub, DwAttr::kName, name);
    doc.SetNumber(sub, DwAttr::kLowPc, 0x1000);
  }
  DwarfSections one = EncodeDwarf(doc);

  DwarfDocument doc_single;
  uint32_t cu2 = doc_single.AddDie(DwTag::kCompileUnit, 0);
  doc_single.SetString(cu2, DwAttr::kName, "a.c");
  uint32_t sub = doc_single.AddDie(DwTag::kSubprogram, cu2);
  doc_single.SetString(sub, DwAttr::kName, "f");
  doc_single.SetNumber(sub, DwAttr::kLowPc, 0x1000);
  DwarfSections single = EncodeDwarf(doc_single);

  EXPECT_EQ(one.abbrev.size(), single.abbrev.size());
}

TEST(DwarfCodecTest, RejectsTruncatedInfo) {
  DwarfSections sections = EncodeDwarf(MakeVfsFsyncDocument());
  std::vector<uint8_t> truncated(sections.info.begin(),
                                 sections.info.begin() + sections.info.size() - 4);
  // Either a parse error or (rarely) a clean prefix; must not crash. The
  // cut below lands mid-DIE, so it must error.
  EXPECT_FALSE(DecodeDwarf(sections.abbrev, truncated).ok());
  EXPECT_FALSE(DecodeFunctionInstances(sections.abbrev, truncated).ok());
}

TEST(DwarfCodecTest, RejectsBadAbbrevCode) {
  DwarfSections sections = EncodeDwarf(MakeVfsFsyncDocument());
  std::vector<uint8_t> info = {0x7f};  // abbrev code 127: out of range
  EXPECT_FALSE(DecodeDwarf(sections.abbrev, info).ok());
  auto streamed = DecodeFunctionInstances(sections.abbrev, info);
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.error().ToString(),
            "malformed_data: abbrev code out of range (at byte 0x1)");
}

TEST(DwarfCodecTest, EmptyDocumentRoundTrips) {
  DwarfDocument doc;
  DwarfSections sections = EncodeDwarf(doc);
  auto decoded = DecodeDwarf(sections.abbrev, sections.info);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_dies(), 0u);
  auto streamed = DecodeFunctionInstances(sections.abbrev, sections.info);
  ASSERT_TRUE(streamed.ok());
  EXPECT_TRUE(streamed->empty());
}

TEST(FunctionViewTest, PaperExampleShape) {
  DwarfDocument doc = MakeVfsFsyncDocument();
  auto result = Streamed(doc);
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  const auto& instances = *result;
  ASSERT_EQ(instances.count("vfs_fsync"), 1u);
  const FunctionInstance& inst = instances.at("vfs_fsync")[0];
  EXPECT_EQ(inst.decl_file, "fs/sync.c");
  EXPECT_EQ(inst.decl_line, 213u);
  EXPECT_TRUE(inst.external);
  EXPECT_EQ(inst.inline_attr, DwInl::kInlined);
  EXPECT_TRUE(inst.HasCode());
  ASSERT_EQ(inst.caller_inline.size(), 1u);
  EXPECT_EQ(inst.caller_inline[0], "fs/sync.c:__x64_sys_fsync");
  ASSERT_EQ(inst.caller_func.size(), 1u);
  EXPECT_EQ(inst.caller_func[0], "fs/aio.c:aio_fsync_work");
}

TEST(FunctionViewTest, SurvivesCodecRoundTrip) {
  DwarfSections sections = EncodeDwarf(MakeVfsFsyncDocument());
  auto result = DecodeFunctionInstances(sections.abbrev, sections.info);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->at("vfs_fsync")[0].caller_func[0], "fs/aio.c:aio_fsync_work");
}

TEST(FunctionViewTest, FullyInlinedInstanceHasNoCode) {
  DwarfDocument doc;
  uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
  doc.SetString(cu, DwAttr::kName, "block/blk-core.c");
  uint32_t target = doc.AddDie(DwTag::kSubprogram, cu);
  doc.SetString(target, DwAttr::kName, "blk_account_io_start");
  doc.SetNumber(target, DwAttr::kInline, static_cast<uint64_t>(DwInl::kDeclaredInlined));
  uint32_t caller = doc.AddDie(DwTag::kSubprogram, cu);
  doc.SetString(caller, DwAttr::kName, "blk_mq_submit_bio");
  doc.SetNumber(caller, DwAttr::kLowPc, 0x9000);
  uint32_t site = doc.AddDie(DwTag::kInlinedSubroutine, caller);
  doc.SetNumber(site, DwAttr::kAbstractOrigin, target);

  auto result = Streamed(doc);
  ASSERT_TRUE(result.ok());
  const FunctionInstance& inst = result->at("blk_account_io_start")[0];
  EXPECT_FALSE(inst.HasCode());
  EXPECT_EQ(inst.inline_attr, DwInl::kDeclaredInlined);
  EXPECT_EQ(inst.caller_inline.size(), 1u);
  EXPECT_TRUE(inst.caller_func.empty());
}

TEST(FunctionViewTest, DuplicatedStaticYieldsMultipleInstances) {
  DwarfDocument doc;
  for (const char* file : {"fs/ext4/super.c", "fs/xfs/super.c"}) {
    uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
    doc.SetString(cu, DwAttr::kName, file);
    uint32_t sub = doc.AddDie(DwTag::kSubprogram, cu);
    doc.SetString(sub, DwAttr::kName, "get_order");
    doc.SetString(sub, DwAttr::kDeclFile, "include/asm-generic/getorder.h");
    doc.SetNumber(sub, DwAttr::kLowPc, 0x1000);
  }
  auto result = Streamed(doc);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->at("get_order").size(), 2u);
  EXPECT_EQ(result->at("get_order")[0].decl_file, "include/asm-generic/getorder.h");
}

TEST(FunctionViewTest, RejectsOriginPointingAtNonSubprogram) {
  DwarfDocument doc;
  uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
  doc.SetString(cu, DwAttr::kName, "a.c");
  uint32_t sub = doc.AddDie(DwTag::kSubprogram, cu);
  doc.SetString(sub, DwAttr::kName, "f");
  uint32_t site = doc.AddDie(DwTag::kInlinedSubroutine, sub);
  doc.SetNumber(site, DwAttr::kAbstractOrigin, cu);  // bogus: CU, not subprogram
  EXPECT_FALSE(Streamed(doc).ok());
}

TEST(FunctionViewTest, RejectsAnonymousSubprogram) {
  DwarfDocument doc;
  uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
  doc.SetString(cu, DwAttr::kName, "a.c");
  doc.AddDie(DwTag::kSubprogram, cu);
  EXPECT_FALSE(Streamed(doc).ok());
}

}  // namespace
}  // namespace depsurf
