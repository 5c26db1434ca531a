// Differential oracle for the streaming DWARF-lite decoder: on every input,
// DecodeFunctionInstances must return the same instance map as the
// reference reader (tests/dwarf_reference.h), or an error with the same
// ToString(). Inputs are random documents, seeded truncations and bit flips
// of their bytes and of a small kernelgen image's sections, and hand-built
// edge cases.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/dwarf/dwarf_codec.h"
#include "src/dwarf/function_view.h"
#include "src/elf/elf_reader.h"
#include "src/kernelgen/compiler.h"
#include "src/kernelgen/configurator.h"
#include "src/kernelgen/corpus.h"
#include "src/kernelgen/image_builder.h"
#include "src/util/leb128.h"
#include "src/util/prng.h"
#include "tests/dwarf_reference.h"

namespace depsurf {
namespace {

// Decodes with both readers, expects equal results, returns the streamed one.
Result<FunctionInstanceMap> ExpectSame(const std::vector<uint8_t>& abbrev,
                                       const std::vector<uint8_t>& info,
                                       Endian endian = Endian::kLittle) {
  auto streamed = DecodeFunctionInstances(abbrev, info, endian);
  EXPECT_EQ(DescribeInstances(streamed),
            DescribeInstances(ReferenceFunctionInstances(abbrev, info, endian)));
  return streamed;
}

Result<FunctionInstanceMap> ExpectSame(const DwarfDocument& doc) {
  DwarfSections sections = EncodeDwarf(doc);
  return ExpectSame(sections.abbrev, sections.info);
}

std::string ErrorOf(const Result<FunctionInstanceMap>& result) {
  return result.ok() ? "ok" : result.error().message();
}

// Applies one seeded mutation: a truncation, a bit flip, or a byte
// overwrite, to a random position of `bytes`.
void Mutate(Prng& prng, std::vector<uint8_t>& bytes) {
  if (bytes.empty()) {
    return;
  }
  size_t at = prng.NextBelow(bytes.size());
  switch (prng.NextBelow(3)) {
    case 0:
      bytes.resize(at);
      break;
    case 1:
      bytes[at] ^= static_cast<uint8_t>(1u << prng.NextBelow(8));
      break;
    default:
      bytes[at] = static_cast<uint8_t>(prng.NextBelow(256));
      break;
  }
}

// Mutates the abbrev or the info section (info three times as often, since
// that is where the DIEs are), and compares the readers on the result.
// Returns the distinct outcomes seen ("ok" or an error message).
std::set<std::string> CompareOnMutations(const DwarfSections& clean, Endian endian,
                                         uint64_t seed, int rounds) {
  Prng prng(seed);
  std::set<std::string> outcomes;
  for (int round = 0; round < rounds; ++round) {
    DwarfSections mutated = clean;
    Mutate(prng, prng.NextBelow(4) == 0 ? mutated.abbrev : mutated.info);
    SCOPED_TRACE("seed " + std::to_string(seed) + " round " + std::to_string(round));
    outcomes.insert(ErrorOf(ExpectSame(mutated.abbrev, mutated.info, endian)));
  }
  return outcomes;
}

TEST(DwarfDifferentialTest, RandomDocuments) {
  for (uint64_t seed = 0; seed < 64; ++seed) {
    Prng prng(seed);
    DwarfDocument doc = RandomDwarfDocument(prng);
    for (Endian endian : {Endian::kLittle, Endian::kBig}) {
      DwarfSections sections = EncodeDwarf(doc, endian);
      auto streamed = ExpectSame(sections.abbrev, sections.info, endian);
      EXPECT_TRUE(streamed.ok()) << streamed.error().ToString();
    }
  }
}

TEST(DwarfDifferentialTest, MutatedRandomDocuments) {
  std::map<std::string, int> outcomes;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    Prng prng(seed);
    DwarfDocument doc = RandomDwarfDocument(prng);
    for (Endian endian : {Endian::kLittle, Endian::kBig}) {
      for (const std::string& outcome : CompareOnMutations(
               EncodeDwarf(doc, endian), endian, seed * 2 + (endian == Endian::kBig), 24)) {
        ++outcomes[outcome];
      }
    }
  }
  EXPECT_TRUE(outcomes.count("ok"));
  EXPECT_TRUE(outcomes.count("call origin is not a subprogram"));
  EXPECT_GE(outcomes.size(), 6u) << ::testing::PrintToString(outcomes);
}

TEST(DwarfDifferentialTest, MutatedKernelgenImage) {
  for (Arch arch : {Arch::kX86, Arch::kPpc}) {
    KernelModel model(7, 0.02, BuildCuratedCatalog());
    auto kernel = model.Configure(MakeBuild(KernelVersion(5, 4), arch));
    ASSERT_TRUE(kernel.ok());
    auto bytes = BuildKernelImage(CompileKernel(7, kernel.TakeValue()));
    ASSERT_TRUE(bytes.ok());
    auto reader = ElfReader::Parse(bytes.TakeValue());
    ASSERT_TRUE(reader.ok());
    auto abbrev = reader->SectionDataByName(kSectionDwarfAbbrev);
    auto info = reader->SectionDataByName(kSectionDwarfInfo);
    ASSERT_TRUE(abbrev.ok() && info.ok());
    DwarfSections sections{abbrev->ReadBytes(abbrev->size()).TakeValue(),
                           info->ReadBytes(info->size()).TakeValue()};
    auto clean = ExpectSame(sections.abbrev, sections.info, reader->endian());
    ASSERT_TRUE(clean.ok()) << clean.error().ToString();
    EXPECT_TRUE(clean->count("vfs_fsync"));
    std::set<std::string> outcomes =
        CompareOnMutations(sections, reader->endian(), 1000 + static_cast<uint64_t>(arch), 150);
    // The mutations reach both clean decodes and several distinct errors.
    EXPECT_TRUE(outcomes.count("ok"));
    EXPECT_GE(outcomes.size(), 4u) << ::testing::PrintToString(outcomes);
  }
}

// ---- Hand-built documents -------------------------------------------------

TEST(DwarfDifferentialTest, ForwardOriginReference) {
  DwarfDocument doc;
  uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
  doc.SetString(cu, DwAttr::kName, "a.c");
  uint32_t caller = doc.AddDie(DwTag::kSubprogram, cu);
  doc.SetString(caller, DwAttr::kName, "caller");
  uint32_t site = doc.AddDie(DwTag::kInlinedSubroutine, caller);
  uint32_t callee = doc.AddDie(DwTag::kSubprogram, cu);
  doc.SetString(callee, DwAttr::kName, "callee");
  doc.SetNumber(site, DwAttr::kAbstractOrigin, callee);  // later in the stream
  auto result = ExpectSame(doc);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->at("callee")[0].caller_inline, std::vector<std::string>{"a.c:caller"});
}

TEST(DwarfDifferentialTest, SitesUnderNestedDiesBelongToTheUnitLevelCaller) {
  DwarfDocument doc;
  uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
  doc.SetString(cu, DwAttr::kName, "a.c");
  uint32_t target = doc.AddDie(DwTag::kSubprogram, cu);
  doc.SetString(target, DwAttr::kName, "target");
  uint32_t outer = doc.AddDie(DwTag::kSubprogram, cu);
  doc.SetString(outer, DwAttr::kName, "outer");
  uint32_t param = doc.AddDie(DwTag::kFormalParameter, outer);
  uint32_t under_param = doc.AddDie(DwTag::kCallSite, param);
  doc.SetNumber(under_param, DwAttr::kCallOrigin, target);
  uint32_t nested = doc.AddDie(DwTag::kSubprogram, outer);  // not an instance
  doc.SetString(nested, DwAttr::kName, "nested");
  uint32_t inlined = doc.AddDie(DwTag::kInlinedSubroutine, nested);
  doc.SetNumber(inlined, DwAttr::kAbstractOrigin, target);
  uint32_t deeper = doc.AddDie(DwTag::kInlinedSubroutine, inlined);
  doc.SetNumber(deeper, DwAttr::kAbstractOrigin, target);
  auto result = ExpectSame(doc);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count("nested"), 0u);
  const FunctionInstance& inst = result->at("target")[0];
  EXPECT_EQ(inst.caller_func, std::vector<std::string>{"a.c:outer"});
  EXPECT_EQ(inst.caller_inline, (std::vector<std::string>{"a.c:outer", "a.c:outer"}));
}

TEST(DwarfDifferentialTest, SitesDirectlyUnderAUnitAreIgnored) {
  DwarfDocument doc;
  uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
  doc.SetString(cu, DwAttr::kName, "a.c");
  uint32_t sub = doc.AddDie(DwTag::kSubprogram, cu);
  doc.SetString(sub, DwAttr::kName, "f");
  uint32_t site = doc.AddDie(DwTag::kCallSite, cu);
  doc.SetNumber(site, DwAttr::kCallOrigin, cu);  // not a subprogram, yet never checked
  uint32_t param = doc.AddDie(DwTag::kFormalParameter, cu);
  uint32_t below = doc.AddDie(DwTag::kInlinedSubroutine, param);
  doc.SetNumber(below, DwAttr::kAbstractOrigin, 0);
  auto result = ExpectSame(doc);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->at("f")[0].caller_func.empty());
}

TEST(DwarfDifferentialTest, RepeatedAttributeFirstWins) {
  DwarfDocument doc;
  uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
  doc.SetString(cu, DwAttr::kName, "a.c");
  doc.SetString(cu, DwAttr::kName, "b.c");
  uint32_t sub = doc.AddDie(DwTag::kSubprogram, cu);
  doc.SetString(sub, DwAttr::kName, "first");
  doc.SetNumber(sub, DwAttr::kDeclLine, 7);
  doc.SetString(sub, DwAttr::kName, "second");
  doc.SetNumber(sub, DwAttr::kDeclLine, 9);
  doc.SetNumber(sub, DwAttr::kLowPc, 0x10);
  doc.SetNumber(sub, DwAttr::kLowPc, 0x20);
  auto result = ExpectSame(doc);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->count("first"), 1u);
  EXPECT_EQ(result->count("second"), 0u);
  const FunctionInstance& inst = result->at("first")[0];
  EXPECT_EQ(inst.decl_file, "a.c");
  EXPECT_EQ(inst.decl_line, 7u);
  EXPECT_EQ(inst.low_pc, 0x10u);
}

TEST(DwarfDifferentialTest, EmptyOrMissingNames) {
  {
    DwarfDocument doc;  // a nameless unit: decl_file and caller prefix are empty
    uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
    uint32_t callee = doc.AddDie(DwTag::kSubprogram, cu);
    doc.SetString(callee, DwAttr::kName, "callee");
    uint32_t caller = doc.AddDie(DwTag::kSubprogram, cu);
    doc.SetString(caller, DwAttr::kName, "caller");
    uint32_t site = doc.AddDie(DwTag::kCallSite, caller);
    doc.SetNumber(site, DwAttr::kCallOrigin, callee);
    auto result = ExpectSame(doc);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->at("callee")[0].decl_file, "");
    EXPECT_EQ(result->at("callee")[0].caller_func, std::vector<std::string>{":caller"});
  }
  for (bool empty : {true, false}) {
    DwarfDocument doc;
    uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
    uint32_t sub = doc.AddDie(DwTag::kSubprogram, cu);
    if (empty) {
      doc.SetString(sub, DwAttr::kName, "");
    }
    EXPECT_EQ(ErrorOf(ExpectSame(doc)), "subprogram without a name");
  }
  {
    DwarfDocument doc;  // a nameless subprogram below an instance is fine
    uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
    uint32_t sub = doc.AddDie(DwTag::kSubprogram, cu);
    doc.SetString(sub, DwAttr::kName, "f");
    doc.AddDie(DwTag::kSubprogram, sub);
    EXPECT_TRUE(ExpectSame(doc).ok());
  }
}

TEST(DwarfDifferentialTest, NonUnitRoot) {
  DwarfDocument doc;
  uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
  doc.SetString(cu, DwAttr::kName, "a.c");
  uint32_t root = doc.AddDie(DwTag::kSubprogram, 0);
  doc.SetString(root, DwAttr::kName, "loose");
  EXPECT_EQ(ErrorOf(ExpectSame(doc)), "top-level DIE is not a compile unit");
}

TEST(DwarfDifferentialTest, StructuralErrorsReportTheFirstInStreamOrder) {
  for (bool nameless_first : {true, false}) {
    DwarfDocument doc;
    uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
    if (nameless_first) {
      doc.AddDie(DwTag::kSubprogram, cu);
      doc.AddDie(DwTag::kSubprogram, 0);
    } else {
      doc.AddDie(DwTag::kSubprogram, 0);
      uint32_t cu2 = doc.AddDie(DwTag::kCompileUnit, 0);
      doc.AddDie(DwTag::kSubprogram, cu2);
    }
    EXPECT_EQ(ErrorOf(ExpectSame(doc)), nameless_first ? "subprogram without a name"
                                                       : "top-level DIE is not a compile unit");
  }
  // A bad origin only matters once every instance is known.
  DwarfDocument doc;
  uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
  uint32_t sub = doc.AddDie(DwTag::kSubprogram, cu);
  doc.SetString(sub, DwAttr::kName, "f");
  uint32_t site = doc.AddDie(DwTag::kCallSite, sub);
  doc.SetNumber(site, DwAttr::kCallOrigin, cu);
  doc.AddDie(DwTag::kSubprogram, cu);
  EXPECT_EQ(ErrorOf(ExpectSame(doc)), "subprogram without a name");
}

TEST(DwarfDifferentialTest, OriginZeroOrNotAnInstance) {
  for (int variant = 0; variant < 4; ++variant) {
    DwarfDocument doc;
    uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
    doc.SetString(cu, DwAttr::kName, "a.c");
    uint32_t sub = doc.AddDie(DwTag::kSubprogram, cu);
    doc.SetString(sub, DwAttr::kName, "f");
    uint32_t param = doc.AddDie(DwTag::kFormalParameter, sub);
    uint32_t nested = doc.AddDie(DwTag::kSubprogram, sub);
    doc.SetString(nested, DwAttr::kName, "nested");
    uint32_t site = doc.AddDie(DwTag::kInlinedSubroutine, sub);
    uint32_t origins[] = {0, cu, param, nested};
    doc.SetNumber(site, DwAttr::kAbstractOrigin, origins[variant]);
    EXPECT_EQ(ErrorOf(ExpectSame(doc)), "call origin is not a subprogram") << variant;
  }
  DwarfDocument doc;  // a site with no origin attribute at all
  uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
  uint32_t sub = doc.AddDie(DwTag::kSubprogram, cu);
  doc.SetString(sub, DwAttr::kName, "f");
  doc.AddDie(DwTag::kCallSite, sub);
  EXPECT_EQ(ErrorOf(ExpectSame(doc)), "call origin is not a subprogram");
}

// ---- Hand-built bytes -------------------------------------------------------

std::vector<uint8_t> Uleb(std::initializer_list<uint64_t> values) {
  ByteWriter w;
  for (uint64_t v : values) {
    WriteUleb128(w, v);
  }
  return w.TakeBytes();
}

std::vector<uint8_t> Concat(std::initializer_list<std::vector<uint8_t>> parts) {
  std::vector<uint8_t> out;
  for (const auto& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

// abbrev 1: compile unit with children, name; abbrev 2: subprogram with
// children, name; abbrev 3: inlined_subroutine, abstract_origin.
std::vector<uint8_t> ThreeAbbrevs() {
  return Concat({Uleb({1, 0x11}), {1}, Uleb({0x03, 1, 0, 0}),  //
                 Uleb({2, 0x2e}), {1}, Uleb({0x03, 1, 0, 0}),  //
                 Uleb({3, 0x1d}), {0}, Uleb({0x31, 5, 0, 0}),  //
                 Uleb({0})});
}

TEST(DwarfDifferentialTest, UlebOverflow) {
  std::vector<uint8_t> overflow = {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02};
  std::vector<uint8_t> too_long(11, 0x80);
  for (const auto& bad : {overflow, too_long}) {
    // In the info stream, as an abbrev code.
    auto streamed = ExpectSame(ThreeAbbrevs(), bad);
    ASSERT_FALSE(streamed.ok());
    EXPECT_NE(streamed.error().message().find("ULEB128"), std::string::npos);
    // In the abbrev table, as a tag.
    EXPECT_FALSE(ExpectSame(Concat({Uleb({1}), bad}), {}).ok());
    // In the info stream, as a reference.
    std::vector<uint8_t> info = Concat({Uleb({1}), {'a', 0}, Uleb({2}), {'f', 0}, Uleb({3}), bad});
    EXPECT_FALSE(ExpectSame(ThreeAbbrevs(), info).ok());
  }
}

TEST(DwarfDifferentialTest, WireAndReferenceErrorsOutrankStructure) {
  // A nameless unit-level subprogram, then a reference past the last DIE.
  std::vector<uint8_t> info =
      Concat({Uleb({1}), {'a', 0}, Uleb({2}), {0}, Uleb({3, 99}), Uleb({0, 0})});
  EXPECT_EQ(ErrorOf(ExpectSame(ThreeAbbrevs(), info)), "DIE reference out of range");
  // The same, but the stream then breaks off mid-DIE.
  info.resize(info.size() - 2);
  info.push_back(2);
  EXPECT_EQ(ErrorOf(ExpectSame(ThreeAbbrevs(), info)), "unterminated string");
  // A reference to the last DIE is in range; one past it is not.
  std::vector<uint8_t> last = Concat({Uleb({1}), {'a', 0}, Uleb({2}), {'f', 0}, Uleb({3, 3}),
                                      Uleb({0, 0})});
  EXPECT_EQ(ErrorOf(ExpectSame(ThreeAbbrevs(), last)), "call origin is not a subprogram");
  last[last.size() - 3] = 4;
  EXPECT_EQ(ErrorOf(ExpectSame(ThreeAbbrevs(), last)), "DIE reference out of range");
}

TEST(DwarfDifferentialTest, ChildListErrors) {
  // A stray terminator at top level, and a list never closed.
  EXPECT_EQ(ErrorOf(ExpectSame(ThreeAbbrevs(), Uleb({0}))), "end-of-children with empty stack");
  EXPECT_EQ(ErrorOf(ExpectSame(ThreeAbbrevs(), Concat({Uleb({1}), {'a', 0}}))),
            "unterminated children list");
}

}  // namespace
}  // namespace depsurf
