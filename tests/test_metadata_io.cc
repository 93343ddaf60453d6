/**
 * @file
 * Tests for the metadata text format: parsing the shipped
 * designs/vscale.meta, round-tripping through print/parse,
 * diagnostics for malformed files, and the check of its names
 * against an elaborated design.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "rtl2uspec/metadata_io.hh"
#include "rtl2uspec/synthesis.hh"
#include "vscale/metadata.hh"
#include "vscale/vscale.hh"

using namespace r2u;
using namespace r2u::rtl2uspec;

TEST(MetadataIo, LoadsShippedVscaleMeta)
{
    DesignMetadata md =
        loadMetadata(std::string(R2U_DESIGN_DIR) + "/vscale.meta");
    ASSERT_EQ(md.cores.size(), 4u);
    EXPECT_EQ(md.cores[0].ifr, "core_0.inst_DX");
    EXPECT_EQ(md.cores[3].imPc, "core_3.PC_IF");
    ASSERT_EQ(md.cores[0].pcrs.size(), 2u);
    EXPECT_EQ(md.cores[0].pcrs[1], "core_0.PC_WB");
    ASSERT_EQ(md.instrs.size(), 2u);
    EXPECT_EQ(md.instrs[0].name, "sw"); // id 0, as in the artifact
    EXPECT_TRUE(md.instrs[0].isWrite);
    EXPECT_EQ(md.instrs[1].match, 0x2003u);
    EXPECT_EQ(md.remote.memName, "dmem.mem");
    EXPECT_EQ(md.remote.pipelineRegs.size(), 5u);
    EXPECT_TRUE(md.exclude.count("arbiter.rr_ptr"));
    EXPECT_EQ(md.bound, 14u);
}

TEST(MetadataIo, MatchesProgrammaticFactory)
{
    DesignMetadata file =
        loadMetadata(std::string(R2U_DESIGN_DIR) + "/vscale.meta");
    DesignMetadata code =
        vscale::vscaleMetadata(vscale::Config::formal());
    EXPECT_EQ(printMetadata(file), printMetadata(code));
}

TEST(MetadataIo, RoundTrips)
{
    DesignMetadata md =
        loadMetadata(std::string(R2U_DESIGN_DIR) + "/vscale.meta");
    md.relaxPairs = false;
    md.mergeNodes = false;
    md.conflictBudget = 5000;
    std::string text = printMetadata(md);
    DesignMetadata again = parseMetadata(text);
    EXPECT_EQ(printMetadata(again), text);
    EXPECT_FALSE(again.relaxPairs);
    EXPECT_FALSE(again.mergeNodes);
    EXPECT_EQ(again.conflictBudget, 5000);
}

TEST(MetadataIo, Diagnostics)
{
    EXPECT_THROW(parseMetadata("nonsense directive"), FatalError);
    EXPECT_THROW(parseMetadata("core prefix=c."), FatalError);
    EXPECT_THROW(parseMetadata("instr name=x mask=zz match=0 "
                               "kind=read\ncore prefix=c. ifr=i "
                               "im_pc=p pcrs=a req_en=e req_wen=w"),
                 FatalError);
    EXPECT_THROW(parseMetadata(""), FatalError); // no cores
    // Duplicate keys rejected.
    EXPECT_THROW(
        parseMetadata("core prefix=a. prefix=b. ifr=i im_pc=p "
                      "pcrs=x req_en=e req_wen=w"),
        FatalError);
    // kind must be read/write/other.
    EXPECT_THROW(
        parseMetadata("core prefix=a. ifr=i im_pc=p pcrs=x req_en=e "
                      "req_wen=w\ninstr name=x mask=0 match=0 "
                      "kind=banana"),
        FatalError);
}

// Numbers parse as whole tokens (decimal or 0x hex) and must fit their
// field; anything else is a FatalError diagnostic.
TEST(MetadataIo, MalformedNumbersAreDiagnosed)
{
    const std::string core = "core prefix=c. ifr=c.i im_pc=c.p "
                             "pcrs=c.q req_en=c.e req_wen=c.w\n";
    const std::string instr = "instr name=ld mask=0x7f match=0x03 "
                              "kind=read\n";
    // The well-formed baseline parses, hex included.
    DesignMetadata md =
        parseMetadata(core + instr + "bound 0x10\nissue_by 3\n");
    EXPECT_EQ(md.bound, 16u);
    EXPECT_EQ(md.instrs[0].mask, 0x7fu);
    for (const char *bad :
         {"bound zz", "bound 14q", "bound 0x1ffffffff", "bound -1",
          "bound 0", "bound", "bound 4 5", "issue_by 0x5g",
          "issue_by 99999999999999999999", "conflict_budget 5k",
          "conflict_budget 99999999999999999999",
          "conflict_budget"}) {
        EXPECT_THROW(parseMetadata(core + instr + bad), FatalError)
            << bad;
    }
    for (const char *bad :
         {"instr name=x mask=0x7fq match=0 kind=read",
          "instr name=x mask=0 match=99999999999999999999 kind=read",
          "instr name=x mask=0x100000000 match=0 kind=read",
          "instr name=x mask=0 match=12abc kind=read"}) {
        EXPECT_THROW(parseMetadata(core + bad), FatalError) << bad;
    }
}

TEST(MetadataIo, CommentsAndBlankLines)
{
    DesignMetadata md = parseMetadata(R"(
# a comment
core prefix=c. ifr=c.i im_pc=c.p pcrs=c.q req_en=c.e req_wen=c.w

instr name=ld mask=0x7f match=0x03 kind=read   # trailing comment
)");
    EXPECT_EQ(md.cores.size(), 1u);
    EXPECT_EQ(md.instrs[0].name, "ld");
}

// Every name the metadata carries must exist in the design; the first
// one that does not is named in the diagnostic.
TEST(MetadataIo, NamesAreCheckedAgainstTheDesign)
{
    vscale::Config cfg = vscale::Config::formal();
    cfg.imemWords = 16;
    auto design = vscale::elaborateVscale(cfg);
    DesignMetadata md =
        loadMetadata(std::string(R2U_DESIGN_DIR) + "/vscale.meta");
    EXPECT_EQ(metadataSignalError(md, design), "");

    DesignMetadata bad = md;
    bad.cores[2].pcrs[1] = "core_2.no_such_pc";
    std::string err = metadataSignalError(bad, design);
    EXPECT_NE(err.find("core 2 pcrs"), std::string::npos) << err;
    EXPECT_NE(err.find("'core_2.no_such_pc'"), std::string::npos) << err;

    bad = md;
    bad.remote.pipelineRegs.back() = "dmem.no_such_q";
    err = metadataSignalError(bad, design);
    EXPECT_NE(err.find("'dmem.no_such_q'"), std::string::npos) << err;

    // Synthesis indexes the memory table with the remote memory, so a
    // missing one must be rejected before any query is built.
    bad = md;
    bad.remote.memName = "dmem.no_such_mem";
    err = metadataSignalError(bad, design);
    EXPECT_NE(err.find("'dmem.no_such_mem'"), std::string::npos) << err;
    EXPECT_THROW(rtl2uspec::synthesize(design, bad), FatalError);
}
