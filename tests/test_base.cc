/**
 * @file
 * Unit tests for the base utilities (bitops, units, strings, types).
 */

#include <gtest/gtest.h>

#include "base/bitops.hh"
#include "base/logging.hh"
#include "base/strutil.hh"
#include "base/types.hh"
#include "base/units.hh"

namespace
{

using namespace elisa;

TEST(Bitops, BitsExtractsInclusiveRange)
{
    EXPECT_EQ(bits(0xff00ull, 15, 8), 0xffull);
    EXPECT_EQ(bits(0xdeadbeefull, 31, 0), 0xdeadbeefull);
    EXPECT_EQ(bits(0x8000000000000000ull, 63, 63), 1ull);
    EXPECT_EQ(bits(~0ull, 63, 0), ~0ull);
}

TEST(Bitops, MaskBuildsExpectedPatterns)
{
    EXPECT_EQ(mask(3, 0), 0xfull);
    EXPECT_EQ(mask(11, 0), 0xfffull);
    EXPECT_EQ(mask(51, 12), 0x000ffffffffff000ull);
    EXPECT_EQ(mask(63, 0), ~0ull);
}

TEST(Bitops, InsertBitsReplacesOnlyTargetField)
{
    EXPECT_EQ(insertBits(0, 7, 4, 0xf), 0xf0ull);
    EXPECT_EQ(insertBits(0xffull, 7, 4, 0), 0x0full);
    // Excess field bits are discarded.
    EXPECT_EQ(insertBits(0, 3, 0, 0x123), 0x3ull);
}

TEST(Bitops, PowerOfTwoHelpers)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(4097));
    EXPECT_EQ(roundUpPow2(0), 1ull);
    EXPECT_EQ(roundUpPow2(5), 8ull);
    EXPECT_EQ(roundUpPow2(4096), 4096ull);
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(4096), 12u);
    EXPECT_EQ(log2Floor(4097), 12u);
}

TEST(Bitops, DivCeil)
{
    EXPECT_EQ(divCeil(0, 8), 0ull);
    EXPECT_EQ(divCeil(1, 8), 1ull);
    EXPECT_EQ(divCeil(8, 8), 1ull);
    EXPECT_EQ(divCeil(9, 8), 2ull);
}

TEST(Types, PageAlignment)
{
    EXPECT_EQ(pageAlignDown(0x1234), 0x1000ull);
    EXPECT_EQ(pageAlignUp(0x1234), 0x2000ull);
    EXPECT_EQ(pageAlignUp(0x1000), 0x1000ull);
    EXPECT_TRUE(isPageAligned(0));
    EXPECT_TRUE(isPageAligned(0x3000));
    EXPECT_FALSE(isPageAligned(0x3008));
}

TEST(Units, LiteralsAndConstants)
{
    using namespace elisa::literals;
    EXPECT_EQ(4_KiB, 4096ull);
    EXPECT_EQ(2_MiB, 2ull * 1024 * 1024);
    EXPECT_EQ(1_GiB, 1024ull * 1024 * 1024);
    EXPECT_EQ(3_us, 3000ull);
    EXPECT_EQ(1_sec, 1000000000ull);
}

TEST(Strutil, HumanBytes)
{
    EXPECT_EQ(humanBytes(512), "512 B");
    EXPECT_EQ(humanBytes(4096), "4 KiB");
    EXPECT_EQ(humanBytes(3 * MiB), "3 MiB");
    EXPECT_EQ(humanBytes(2 * GiB), "2 GiB");
}

TEST(Strutil, HumanNs)
{
    EXPECT_EQ(humanNs(196), "196.0 ns");
    EXPECT_EQ(humanNs(1500), "1.50 us");
    EXPECT_EQ(humanNs(2.5e6), "2.50 ms");
    EXPECT_EQ(humanNs(3e9), "3.00 s");
}

TEST(Strutil, HumanRate)
{
    EXPECT_EQ(humanRate(3.51e6), "3.51 Mops/s");
    EXPECT_EQ(humanRate(820, "pps"), "820.00 pps");
    EXPECT_EQ(humanRate(14.2e6, "pps"), "14.20 Mpps");
}

TEST(Strutil, TextTableAlignsColumns)
{
    TextTable t;
    t.header({"scheme", "ns"});
    t.row({"ELISA", "196"});
    t.row({"VMCALL", "699"});
    const std::string out = t.render();
    EXPECT_NE(out.find("scheme"), std::string::npos);
    EXPECT_NE(out.find("ELISA"), std::string::npos);
    EXPECT_NE(out.find("699"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Strutil, RenderCsvQuotesSpecialCells)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"plain", "1"});
    t.row({"with,comma", "2"});
    t.row({"with\"quote", "3"});
    const std::string csv = t.renderCsv();
    EXPECT_NE(csv.find("name,value\n"), std::string::npos);
    EXPECT_NE(csv.find("plain,1\n"), std::string::npos);
    EXPECT_NE(csv.find("\"with,comma\",2\n"), std::string::npos);
    EXPECT_NE(csv.find("\"with\"\"quote\",3\n"), std::string::npos);
}

TEST(Logging, FormatProducesPrintfSemantics)
{
    EXPECT_EQ(detail::format("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(detail::format("%llx", 0xffull), "ff");
    EXPECT_EQ(detail::format("none"), "none");
}

} // namespace
