/**
 * @file
 * Unit and property tests for the memory layer: arena, page table,
 * twins, diffs, block timestamps, dirty bitmaps, region table.
 */

#include <gtest/gtest.h>

#include "mem/diff.hh"
#include "mem/dirty_bits.hh"
#include "mem/page_table.hh"
#include "mem/region_table.hh"
#include "mem/shared_arena.hh"
#include "mem/twin_store.hh"
#include "mem/word_ts.hh"
#include "util/rng.hh"

namespace dsm {
namespace {

TEST(SharedArena, AllocAlignsAndAdvances)
{
    SharedArena arena(1 << 16, 4096);
    EXPECT_EQ(arena.alloc(10, 8), 0u);
    EXPECT_EQ(arena.alloc(4, 8), 16u);
    EXPECT_EQ(arena.alloc(1, 64), 64u);
    EXPECT_TRUE(arena.contains(0, 10));
    EXPECT_FALSE(arena.contains(64, 2));
    EXPECT_TRUE(arena.contains(64, 1));
}

TEST(SharedArena, PageMath)
{
    SharedArena arena(8192, 1024);
    EXPECT_EQ(arena.numPages(), 8u);
    EXPECT_EQ(arena.pageOf(0), 0u);
    EXPECT_EQ(arena.pageOf(1023), 0u);
    EXPECT_EQ(arena.pageOf(1024), 1u);
    EXPECT_EQ(arena.pageBase(3), 3072u);
    auto pages = arena.pagesIn(1000, 2000);
    ASSERT_EQ(pages.size(), 3u);
    EXPECT_EQ(pages[0], 0u);
    EXPECT_EQ(pages[2], 2u);
}

TEST(SharedArena, ZeroInitialized)
{
    SharedArena arena(4096, 4096);
    for (std::size_t i = 0; i < 4096; ++i)
        ASSERT_EQ(arena.at(0)[i], std::byte{0});
}

TEST(PageTable, FaultPredicates)
{
    PageTable pt(4, PageAccess::Read);
    EXPECT_FALSE(pt.readFaults(0));
    EXPECT_TRUE(pt.writeFaults(0));
    pt.setAccess(1, PageAccess::None);
    EXPECT_TRUE(pt.readFaults(1));
    EXPECT_TRUE(pt.writeFaults(1));
    pt.setAccess(2, PageAccess::ReadWrite);
    EXPECT_FALSE(pt.writeFaults(2));
    pt.setAll(PageAccess::ReadWrite);
    EXPECT_FALSE(pt.writeFaults(1));
}

TEST(TwinStore, PageLifecycle)
{
    TwinStore twins;
    std::vector<std::byte> data(64, std::byte{7});
    twins.makePage(3, data.data(), data.size());
    EXPECT_TRUE(twins.hasPage(3));
    EXPECT_FALSE(twins.hasPage(2));
    EXPECT_EQ(twins.pageTwin(3)[10], std::byte{7});
    twins.pageTwinMut(3)[10] = std::byte{9};
    EXPECT_EQ(twins.pageTwin(3)[10], std::byte{9});
    twins.dropPage(3);
    EXPECT_FALSE(twins.hasPage(3));
}

TEST(TwinStore, RangeTwins)
{
    TwinStore twins;
    twins.makeRange(5, std::vector<std::byte>(16, std::byte{1}));
    EXPECT_TRUE(twins.hasRange(5));
    EXPECT_EQ(twins.rangeTwin(5).size(), 16u);
    twins.dropRange(5);
    EXPECT_FALSE(twins.hasRange(5));
}

TEST(Diff, EmptyWhenIdentical)
{
    std::vector<std::byte> a(128, std::byte{3});
    Diff d = Diff::create(a.data(), a.data(), 128);
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(d.dataBytes(), 0u);
}

TEST(Diff, CapturesChangedRuns)
{
    std::vector<std::byte> twin(64, std::byte{0});
    std::vector<std::byte> cur = twin;
    cur[4] = std::byte{1};
    cur[5] = std::byte{2};
    cur[40] = std::byte{3};
    NodeStats stats;
    Diff d = Diff::create(cur.data(), twin.data(), 64, &stats);
    ASSERT_EQ(d.diffRuns().size(), 2u);
    EXPECT_EQ(d.diffRuns()[0].offset, 4u);
    EXPECT_EQ(d.diffRuns()[0].size, 4u); // word granularity
    EXPECT_EQ(d.diffRuns()[1].offset, 40u);
    EXPECT_EQ(stats.diffsCreated, 1u);

    std::vector<std::byte> dst = twin;
    d.apply(dst.data(), &stats);
    EXPECT_EQ(dst, cur);
    EXPECT_EQ(stats.diffsApplied, 1u);
}

TEST(Diff, HandlesUnalignedTail)
{
    std::vector<std::byte> twin(10, std::byte{0});
    std::vector<std::byte> cur = twin;
    cur[9] = std::byte{5};
    Diff d = Diff::create(cur.data(), twin.data(), 10);
    std::vector<std::byte> dst = twin;
    d.apply(dst.data());
    EXPECT_EQ(dst, cur);
}

TEST(Diff, WireRoundTrip)
{
    std::vector<std::byte> twin(256, std::byte{0});
    std::vector<std::byte> cur = twin;
    for (int i : {0, 1, 2, 3, 100, 101, 255})
        cur[i] = std::byte{static_cast<unsigned char>(i)};
    Diff d = Diff::create(cur.data(), twin.data(), 256);
    WireWriter w;
    d.encode(w);
    auto bytes = w.take();
    EXPECT_EQ(bytes.size(), d.wireBytes());
    WireReader r(bytes);
    Diff back = Diff::decode(r);
    EXPECT_EQ(back, d);
}

/** Property: create+apply reconstructs the modified buffer exactly,
 *  for random modification patterns. */
class DiffProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(DiffProperty, RoundTripRandomBuffers)
{
    Rng rng(GetParam());
    const std::uint32_t len =
        64 + static_cast<std::uint32_t>(rng.below(512));
    std::vector<std::byte> twin(len);
    for (auto &b : twin)
        b = std::byte{static_cast<unsigned char>(rng.below(256))};
    std::vector<std::byte> cur = twin;
    const int nmods = 1 + static_cast<int>(rng.below(40));
    for (int i = 0; i < nmods; ++i) {
        cur[rng.below(len)] =
            std::byte{static_cast<unsigned char>(rng.below(256))};
    }
    Diff d = Diff::create(cur.data(), twin.data(), len);
    std::vector<std::byte> dst = twin;
    d.apply(dst.data());
    EXPECT_EQ(dst, cur);

    // And over the wire.
    WireWriter w;
    d.encode(w);
    auto bytes = w.take();
    WireReader r(bytes);
    Diff back = Diff::decode(r);
    std::vector<std::byte> dst2 = twin;
    back.apply(dst2.data());
    EXPECT_EQ(dst2, cur);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffProperty,
                         ::testing::Range<std::uint64_t>(0, 24));

// ---------------------------------------------------------------------
// Equivalence and property tests for the wide (64-bit) diff scan.

/** Reference scan: straight per-word byte comparison at word
 *  granularity, the seed algorithm restated as simply as possible.
 *  Returns (offset, data) pairs. */
std::vector<std::pair<std::uint32_t, std::vector<std::byte>>>
referenceScan(const std::byte *cur, const std::byte *twin,
              std::uint32_t len)
{
    std::vector<std::pair<std::uint32_t, std::vector<std::byte>>> runs;
    const std::uint32_t words = len / 4;
    auto differs = [&](std::uint32_t w) {
        return std::memcmp(cur + w * 4, twin + w * 4, 4) != 0;
    };
    std::uint32_t w = 0;
    while (w < words) {
        if (differs(w)) {
            const std::uint32_t start = w;
            while (w < words && differs(w))
                ++w;
            runs.emplace_back(start * 4,
                              std::vector<std::byte>(cur + start * 4,
                                                     cur + w * 4));
        } else {
            ++w;
        }
    }
    const std::uint32_t tail = words * 4;
    if (tail < len && std::memcmp(cur + tail, twin + tail, len - tail)) {
        runs.emplace_back(tail,
                          std::vector<std::byte>(cur + tail, cur + len));
    }
    return runs;
}

void
expectMatchesReference(const Diff &d, const std::byte *cur,
                       const std::byte *twin, std::uint32_t len)
{
    auto ref = referenceScan(cur, twin, len);
    ASSERT_EQ(d.diffRuns().size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const DiffRun &run = d.diffRuns()[i];
        EXPECT_EQ(run.offset, ref[i].first);
        ASSERT_EQ(run.size, ref[i].second.size());
        auto data = d.runData(run);
        EXPECT_TRUE(std::equal(data.begin(), data.end(),
                               ref[i].second.begin()));
    }
}

/** Mutation patterns the scan must not mis-coalesce or miss. */
std::vector<std::byte>
adversarialMutate(std::vector<std::byte> cur, int pattern, Rng &rng)
{
    const std::uint32_t len = static_cast<std::uint32_t>(cur.size());
    auto flip = [&](std::uint32_t i) {
        cur[i] = cur[i] ^ std::byte{0xff};
    };
    switch (pattern) {
      case 0: // every other word changed (maximal run count)
        for (std::uint32_t w = 0; w * 4 + 3 < len; w += 2)
            flip(w * 4);
        break;
      case 1: // first and last byte only
        flip(0);
        flip(len - 1);
        break;
      case 2: // everything changed
        for (std::uint32_t i = 0; i < len; ++i)
            flip(i);
        break;
      case 3: // one 8-byte-aligned block boundary straddle
        if (len >= 12)
            for (std::uint32_t i = 6; i < 10; ++i)
                flip(i);
        break;
      case 4: // random scatter
        for (int i = 0; i < 25; ++i)
            flip(static_cast<std::uint32_t>(rng.below(len)));
        break;
      case 5: // tail-only change (non-word lengths)
        flip(len - 1);
        break;
      default:
        break;
    }
    return cur;
}

class DiffScanEquivalence
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(DiffScanEquivalence, WideMatchesReferenceAndNarrow)
{
    Rng rng(GetParam() * 977 + 11);
    // Lengths deliberately include non-word multiples and tiny areas.
    const std::uint32_t len =
        1 + static_cast<std::uint32_t>(rng.below(700));
    std::vector<std::byte> twin(len);
    for (auto &b : twin)
        b = std::byte{static_cast<unsigned char>(rng.below(256))};

    for (int pattern = 0; pattern <= 6; ++pattern) {
        std::vector<std::byte> cur =
            adversarialMutate(twin, pattern, rng);
        Diff wide = Diff::create(cur.data(), twin.data(), len, nullptr,
                                 ScanKernel::Wide);
        Diff narrow = Diff::create(cur.data(), twin.data(), len, nullptr,
                                   ScanKernel::Scalar);
        Diff simd = Diff::create(cur.data(), twin.data(), len, nullptr,
                                 ScanKernel::Simd);
        // Byte-identical diffs: same runs, same payload, same wire form.
        EXPECT_EQ(wide, narrow);
        EXPECT_EQ(simd, narrow);
        expectMatchesReference(wide, cur.data(), twin.data(), len);

        // And both reconstruct the modified buffer.
        std::vector<std::byte> dst = twin;
        wide.apply(dst.data());
        EXPECT_EQ(dst, cur);

        WireWriter w;
        wide.encode(w);
        auto bytes = w.take();
        EXPECT_EQ(bytes.size(), wide.wireBytes());
        WireReader r(bytes);
        EXPECT_EQ(Diff::decode(r), wide);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffScanEquivalence,
                         ::testing::Range<std::uint64_t>(0, 16));

TEST(DiffScan, EmptyDiffOnIdenticalBuffers)
{
    for (std::uint32_t len : {0u, 1u, 3u, 4u, 7u, 64u, 4096u}) {
        std::vector<std::byte> buf(len, std::byte{0x5a});
        Diff d = Diff::create(buf.data(), buf.data(), len);
        EXPECT_TRUE(d.empty());
        EXPECT_EQ(d.wireBytes(), Diff::kHeaderBytes);
        WireWriter w;
        d.encode(w);
        auto bytes = w.take();
        EXPECT_EQ(bytes.size(), d.wireBytes());
        WireReader r(bytes);
        EXPECT_EQ(Diff::decode(r), d);
    }
}

TEST(DiffScan, StatsCountTailAsOneShortWord)
{
    NodeStats stats;
    std::vector<std::byte> buf(10, std::byte{1});
    Diff::create(buf.data(), buf.data(), 10, &stats);
    EXPECT_EQ(stats.diffWordsCompared, Diff::comparedWords(10));
    EXPECT_EQ(stats.diffWordsCompared, 3u); // 2 words + 1 short tail

    stats = NodeStats{};
    Diff::create(buf.data(), buf.data(), 8, &stats);
    EXPECT_EQ(stats.diffWordsCompared, 2u); // no tail, no extra word
}

TEST(StampChangedWords, WideMatchesNarrowAndStampsExactly)
{
    Rng rng(7);
    const std::uint32_t len = 512;
    std::vector<std::byte> twin(len);
    for (auto &b : twin)
        b = std::byte{static_cast<unsigned char>(rng.below(256))};
    std::vector<std::byte> cur = twin;
    for (int i = 0; i < 30; ++i)
        cur[rng.below(len)] ^= std::byte{0x80};

    BlockTimestamps wide(len / 4);
    BlockTimestamps narrow(len / 4);
    const std::uint64_t value = packTs(3, 9);
    const std::uint64_t nw = stampChangedWords(wide, cur.data(),
                                               twin.data(), len, value,
                                               ScanKernel::Wide);
    const std::uint64_t nn = stampChangedWords(narrow, cur.data(),
                                               twin.data(), len, value,
                                               ScanKernel::Scalar);
    EXPECT_EQ(nw, nn);
    EXPECT_GT(nw, 0u);
    for (std::uint32_t w = 0; w < len / 4; ++w) {
        EXPECT_EQ(wide.get(w), narrow.get(w));
        const bool changed =
            std::memcmp(cur.data() + w * 4, twin.data() + w * 4, 4) != 0;
        EXPECT_EQ(wide.get(w) == value, changed);
    }
}

TEST(BlockTimestamps, CollectRunsByEqualValue)
{
    BlockTimestamps ts(8);
    ts.setRange(1, 3, 7);
    ts.set(4, 9);
    ts.set(6, 7);
    auto runs = ts.collect([](std::uint64_t t) { return t > 5; });
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[0], (::dsm::TsRun{1, 3, 7}));
    EXPECT_EQ(runs[1], (::dsm::TsRun{4, 1, 9}));
    EXPECT_EQ(runs[2], (::dsm::TsRun{6, 1, 7}));
}

TEST(BlockTimestamps, PackUnpack)
{
    const std::uint64_t ts = packTs(5, 1234);
    EXPECT_EQ(tsProc(ts), 5);
    EXPECT_EQ(tsInterval(ts), 1234u);
}

TEST(DirtyBitmap, MarkScanClear)
{
    DirtyBitmap dirty(8192, 1024);
    dirty.markRange(100, 8);
    dirty.markRange(2048, 4);
    EXPECT_TRUE(dirty.pageDirty(0));
    EXPECT_FALSE(dirty.pageDirty(1));
    EXPECT_TRUE(dirty.pageDirty(2));
    auto pages = dirty.dirtyPages();
    ASSERT_EQ(pages.size(), 2u);
    EXPECT_EQ(pages[0], 0u);
    EXPECT_EQ(pages[1], 2u);

    auto runs = dirty.dirtyRunsIn(0, 1024);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].start, 25u); // block 100/4
    EXPECT_EQ(runs[0].length, 2u); // bytes 100..107

    EXPECT_EQ(dirty.countDirtyIn(0, 8192), 3u);
    dirty.clearRange(0, 1024);
    EXPECT_FALSE(dirty.pageDirty(0));
    EXPECT_TRUE(dirty.pageDirty(2));
    dirty.clearAll();
    EXPECT_TRUE(dirty.dirtyPages().empty());
}

TEST(DirtyBitmap, UnalignedRangeCoversWholeWords)
{
    DirtyBitmap dirty(4096, 4096);
    dirty.markRange(6, 1); // byte 6 -> word block 1
    EXPECT_TRUE(dirty.test(1));
    EXPECT_FALSE(dirty.test(0));
    EXPECT_FALSE(dirty.test(2));
}

TEST(RegionTable, LookupAndGranularity)
{
    RegionTable regions;
    regions.add({0, 100, 4, "a"});
    regions.add({128, 64, 8, "b"});
    EXPECT_EQ(regions.find(50)->name, "a");
    EXPECT_EQ(regions.find(100), nullptr);
    EXPECT_EQ(regions.find(128)->name, "b");
    EXPECT_EQ(regions.find(191)->name, "b");
    EXPECT_EQ(regions.find(192), nullptr);
    EXPECT_EQ(regions.blockSizeAt(130), 8u);
    EXPECT_EQ(regions.blockSizeAt(10), 4u);
    EXPECT_EQ(regions.blockSizeAt(5000), 4u);
    EXPECT_EQ(regions.count(), 2u);
}

} // namespace
} // namespace dsm
