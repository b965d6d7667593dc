/**
 * @file
 * Property tests for the comparison-scan kernels (mem/wide_scan.hh):
 * the Scalar (seed), Wide (memcmp-chunked) and Simd (AVX2/NEON with
 * runtime dispatch) kernels must return identical results for
 * findDiffWord, findSameWord and the single-pass run scan, over
 * random page/twin pairs at every alignment, odd tail lengths, and
 * densities from a single flipped bit to fully changed pages.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "mem/diff.hh"
#include "mem/wide_scan.hh"
#include "util/rng.hh"

namespace dsm {
namespace {

constexpr ScanKernel kKernels[] = {ScanKernel::Scalar, ScanKernel::Wide,
                                   ScanKernel::Simd};

struct Pair
{
    /** Over-allocated backing stores so the scan region can start at
     *  any byte offset (SIMD loads must not care about alignment). */
    std::vector<std::byte> curBuf;
    std::vector<std::byte> twinBuf;
    std::uint32_t offset = 0;
    std::uint32_t words = 0;

    const std::byte *cur() const { return curBuf.data() + offset; }
    const std::byte *twin() const { return twinBuf.data() + offset; }
};

Pair
makePair(Rng &rng, std::uint32_t words, std::uint32_t offset,
         int density_percent)
{
    Pair p;
    p.offset = offset;
    p.words = words;
    const std::size_t bytes =
        std::size_t{words} * kScanWordBytes + offset + 64;
    p.twinBuf.resize(bytes);
    for (auto &b : p.twinBuf)
        b = std::byte{static_cast<unsigned char>(rng.below(256))};
    p.curBuf = p.twinBuf;
    for (std::uint32_t w = 0; w < words; ++w) {
        if (static_cast<int>(rng.below(100)) < density_percent) {
            // Flip one byte of the word (sometimes the high one, so
            // byte-order bugs would show).
            const std::uint32_t byte =
                offset + w * kScanWordBytes +
                static_cast<std::uint32_t>(rng.below(kScanWordBytes));
            p.curBuf[byte] ^= std::byte{
                static_cast<unsigned char>(1 + rng.below(255))};
        }
    }
    return p;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
runsOf(const Pair &p, ScanKernel kernel)
{
    std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;
    scanChangedRuns(p.cur(), p.twin(), p.words, kernel,
                    [&](std::uint32_t w, std::uint32_t e) {
                        runs.emplace_back(w, e);
                    });
    return runs;
}

/** Reference: per-word memcmp, straight from the definition. */
std::vector<std::pair<std::uint32_t, std::uint32_t>>
referenceRuns(const Pair &p)
{
    std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;
    std::uint32_t w = 0;
    while (w < p.words) {
        if (!scanWordDiffers(p.cur(), p.twin(), w)) {
            ++w;
            continue;
        }
        std::uint32_t e = w;
        while (e < p.words && scanWordDiffers(p.cur(), p.twin(), e))
            ++e;
        runs.emplace_back(w, e);
        w = e;
    }
    return runs;
}

TEST(WideScan, KernelsAgreeOnRandomPairs)
{
    Rng rng(20260730);
    for (int trial = 0; trial < 60; ++trial) {
        const std::uint32_t words =
            1 + static_cast<std::uint32_t>(rng.below(1400));
        const std::uint32_t offset =
            static_cast<std::uint32_t>(rng.below(16));
        const int density = static_cast<int>(rng.below(101));
        const Pair p = makePair(rng, words, offset, density);

        const auto ref = referenceRuns(p);
        for (ScanKernel k : kKernels) {
            EXPECT_EQ(runsOf(p, k), ref)
                << "kernel " << toString(k) << " words=" << words
                << " offset=" << offset << " density=" << density;
        }

        // findDiffWord / findSameWord from a handful of random starts.
        for (int probe = 0; probe < 8; ++probe) {
            const std::uint32_t from =
                static_cast<std::uint32_t>(rng.below(p.words + 1));
            const std::uint32_t d_ref = findDiffWord(
                p.cur(), p.twin(), from, p.words, ScanKernel::Scalar);
            const std::uint32_t s_ref = findSameWord(
                p.cur(), p.twin(), from, p.words, ScanKernel::Scalar);
            for (ScanKernel k : kKernels) {
                EXPECT_EQ(findDiffWord(p.cur(), p.twin(), from, p.words,
                                       k),
                          d_ref)
                    << toString(k) << " from=" << from;
                EXPECT_EQ(findSameWord(p.cur(), p.twin(), from, p.words,
                                       k),
                          s_ref)
                    << toString(k) << " from=" << from;
            }
        }
    }
}

TEST(WideScan, EdgeShapes)
{
    Rng rng(7);
    // All-equal, all-different, single word, boundary-straddling runs
    // around every multiple of the 8-word SIMD chunk.
    for (std::uint32_t words : {1u, 2u, 7u, 8u, 9u, 31u, 32u, 33u,
                                63u, 64u, 65u, 1024u}) {
        Pair same = makePair(rng, words, 3, 0);
        Pair all = makePair(rng, words, 5, 100);
        for (ScanKernel k : kKernels) {
            EXPECT_TRUE(runsOf(same, k).empty());
            const auto runs = runsOf(all, k);
            ASSERT_EQ(runs.size(), 1u);
            EXPECT_EQ(runs[0], (std::pair<std::uint32_t,
                                          std::uint32_t>{0, words}));
        }
        // One changed word at every chunk-relative position.
        for (std::uint32_t pos : {0u, 1u, 7u, words - 1}) {
            if (pos >= words)
                continue;
            Pair p = makePair(rng, words, 1, 0);
            p.curBuf[p.offset + pos * kScanWordBytes] ^= std::byte{0x40};
            const auto ref = referenceRuns(p);
            for (ScanKernel k : kKernels)
                EXPECT_EQ(runsOf(p, k), ref) << toString(k);
        }
    }
}

TEST(WideScan, CleanSkipStrideBoundaries)
{
    // The AVX2 run scan skips clean memory 512 bytes (128 words) per
    // iteration. Single flipped words placed exactly at, just before
    // and just after every 128-word stride boundary — plus short runs
    // straddling a boundary — must come out identical to the scalar
    // walk, for region lengths around multiples of the stride (so the
    // stride loop ends at every possible remainder).
    Rng rng(512);
    for (std::uint32_t words :
         {127u, 128u, 129u, 255u, 256u, 257u, 383u, 384u, 385u, 1023u,
          1024u, 1025u, 1151u}) {
        for (std::uint32_t pos :
             {0u, 1u, 126u, 127u, 128u, 129u, 255u, 256u, 257u, 511u,
              512u, 513u, 1023u, 1024u, words - 1}) {
            if (pos >= words)
                continue;
            Pair p = makePair(rng, words, 2, 0);
            p.curBuf[p.offset + pos * kScanWordBytes + 1] ^=
                std::byte{0x11};
            const auto ref = referenceRuns(p);
            for (ScanKernel k : kKernels) {
                EXPECT_EQ(runsOf(p, k), ref)
                    << toString(k) << " words=" << words
                    << " pos=" << pos;
                EXPECT_EQ(findDiffWord(p.cur(), p.twin(), 0, words, k),
                          pos)
                    << toString(k) << " words=" << words
                    << " pos=" << pos;
            }
        }
        // A short run straddling each stride boundary inside the
        // region (clean 512-byte blocks on both sides).
        for (std::uint32_t boundary = 128; boundary + 2 <= words;
             boundary += 128) {
            Pair p = makePair(rng, words, 6, 0);
            for (std::uint32_t w = boundary - 2; w < boundary + 2; ++w)
                p.curBuf[p.offset + w * kScanWordBytes] ^=
                    std::byte{0x22};
            const auto ref = referenceRuns(p);
            ASSERT_EQ(ref.size(), 1u);
            for (ScanKernel k : kKernels) {
                EXPECT_EQ(runsOf(p, k), ref)
                    << toString(k) << " words=" << words
                    << " boundary=" << boundary;
            }
        }
    }
}

TEST(WideScan, DiffCreateIdenticalAcrossKernels)
{
    Rng rng(99);
    // Full Diff::create equality, including non-word tails, across
    // kernels — the four runtime scan sites all reduce to this
    // traversal.
    for (int trial = 0; trial < 40; ++trial) {
        const std::uint32_t len =
            1 + static_cast<std::uint32_t>(rng.below(5000));
        std::vector<std::byte> twin(len);
        for (auto &b : twin)
            b = std::byte{static_cast<unsigned char>(rng.below(256))};
        std::vector<std::byte> cur = twin;
        const int nmods = static_cast<int>(rng.below(200));
        for (int i = 0; i < nmods; ++i)
            cur[rng.below(len)] ^= std::byte{0x11};

        const Diff scalar = Diff::create(cur.data(), twin.data(), len,
                                         nullptr, ScanKernel::Scalar);
        const Diff wide = Diff::create(cur.data(), twin.data(), len,
                                       nullptr, ScanKernel::Wide);
        const Diff simd = Diff::create(cur.data(), twin.data(), len,
                                       nullptr, ScanKernel::Simd);
        EXPECT_EQ(wide, scalar);
        EXPECT_EQ(simd, scalar);

        std::vector<std::byte> dst = twin;
        simd.apply(dst.data());
        EXPECT_EQ(dst, cur);
    }
}

TEST(WideScan, DispatchReportsKernel)
{
    // bestScanKernel never hands out Scalar (the tests' reference)
    // and honours the DSM_SIMD=0 pin (the CI fallback leg).
    const ScanKernel best = bestScanKernel();
    EXPECT_NE(best, ScanKernel::Scalar);
    const char *simd_env = std::getenv("DSM_SIMD");
    if (simd_env && std::atoi(simd_env) == 0)
        EXPECT_EQ(best, ScanKernel::Wide);
    EXPECT_STREQ(toString(ScanKernel::Scalar), "scalar");
    EXPECT_STREQ(toString(ScanKernel::Wide), "wide");
    EXPECT_STREQ(toString(ScanKernel::Simd), "simd");
}

} // namespace
} // namespace dsm
