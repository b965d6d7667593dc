/**
 * @file
 * Explicit SIMD comparison kernels behind the ScanKernel::Simd entry
 * points. x86-64 gets AVX2 kernels compiled with a target attribute
 * (no global -march needed) and selected once via cpuid; aarch64 gets
 * NEON, which is baseline. Everything else resolves to the Wide
 * memcmp-chunked walk, so requesting Simd is safe on any CPU.
 *
 * Both kernels operate on 4-byte comparison words and return exactly
 * what the scalar loops return, for any alignment and any tail length
 * (the word count excludes the non-word tail, which the callers
 * compare separately, same as the scalar paths).
 */

#include "mem/wide_scan.hh"

#include <cstdlib>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DSM_SCAN_X86_64 1
#include <immintrin.h>
#endif

#if defined(__aarch64__)
#define DSM_SCAN_NEON 1
#include <arm_neon.h>
#endif

namespace dsm {

const char *
toString(ScanKernel kernel)
{
    switch (kernel) {
      case ScanKernel::Scalar:
        return "scalar";
      case ScanKernel::Wide:
        return "wide";
      case ScanKernel::Simd:
        return "simd";
    }
    return "?";
}

namespace {

/** Finish any remainder with the per-word walk. */
std::uint32_t
scalarDiffTail(const std::byte *cur, const std::byte *twin,
               std::uint32_t w, std::uint32_t words)
{
    while (w < words && !scanWordDiffers(cur, twin, w))
        ++w;
    return w;
}

std::uint32_t
scalarSameTail(const std::byte *cur, const std::byte *twin,
               std::uint32_t w, std::uint32_t words)
{
    while (w < words && scanWordDiffers(cur, twin, w))
        ++w;
    return w;
}

/** Open-run coalescer shared by the SIMD run scans: per-chunk runs
 *  that touch merge, gaps emit the pending run. */
struct RunJoiner
{
    void *ctx;
    RunEmitFn emit;
    bool open = false;
    std::uint32_t start = 0;
    std::uint32_t end = 0;

    void
    handle(std::uint32_t a, std::uint32_t b)
    {
        if (open && a == end) {
            end = b;
            return;
        }
        if (open)
            emit(ctx, start, end);
        open = true;
        start = a;
        end = b;
    }

    void
    finish()
    {
        if (open)
            emit(ctx, start, end);
    }
};

#if DSM_SCAN_X86_64

/**
 * Reduce a 32-bit byte-inequality mask (bit i set = byte i differs)
 * to the offset of the first differing 4-byte word, bits 4j..4j+3
 * belonging to word j.
 */
inline std::uint32_t
firstDiffWordInMask(std::uint32_t neq)
{
    std::uint32_t m = neq | (neq >> 1);
    m |= m >> 2;
    m &= 0x11111111u;
    return static_cast<std::uint32_t>(__builtin_ctz(m)) >> 2;
}

/** Offset of the first word whose 4 equality bits are all set. */
inline std::uint32_t
firstSameWordInMask(std::uint32_t eq)
{
    std::uint32_t m = eq & (eq >> 1);
    m &= m >> 2;
    m &= 0x11111111u;
    return m ? (static_cast<std::uint32_t>(__builtin_ctz(m)) >> 2) : 8;
}

/** Are the 512 bytes at word offset @p w identical? One AND-tree over
 *  16 vector compares, a single movemask test — the clean-page stride
 *  that matches libc memcmp's largest-chunk walk. */
__attribute__((target("avx2"))) inline bool
avx2Clean512(const std::byte *cur, const std::byte *twin, std::uint32_t w)
{
    const std::byte *a = cur + std::size_t{w} * kScanWordBytes;
    const std::byte *b = twin + std::size_t{w} * kScanWordBytes;
    __m256i acc = _mm256_set1_epi8(-1);
    for (int k = 0; k < 16; ++k) {
        acc = _mm256_and_si256(
            acc, _mm256_cmpeq_epi8(
                     _mm256_loadu_si256(
                         reinterpret_cast<const __m256i *>(a + 32 * k)),
                     _mm256_loadu_si256(
                         reinterpret_cast<const __m256i *>(b + 32 *
                                                           k))));
    }
    return _mm256_movemask_epi8(acc) == -1;
}

/** Byte-equality movemasks of the four 8-word vectors of one 32-word
 *  block; returns true when any byte differs (callers extract runs
 *  from @p eqm with scalar bit ops only). */
__attribute__((target("avx2"))) inline bool
avx2Masks32(const std::byte *cur, const std::byte *twin, std::uint32_t at,
            std::uint32_t eqm[4])
{
    const std::byte *a = cur + std::size_t{at} * kScanWordBytes;
    const std::byte *b = twin + std::size_t{at} * kScanWordBytes;
    for (int k = 0; k < 4; ++k) {
        eqm[k] = static_cast<std::uint32_t>(_mm256_movemask_epi8(
            _mm256_cmpeq_epi8(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(a + 32 * k)),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(b + 32 * k)))));
    }
    return (eqm[0] & eqm[1] & eqm[2] & eqm[3]) != 0xffffffffu;
}

__attribute__((target("avx2"))) std::uint32_t
avx2FindDiffWord(const std::byte *cur, const std::byte *twin,
                 std::uint32_t from, std::uint32_t words)
{
    std::uint32_t w = from;
    // Dense-change fast path (run boundaries usually differ at once).
    if (w < words && scanWordDiffers(cur, twin, w))
        return w;
    // Clean skipping, largest stride first: 128 words (512 bytes) per
    // iteration while memory stays identical — the stride libc memcmp
    // uses on a fully clean page — then 32 words to localize, then
    // the mismatching 8-word vector.
    while (w + 128 <= words && avx2Clean512(cur, twin, w))
        w += 128;
    while (w + 32 <= words) {
        const std::byte *a = cur + std::size_t{w} * kScanWordBytes;
        const std::byte *b = twin + std::size_t{w} * kScanWordBytes;
        __m256i eq0 = _mm256_cmpeq_epi8(
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(b)));
        __m256i eq1 = _mm256_cmpeq_epi8(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + 32)),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b + 32)));
        __m256i eq2 = _mm256_cmpeq_epi8(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + 64)),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b + 64)));
        __m256i eq3 = _mm256_cmpeq_epi8(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + 96)),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b + 96)));
        const __m256i all =
            _mm256_and_si256(_mm256_and_si256(eq0, eq1),
                             _mm256_and_si256(eq2, eq3));
        if (_mm256_movemask_epi8(all) != -1) {
            const __m256i eqs[4] = {eq0, eq1, eq2, eq3};
            for (int k = 0; k < 4; ++k) {
                const std::uint32_t mask = static_cast<std::uint32_t>(
                    _mm256_movemask_epi8(eqs[k]));
                if (mask != 0xffffffffu)
                    return w + 8 * k + firstDiffWordInMask(~mask);
            }
        }
        w += 32;
    }
    while (w + 8 <= words) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(
                cur + std::size_t{w} * kScanWordBytes));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(
                twin + std::size_t{w} * kScanWordBytes));
        const std::uint32_t mask = static_cast<std::uint32_t>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)));
        if (mask != 0xffffffffu)
            return w + firstDiffWordInMask(~mask);
        w += 8;
    }
    return scalarDiffTail(cur, twin, w, words);
}

__attribute__((target("avx2"))) std::uint32_t
avx2FindSameWord(const std::byte *cur, const std::byte *twin,
                 std::uint32_t from, std::uint32_t words)
{
    std::uint32_t w = from;
    while (w + 8 <= words) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(
                cur + std::size_t{w} * kScanWordBytes));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(
                twin + std::size_t{w} * kScanWordBytes));
        const std::uint32_t mask = static_cast<std::uint32_t>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)));
        const std::uint32_t hit = firstSameWordInMask(mask);
        if (hit < 8)
            return w + hit;
        w += 8;
    }
    return scalarSameTail(cur, twin, w, words);
}

/**
 * One pass over the page: per 8-word chunk, turn the byte-equality
 * movemask into a nibble-per-word diff mask and extract the runs with
 * bit scans, carrying an open run across chunk boundaries. Clean
 * chunks cost one load pair + compare; dense chunks cost a few bit
 * operations per run — no per-boundary re-scan like the
 * findDiffWord/findSameWord pairing.
 */
__attribute__((target("avx2"))) void
avx2ScanRuns(const std::byte *cur, const std::byte *twin,
             std::uint32_t words, void *ctx, RunEmitFn emit)
{
    std::uint32_t w = 0;
    RunJoiner joiner{ctx, emit};
    auto handle = [&](std::uint32_t a, std::uint32_t b) {
        joiner.handle(a, b);
    };

    // Extract the runs of one 8-word chunk from its byte-equality
    // movemask (nibble per word), carrying the open-run state.
    auto process = [&](std::uint32_t eq, std::uint32_t base) {
        if (eq == 0xffffffffu)
            return;
        std::uint32_t neq = ~eq;
        std::uint32_t wm = neq | (neq >> 1);
        wm |= wm >> 2;
        wm &= 0x11111111u;
        while (wm) {
            const std::uint32_t s =
                static_cast<std::uint32_t>(__builtin_ctz(wm)) >> 2;
            const std::uint32_t t = wm >> (4 * s);
            const std::uint32_t nz = ~t & 0x11111111u;
            const std::uint32_t run =
                nz ? (static_cast<std::uint32_t>(__builtin_ctz(nz)) >> 2)
                   : (8 - s);
            handle(base + s, base + s + run);
            if (s + run >= 8)
                break;
            wm &= ~0u << (4 * (s + run));
        }
    };

    // One 32-word (128-byte) block: compare, and only blocks with a
    // mismatch somewhere pay per-chunk extraction. (The vector work
    // lives in avx2Masks32 — a lambda would not inherit this
    // function's target attribute.)
    auto block32 = [&](std::uint32_t at) {
        std::uint32_t eqm[4];
        if (avx2Masks32(cur, twin, at, eqm)) {
            for (int k = 0; k < 4; ++k)
                process(eqm[k], at + 8 * k);
        }
    };

    // Clean memory is skipped 128 words (512 bytes) per iteration —
    // the stride that matches libc memcmp on a fully clean page; a
    // 512-byte block with a mismatch somewhere re-scans its four
    // 32-word sub-blocks through the extraction path.
    while (w + 128 <= words) {
        if (!avx2Clean512(cur, twin, w)) {
            for (int k = 0; k < 4; ++k)
                block32(w + 32 * k);
        }
        w += 128;
    }
    while (w + 32 <= words) {
        block32(w);
        w += 32;
    }
    while (w + 8 <= words) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(
                cur + std::size_t{w} * kScanWordBytes));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(
                twin + std::size_t{w} * kScanWordBytes));
        process(static_cast<std::uint32_t>(_mm256_movemask_epi8(
                    _mm256_cmpeq_epi8(va, vb))),
                w);
        w += 8;
    }
    // Scalar tail, continuing the same open-run state.
    for (; w < words; ++w) {
        if (scanWordDiffers(cur, twin, w))
            handle(w, w + 1);
    }
    joiner.finish();
}

bool
x86HasAvx2()
{
    return __builtin_cpu_supports("avx2") != 0;
}

#endif // DSM_SCAN_X86_64

#if DSM_SCAN_NEON

std::uint32_t
neonFindDiffWord(const std::byte *cur, const std::byte *twin,
                 std::uint32_t from, std::uint32_t words)
{
    std::uint32_t w = from;
    if (w < words && scanWordDiffers(cur, twin, w))
        return w;
    while (w + 8 <= words) {
        const std::uint8_t *a = reinterpret_cast<const std::uint8_t *>(
            cur + std::size_t{w} * kScanWordBytes);
        const std::uint8_t *b = reinterpret_cast<const std::uint8_t *>(
            twin + std::size_t{w} * kScanWordBytes);
        const uint32x4_t eq0 =
            vceqq_u32(vreinterpretq_u32_u8(vld1q_u8(a)),
                      vreinterpretq_u32_u8(vld1q_u8(b)));
        const uint32x4_t eq1 =
            vceqq_u32(vreinterpretq_u32_u8(vld1q_u8(a + 16)),
                      vreinterpretq_u32_u8(vld1q_u8(b + 16)));
        if (vminvq_u32(vandq_u32(eq0, eq1)) != 0xffffffffu) {
            for (int k = 0; k < 8; ++k) {
                if (scanWordDiffers(cur, twin, w + k))
                    return w + k;
            }
        }
        w += 8;
    }
    return scalarDiffTail(cur, twin, w, words);
}

std::uint32_t
neonFindSameWord(const std::byte *cur, const std::byte *twin,
                 std::uint32_t from, std::uint32_t words)
{
    std::uint32_t w = from;
    while (w + 4 <= words) {
        const std::uint8_t *a = reinterpret_cast<const std::uint8_t *>(
            cur + std::size_t{w} * kScanWordBytes);
        const std::uint8_t *b = reinterpret_cast<const std::uint8_t *>(
            twin + std::size_t{w} * kScanWordBytes);
        const uint32x4_t eq =
            vceqq_u32(vreinterpretq_u32_u8(vld1q_u8(a)),
                      vreinterpretq_u32_u8(vld1q_u8(b)));
        if (vmaxvq_u32(eq) == 0xffffffffu) {
            for (int k = 0; k < 4; ++k) {
                if (!scanWordDiffers(cur, twin, w + k))
                    return w + k;
            }
        }
        w += 4;
    }
    return scalarSameTail(cur, twin, w, words);
}

/** NEON run scan: vector compare per 4-word chunk, scalar run
 *  bookkeeping inside mixed chunks. */
void
neonScanRuns(const std::byte *cur, const std::byte *twin,
             std::uint32_t words, void *ctx, RunEmitFn emit)
{
    std::uint32_t w = 0;
    RunJoiner joiner{ctx, emit};
    auto handle = [&](std::uint32_t a, std::uint32_t b) {
        joiner.handle(a, b);
    };

    while (w + 4 <= words) {
        const std::uint8_t *a = reinterpret_cast<const std::uint8_t *>(
            cur + std::size_t{w} * kScanWordBytes);
        const std::uint8_t *b = reinterpret_cast<const std::uint8_t *>(
            twin + std::size_t{w} * kScanWordBytes);
        const uint32x4_t eq =
            vceqq_u32(vreinterpretq_u32_u8(vld1q_u8(a)),
                      vreinterpretq_u32_u8(vld1q_u8(b)));
        if (vminvq_u32(eq) != 0xffffffffu) {
            for (int k = 0; k < 4; ++k) {
                if (scanWordDiffers(cur, twin, w + k))
                    handle(w + k, w + k + 1);
            }
        }
        w += 4;
    }
    for (; w < words; ++w) {
        if (scanWordDiffers(cur, twin, w))
            handle(w, w + 1);
    }
    joiner.finish();
}

#endif // DSM_SCAN_NEON

using ScanFn = std::uint32_t (*)(const std::byte *, const std::byte *,
                                 std::uint32_t, std::uint32_t);
using RunsFn = void (*)(const std::byte *, const std::byte *,
                        std::uint32_t, void *, RunEmitFn);

/** Wide walks used when the CPU lacks the vector extension. */
std::uint32_t
fallbackFindDiffWord(const std::byte *cur, const std::byte *twin,
                     std::uint32_t from, std::uint32_t words)
{
    return findDiffWord(cur, twin, from, words, ScanKernel::Wide);
}

std::uint32_t
fallbackFindSameWord(const std::byte *cur, const std::byte *twin,
                     std::uint32_t from, std::uint32_t words)
{
    return findSameWord(cur, twin, from, words, ScanKernel::Wide);
}

void
fallbackScanRuns(const std::byte *cur, const std::byte *twin,
                 std::uint32_t words, void *ctx, RunEmitFn emit)
{
    scanChangedRuns(cur, twin, words, ScanKernel::Wide,
                    [&](std::uint32_t w, std::uint32_t e) {
                        emit(ctx, w, e);
                    });
}

struct SimdDispatch
{
    ScanFn diff = fallbackFindDiffWord;
    ScanFn same = fallbackFindSameWord;
    RunsFn runs = fallbackScanRuns;
    bool native = false;

    SimdDispatch()
    {
#if DSM_SCAN_X86_64
        if (x86HasAvx2()) {
            diff = avx2FindDiffWord;
            same = avx2FindSameWord;
            runs = avx2ScanRuns;
            native = true;
        }
#elif DSM_SCAN_NEON
        diff = neonFindDiffWord;
        same = neonFindSameWord;
        runs = neonScanRuns;
        native = true;
#endif
    }
};

const SimdDispatch &
dispatch()
{
    static const SimdDispatch d;
    return d;
}

} // namespace

bool
cpuHasSimdScan()
{
    return dispatch().native;
}

ScanKernel
bestScanKernel()
{
    static const ScanKernel kBest = [] {
        // DSM_SIMD=0 pins the wide memcmp fallback process-wide — the
        // CI leg that proves that tier under the full test suite.
        if (const char *v = std::getenv("DSM_SIMD");
            v && std::atoi(v) == 0) {
            return ScanKernel::Wide;
        }
        return cpuHasSimdScan() ? ScanKernel::Simd : ScanKernel::Wide;
    }();
    return kBest;
}

std::uint32_t
simdFindDiffWord(const std::byte *cur, const std::byte *twin,
                 std::uint32_t from, std::uint32_t words)
{
    return dispatch().diff(cur, twin, from, words);
}

std::uint32_t
simdFindSameWord(const std::byte *cur, const std::byte *twin,
                 std::uint32_t from, std::uint32_t words)
{
    return dispatch().same(cur, twin, from, words);
}

void
simdScanRuns(const std::byte *cur, const std::byte *twin,
             std::uint32_t words, void *ctx, RunEmitFn emit)
{
    dispatch().runs(cur, twin, words, ctx, emit);
}

} // namespace dsm
