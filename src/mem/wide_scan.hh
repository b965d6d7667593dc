/**
 * @file
 * Word-granularity memory comparison scans shared by diff creation
 * (mem/diff.cc), twin-vs-copy timestamp stamping (mem/word_ts.cc),
 * home word-sum stamping (core/page_home.cc) and EC twin comparison
 * (core/ec_runtime.cc).
 *
 * The unit of comparison is the 4-byte word (the trapping resolution
 * of the paper's twinning implementations), and three kernels emit
 * byte-identical word runs:
 *
 *  - Scalar: the seed per-word memcmp loop — the tests' reference,
 *            never dispatched.
 *  - Wide:   memcmp-chunked clean skipping + 64-bit loads (PR 1).
 *  - Simd:   explicit AVX2 (x86-64) / NEON (aarch64) compares, 8 words
 *            per vector step, accelerating both clean skipping and —
 *            unlike Wide — the dense-page findSameWord walk.
 *
 * Kernel selection is a runtime decision: bestScanKernel() probes the
 * CPU once and honours one env pin — DSM_SIMD=0 selects the Wide
 * fallback — so a ctest leg can prove that tier process-wide. The
 * Simd entry points fall back to Wide internally on CPUs without the
 * required extensions, so requesting Simd is always safe. Build-side,
 * the CMake option DSM_MARCH adds architecture flags (e.g.
 * -march=native); the AVX2 kernels do not need it (they carry a target
 * attribute) but the rest of the scan code can profit from it.
 */

#ifndef DSM_MEM_WIDE_SCAN_HH
#define DSM_MEM_WIDE_SCAN_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace dsm {

/** Bytes per comparison word (twinning trap resolution). */
inline constexpr std::uint32_t kScanWordBytes = 4;

/** How the comparison scans traverse memory. All kernels emit
 *  identical word-granularity results; only the cost differs. */
enum class ScanKernel : std::uint8_t
{
    Scalar, ///< seed per-word memcmp loop (test reference)
    Wide,   ///< 64-bit loads + memcmp chunk skipping (PR 1)
    Simd,   ///< explicit AVX2/NEON kernels with runtime dispatch
};

const char *toString(ScanKernel kernel);

/** Does this CPU have the vector extension the Simd kernel wants
 *  (AVX2 on x86-64, NEON on aarch64)? */
bool cpuHasSimdScan();

/**
 * The kernel every scan site uses: Simd when the CPU supports it and
 * the environment does not veto it, Wide otherwise. DSM_SIMD=0 pins
 * Wide — the CI leg that proves the fallback. Never Scalar. Resolved
 * once per process.
 */
ScanKernel bestScanKernel();

inline std::uint64_t
loadU64(const std::byte *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

inline bool
scanWordDiffers(const std::byte *cur, const std::byte *twin,
                std::uint32_t word)
{
    return std::memcmp(cur + std::size_t{word} * kScanWordBytes,
                       twin + std::size_t{word} * kScanWordBytes,
                       kScanWordBytes) != 0;
}

// Out-of-line SIMD entry points (src/mem/wide_scan.cc). They dispatch
// on the probed CPU and fall back to the Wide/scalar walks.
std::uint32_t simdFindDiffWord(const std::byte *cur, const std::byte *twin,
                               std::uint32_t from, std::uint32_t words);
std::uint32_t simdFindSameWord(const std::byte *cur, const std::byte *twin,
                               std::uint32_t from, std::uint32_t words);

/**
 * First word index in [@p from, @p words) where @p cur and @p twin
 * differ, or @p words if none.
 */
inline std::uint32_t
findDiffWord(const std::byte *cur, const std::byte *twin,
             std::uint32_t from, std::uint32_t words, ScanKernel kernel)
{
    std::uint32_t w = from;
    if (kernel == ScanKernel::Simd)
        return simdFindDiffWord(cur, twin, from, words);
    if (kernel == ScanKernel::Wide) {
        // Dense-change fast path: at a run boundary the very next word
        // usually differs again; answer before the block loops spin up.
        if (w < words && scanWordDiffers(cur, twin, w))
            return w;
        const std::size_t limit = std::size_t{words} * kScanWordBytes;
        std::size_t byte = std::size_t{w} * kScanWordBytes;
        // Clean memory is skipped in big strides: libc memcmp runs at
        // SIMD width on 512/64-byte chunks, then the mismatching chunk
        // is narrowed with 64-bit loads and a final per-word compare.
        while (byte + 512 <= limit &&
               std::memcmp(cur + byte, twin + byte, 512) == 0) {
            byte += 512;
        }
        while (byte + 64 <= limit &&
               std::memcmp(cur + byte, twin + byte, 64) == 0) {
            byte += 64;
        }
        while (byte + 8 <= limit) {
            if (loadU64(cur + byte) != loadU64(twin + byte))
                break;
            byte += 8;
        }
        w = static_cast<std::uint32_t>(byte / kScanWordBytes);
    }
    while (w < words && !scanWordDiffers(cur, twin, w))
        ++w;
    return w;
}

/**
 * First word index in [@p from, @p words) where @p cur and @p twin
 * agree again, or @p words if the mismatch reaches the end. Scalar and
 * Wide walk word by word (mismatch runs are typically short); Simd
 * vectorizes the walk, which is where dense pages win.
 */
inline std::uint32_t
findSameWord(const std::byte *cur, const std::byte *twin,
             std::uint32_t from, std::uint32_t words, ScanKernel kernel)
{
    if (kernel == ScanKernel::Simd)
        return simdFindSameWord(cur, twin, from, words);
    std::uint32_t w = from;
    while (w < words && scanWordDiffers(cur, twin, w))
        ++w;
    return w;
}

/** Callback trampoline used by the out-of-line SIMD run scan. */
using RunEmitFn = void (*)(void *ctx, std::uint32_t first_word,
                           std::uint32_t end_word);

/** Single-pass SIMD run scan (src/mem/wide_scan.cc): emits every
 *  maximal run [first, end) of differing words, in order. */
void simdScanRuns(const std::byte *cur, const std::byte *twin,
                  std::uint32_t words, void *ctx, RunEmitFn emit);

/**
 * Walk [0, @p words) and call @p emit(first, end) for every maximal
 * run of differing words, in order. This is the shared traversal of
 * all four scan sites (diff creation, LRC-time stamping, home
 * word-sum stamping, EC twin comparison). The Simd kernel runs it in
 * one pass over the vector compare masks — one load per chunk instead
 * of a findDiffWord/findSameWord call pair per run boundary, which is
 * where dense pages win.
 */
template <typename Emit>
inline void
scanChangedRuns(const std::byte *cur, const std::byte *twin,
                std::uint32_t words, ScanKernel kernel, Emit &&emit)
{
    if (kernel == ScanKernel::Simd) {
        using EmitT = std::remove_reference_t<Emit>;
        simdScanRuns(cur, twin, words, &emit,
                     [](void *ctx, std::uint32_t w, std::uint32_t e) {
                         (*static_cast<EmitT *>(ctx))(w, e);
                     });
        return;
    }
    std::uint32_t w = findDiffWord(cur, twin, 0, words, kernel);
    while (w < words) {
        const std::uint32_t e = findSameWord(cur, twin, w, words, kernel);
        emit(w, e);
        w = findDiffWord(cur, twin, e, words, kernel);
    }
}

} // namespace dsm

#endif // DSM_MEM_WIDE_SCAN_HH
