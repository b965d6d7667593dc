/**
 * @file
 * Diffs: run-length encodings of the changes to a shared data object
 * (EC) or page (LRC) — Section 5.2 of the paper. A diff is created by
 * comparing the current copy against the twin at word granularity and
 * applied by splatting its runs onto a destination copy.
 */

#ifndef DSM_MEM_DIFF_HH
#define DSM_MEM_DIFF_HH

#include <cstdint>
#include <span>
#include <vector>

#include "mem/wide_scan.hh"
#include "net/serde.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace dsm {

/**
 * One run of changed bytes: @p size bytes at @p offset within the
 * diffed area. The bytes themselves live at @p dataPos in the diff's
 * shared payload buffer (see Diff::runData) — keeping run descriptors
 * POD means creating a diff with many runs costs one payload
 * allocation, not one per run.
 */
struct DiffRun
{
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t dataPos = 0;

    bool operator==(const DiffRun &other) const = default;
};

class Diff
{
  public:
    Diff() = default;

    // One shared wire layout: encode(), decode() and wireBytes() all
    // derive from these constants.
    static constexpr std::uint32_t kWordBytes = 4;
    /** 4 (area length) + 4 (run count). */
    static constexpr std::uint64_t kHeaderBytes = 8;
    /** Per run: 4 (offset) + 4 (size). */
    static constexpr std::uint64_t kRunHeaderBytes = 8;

    /** Words a scan of @p len bytes compares; the trailing non-word
     *  tail (1-3 bytes) counts as one short word. */
    static constexpr std::uint64_t
    comparedWords(std::uint32_t len)
    {
        return (std::uint64_t{len} + kWordBytes - 1) / kWordBytes;
    }

    /**
     * Build a diff of @p len bytes by comparing @p cur against
     * @p twin word by word (4-byte granularity, as in the paper's
     * twinning implementations; trailing bytes are compared as one
     * short word).
     *
     * Runs are word-exact: a run covers only words that differ from
     * the twin, so applying a diff leaves every other word alone.
     *
     * @param stats If non-null, diffWordsCompared/diffsCreated are
     *        recorded there.
     * @param kernel Comparison kernel (mem/wide_scan.hh); every kernel
     *        emits identical runs.
     */
    static Diff create(const std::byte *cur, const std::byte *twin,
                       std::uint32_t len, NodeStats *stats = nullptr,
                       ScanKernel kernel = bestScanKernel());

    /** Copy every run onto @p dst (an area of at least length()). */
    void apply(std::byte *dst, NodeStats *stats = nullptr) const;

    bool empty() const { return runs.empty(); }

    /** Length of the area this diff describes. */
    std::uint32_t length() const { return areaLen; }

    const std::vector<DiffRun> &diffRuns() const { return runs; }

    /** Payload bytes of @p run. */
    std::span<const std::byte>
    runData(const DiffRun &run) const
    {
        return {payload.data() + run.dataPos, run.size};
    }

    /** Total payload bytes carried by the runs. */
    std::uint64_t dataBytes() const { return payload.size(); }

    /** Modeled wire footprint (runs + offsets + header). */
    std::uint64_t wireBytes() const;

    void encode(WireWriter &w) const;
    static Diff decode(WireReader &r);

    bool operator==(const Diff &other) const = default;

  private:
    std::uint32_t areaLen = 0;
    std::vector<DiffRun> runs;
    std::vector<std::byte> payload; ///< concatenated run bytes
};

} // namespace dsm

#endif // DSM_MEM_DIFF_HH
