#include "mem/diff.hh"

#include <cstring>

#include "mem/wide_scan.hh"
#include "util/logging.hh"

namespace dsm {

Diff
Diff::create(const std::byte *cur, const std::byte *twin, std::uint32_t len,
             NodeStats *stats, ScanKernel kernel)
{
    Diff d;
    d.areaLen = len;

    const std::uint32_t words = len / kWordBytes;

    // One up-front allocation covers the common sparse-page shape;
    // denser diffs grow geometrically from there.
    d.runs.reserve(16);
    d.payload.reserve(std::min<std::size_t>(len, 256));

    auto emit = [&](std::uint32_t firstByte, std::uint32_t lastByte) {
        DiffRun run;
        run.offset = firstByte;
        run.size = lastByte - firstByte;
        run.dataPos = static_cast<std::uint32_t>(d.payload.size());
        d.payload.insert(d.payload.end(), cur + firstByte,
                         cur + lastByte);
        d.runs.push_back(run);
    };

    // scanChangedRuns reports maximal runs of differing words.
    scanChangedRuns(cur, twin, words, kernel,
                    [&](std::uint32_t w, std::uint32_t e) {
                        emit(w * kWordBytes, e * kWordBytes);
                    });

    // Trailing bytes (objects need not be word multiples) are compared
    // as one short word and, when they differ, sent as a run of their
    // own.
    const std::uint32_t tail = words * kWordBytes;
    if (tail < len && std::memcmp(cur + tail, twin + tail, len - tail) != 0)
        emit(tail, len);

    if (stats) {
        stats->diffWordsCompared += comparedWords(len);
        stats->diffsCreated++;
    }
    return d;
}

void
Diff::apply(std::byte *dst, NodeStats *stats) const
{
    for (const auto &run : runs) {
        std::memcpy(dst + run.offset, payload.data() + run.dataPos,
                    run.size);
    }
    if (stats)
        stats->diffsApplied++;
}

std::uint64_t
Diff::wireBytes() const
{
    return kHeaderBytes + runs.size() * kRunHeaderBytes + dataBytes();
}

void
Diff::encode(WireWriter &w) const
{
    w.putU32(areaLen);
    w.putU32(static_cast<std::uint32_t>(runs.size()));
    for (const auto &run : runs) {
        w.putU32(run.offset);
        w.putU32(run.size);
        w.putBytes(payload.data() + run.dataPos, run.size);
    }
}

Diff
Diff::decode(WireReader &r)
{
    Diff d;
    d.areaLen = r.getU32();
    std::uint32_t nruns = r.getU32();
    d.runs.resize(nruns);
    for (auto &run : d.runs) {
        run.offset = r.getU32();
        run.size = r.getU32();
        run.dataPos = static_cast<std::uint32_t>(d.payload.size());
        d.payload.resize(d.payload.size() + run.size);
        r.getBytes(d.payload.data() + run.dataPos, run.size);
        DSM_ASSERT(std::uint64_t{run.offset} + run.size <= d.areaLen,
                   "diff run out of bounds");
    }
    return d;
}

} // namespace dsm
