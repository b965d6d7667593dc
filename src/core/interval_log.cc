#include "core/interval_log.hh"

#include <algorithm>

#include "util/logging.hh"

namespace dsm {

const IntervalRec &
IntervalLog::add(IntervalRec rec, bool *was_new)
{
    ProcLog &pl = procs[rec.proc];
    const std::uint32_t last = lastIdxOf(rec.proc);
    if (was_new)
        *was_new = rec.idx > last;
    if (rec.idx <= last) {
        // Already known (interval indices are dense per processor) —
        // unless GC pruned it, in which case no peer should still be
        // sending it: pruning requires every node to have applied it.
        DSM_ASSERT(rec.idx > pl.base,
                   "record %d:%u resent after garbage collection "
                   "(base %u)",
                   rec.proc, rec.idx, pl.base);
        return pl.recs[rec.idx - pl.base - 1];
    }
    DSM_ASSERT(rec.idx == last + 1,
               "gap in interval log of proc %d: have %u, got %u",
               rec.proc, last, rec.idx);
    pl.recs.push_back(std::move(rec));
    return pl.recs.back();
}

const IntervalRec *
IntervalLog::find(NodeId proc, std::uint32_t idx) const
{
    const ProcLog &pl = procs[proc];
    if (idx <= pl.base || idx > lastIdxOf(proc))
        return nullptr;
    return &pl.recs[idx - pl.base - 1];
}

std::vector<const IntervalRec *>
IntervalLog::recordsAfter(const VectorTime &since,
                          const VectorTime *up_to) const
{
    std::vector<const IntervalRec *> out;
    for (int p = 0; p < nprocs(); ++p) {
        const ProcLog &pl = procs[p];
        // A requester behind the GC floor would need pruned records;
        // the barrier protocol guarantees this cannot happen (pruning
        // waits until every node has applied and covered them).
        DSM_ASSERT(since[p] >= pl.base,
                   "proc %d asks for records after %u below GC base %u",
                   p, since[p], pl.base);
        std::uint32_t end = lastIdxOf(p);
        if (up_to)
            end = std::min(end, (*up_to)[p]);
        for (std::uint32_t idx = since[p] + 1; idx <= end; ++idx)
            out.push_back(&pl.recs[idx - pl.base - 1]);
    }
    return out;
}

std::vector<const IntervalRec *>
IntervalLog::recordsOfAfter(NodeId proc, std::uint32_t since_idx) const
{
    const ProcLog &pl = procs[proc];
    DSM_ASSERT(since_idx >= pl.base,
               "records of proc %d after %u below GC base %u", proc,
               since_idx, pl.base);
    std::vector<const IntervalRec *> out;
    const std::uint32_t end = lastIdxOf(proc);
    for (std::uint32_t idx = since_idx + 1; idx <= end; ++idx)
        out.push_back(&pl.recs[idx - pl.base - 1]);
    return out;
}

std::uint64_t
IntervalLog::pruneThrough(const VectorTime &through)
{
    std::uint64_t pruned = 0;
    for (int p = 0; p < nprocs(); ++p) {
        ProcLog &pl = procs[p];
        while (!pl.recs.empty() && pl.recs.front().idx <= through[p]) {
            pl.recs.pop_front();
            ++pl.base;
            ++pruned;
        }
    }
    return pruned;
}

std::size_t
IntervalLog::totalRecords(const VectorTime *within) const
{
    std::size_t total = 0;
    for (int p = 0; p < nprocs(); ++p) {
        const std::uint32_t upto = within ? std::min(lastIdxOf(p),
                                                     (*within)[p])
                                          : lastIdxOf(p);
        if (upto > procs[p].base)
            total += upto - procs[p].base;
    }
    return total;
}

void
IntervalLog::serialize(WireWriter &w) const
{
    w.putU32(static_cast<std::uint32_t>(procs.size()));
    for (const ProcLog &pl : procs) {
        w.putU32(pl.base);
        w.putU32(static_cast<std::uint32_t>(pl.recs.size()));
        for (const IntervalRec &rec : pl.recs) {
            w.putI64(rec.proc);
            w.putU32(rec.idx);
            rec.vt.encode(w);
            w.putU32(static_cast<std::uint32_t>(rec.pages.size()));
            for (PageId page : rec.pages)
                w.putU32(page);
            w.putU8(rec.partialStore ? 1 : 0);
        }
    }
}

void
IntervalLog::restoreFrom(WireReader &r)
{
    const std::uint32_t nprocs = r.getU32();
    procs.assign(nprocs, ProcLog{});
    for (std::uint32_t p = 0; p < nprocs; ++p) {
        ProcLog &pl = procs[p];
        pl.base = r.getU32();
        const std::uint32_t nrecs = r.getU32();
        for (std::uint32_t i = 0; i < nrecs; ++i) {
            IntervalRec rec;
            rec.proc = static_cast<NodeId>(r.getI64());
            rec.idx = r.getU32();
            rec.vt = VectorTime::decode(r);
            const std::uint32_t npages = r.getU32();
            rec.pages.reserve(npages);
            for (std::uint32_t pg = 0; pg < npages; ++pg)
                rec.pages.push_back(r.getU32());
            rec.partialStore = r.getU8() != 0;
            pl.recs.push_back(std::move(rec));
        }
    }
}

} // namespace dsm
