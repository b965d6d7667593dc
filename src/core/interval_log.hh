/**
 * @file
 * The LRC interval record log: per processor, the dense sequence of
 * closed intervals (Section 5.1 of the paper) known to this node.
 *
 * Storage is a deque per processor, so references returned by add()
 * and recordsAfter() stay valid while later records are appended (the
 * seed kept vectors, whose reallocation dangled earlier pointers), and
 * so barrier-time garbage collection can pop globally-applied records
 * off the front in O(1) without disturbing the rest.
 */

#ifndef DSM_CORE_INTERVAL_LOG_HH
#define DSM_CORE_INTERVAL_LOG_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "net/serde.hh"
#include "sync/vector_time.hh"
#include "util/types.hh"

namespace dsm {

/** One closed interval that modified pages. */
struct IntervalRec
{
    NodeId proc = -1;
    std::uint32_t idx = 0;
    VectorTime vt;
    std::vector<PageId> pages;
    /** The writer's diff store lacks intervals its vector knows for
     *  one of these pages: it installed the page whole from a keeper
     *  since the last GC round that covers that copy (DESIGN.md §10).
     *  Such a record dominates nothing when a miss is routed. */
    bool partialStore = false;
};

class IntervalLog
{
  public:
    IntervalLog() = default;

    explicit IntervalLog(int nprocs) : procs(nprocs) {}

    int nprocs() const { return static_cast<int>(procs.size()); }

    /**
     * Append @p rec if missing; returns the stored record. Interval
     * indices are dense per processor: appending idx n+2 when only n
     * records are known is a protocol error, as is re-adding a record
     * that garbage collection already pruned.
     *
     * @param was_new If non-null, set to whether the record was
     *        actually appended (false: it was already known). Lets
     *        callers distinguish the first processing of a record
     *        from idempotent re-deliveries.
     */
    const IntervalRec &add(IntervalRec rec, bool *was_new = nullptr);

    /** Largest interval index of @p proc present (0 = none yet). */
    std::uint32_t
    lastIdxOf(NodeId proc) const
    {
        const ProcLog &pl = procs[proc];
        return pl.base + static_cast<std::uint32_t>(pl.recs.size());
    }

    /** Number of pruned (leading) records of @p proc: records with
     *  idx <= baseOf(proc) are gone. */
    std::uint32_t baseOf(NodeId proc) const { return procs[proc].base; }

    /** Record (proc, idx), or nullptr when unknown or pruned. */
    const IntervalRec *find(NodeId proc, std::uint32_t idx) const;

    /** Records with idx > since[proc] (and, if given, <= up_to),
     *  in per-processor idx order. */
    std::vector<const IntervalRec *>
    recordsAfter(const VectorTime &since,
                 const VectorTime *up_to = nullptr) const;

    /** Records of @p proc with idx > since_idx, in idx order. */
    std::vector<const IntervalRec *>
    recordsOfAfter(NodeId proc, std::uint32_t since_idx) const;

    /**
     * Drop every record (p, idx <= through[p]) — barrier-time GC once
     * all nodes have applied them. Returns the number pruned.
     */
    std::uint64_t pruneThrough(const VectorTime &through);

    /** Records currently held across all processors (and, if given,
     *  with idx <= within[proc]). */
    std::size_t totalRecords(const VectorTime *within = nullptr) const;

    /** Checkpoint support: capture / rebuild the full log, including
     *  the per-processor GC bases (a restored node must refuse the
     *  same pruned records the original would have). */
    void serialize(WireWriter &w) const;
    void restoreFrom(WireReader &r);

  private:
    struct ProcLog
    {
        /** idx of recs.front() is base + 1. */
        std::uint32_t base = 0;
        std::deque<IntervalRec> recs;
    };

    std::vector<ProcLog> procs;
};

} // namespace dsm

#endif // DSM_CORE_INTERVAL_LOG_HH
