/**
 * @file
 * The page-home subsystem of home-based LRC (in the style of the
 * Princeton HLRC follow-up work to the paper's homeless TreadMarks
 * protocol). Every page has a home node that absorbs diffs eagerly at
 * interval close and keeps the only up-to-date copy; an access miss is
 * one request/reply pair against the home instead of a diff chain
 * gathered from every concurrent writer.
 *
 * Two pieces live here:
 *  - PageHomeTable: each node's view of the page -> home mapping
 *    (static round-robin plus migration overrides) and, for pages
 *    homed locally, the home-side state: the applied interval vector,
 *    the per-word ordering sums that make out-of-order flush arrival
 *    safe, and the per-node access counters that drive the
 *    migrate-on-threshold policy.
 *  - Guarded diff application: flushes from causally ordered intervals
 *    can arrive at the home in either order (the releaser does not
 *    wait for flush acks), so each diffed word carries its interval's
 *    vector sum and only overwrites a word stamped with a smaller sum.
 *    Concurrent intervals of a data-race-free program touch disjoint
 *    words, so sum order is exact where it matters.
 */

#ifndef DSM_CORE_PAGE_HOME_HH
#define DSM_CORE_PAGE_HOME_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/diff.hh"
#include "sync/vector_time.hh"
#include "util/types.hh"

namespace dsm {

class PageHomeTable
{
  public:
    PageHomeTable() = default;

    /**
     * @param decay_window Epoch window (in accesses to one homed
     *        page) of the migration counters: every decay_window
     *        accesses the per-node counts are halved, so the
     *        migrate-on-threshold policy sees the *recent* access mix
     *        instead of history accumulated long ago. 0 keeps the
     *        legacy undecayed counts.
     * @param last_writer_policy Migrate-to-last-writer: a page whose
     *        flushes keep switching writers (>= switch_threshold
     *        switches within the decay window) is migratory, and the
     *        home follows the most recent writer instead of waiting
     *        for one node to dominate the access counts.
     * @param switch_threshold Writer switches that classify a page as
     *        migratory under the last-writer policy.
     * @param ping_pong_limit Adaptive fallback: once a page's
     *        migration epoch reaches this limit, further migrations
     *        are suppressed and the page is pinned at its current
     *        home (0 = no cap).
     */
    PageHomeTable(int nprocs, NodeId self,
                  std::uint32_t migrate_threshold,
                  std::uint32_t decay_window = 0,
                  bool last_writer_policy = false,
                  std::uint32_t switch_threshold = 3,
                  std::uint32_t ping_pong_limit = 0)
        : nprocs_(nprocs), self_(self),
          migrateThreshold(migrate_threshold),
          decayWindow(decay_window),
          lastWriterPolicy(last_writer_policy),
          switchThreshold(switch_threshold),
          pingPongLimit(ping_pong_limit)
    {}

    /** Current home of @p page: round-robin unless migrated. */
    NodeId
    homeOf(PageId page) const
    {
        auto it = overrides.find(page);
        if (it != overrides.end())
            return it->second.home;
        return static_cast<NodeId>(page % nprocs_);
    }

    bool isHome(PageId page) const { return homeOf(page) == self_; }

    /** Migration count under which the current mapping was installed
     *  (0 = the original round-robin assignment). */
    std::uint32_t
    epochOf(PageId page) const
    {
        auto it = overrides.find(page);
        return it == overrides.end() ? 0 : it->second.epoch;
    }

    /**
     * Record a migration. Broadcasts of successive migrations of one
     * page can arrive in either order, so each carries the page's
     * migration epoch and only a strictly newer one applies — a stale
     * notice must never regress the mapping (the current home would
     * stop believing it is the home and every flush/request for the
     * page would bounce forever). Returns false when @p epoch is
     * stale.
     */
    bool
    setHome(PageId page, NodeId home, std::uint32_t epoch)
    {
        auto [it, inserted] = overrides.try_emplace(page);
        if (!inserted && epoch <= it->second.epoch)
            return false;
        it->second = {home, epoch};
        return true;
    }

    /** Home-side per-page state; exists only at the current home. */
    struct HomeState
    {
        /** Newest interval of each processor applied to the copy. */
        VectorTime appliedVt;
        /** Vector-sum stamp of the last write applied to each word. */
        std::vector<std::uint64_t> wordSums;
        /** Remote accesses (flushes + fetches) per node, decayed in
         *  epoch windows (see countAccess). */
        std::vector<std::uint32_t> accessCounts;
        /** Accesses since the counters were last halved. */
        std::uint32_t windowAccesses = 0;
        /** Writer of the last flush applied here (the home itself for
         *  local interval closes); -1 before the first write. */
        int lastWriter = -1;
        /** Writer changes observed, decayed with the epoch window —
         *  the migratory-sharing classifier of the last-writer
         *  policy (single writer per interval by construction: each
         *  flush is one writer's interval). */
        std::uint32_t writerSwitches = 0;
    };

    /** State of a locally homed @p page, created on first use with
     *  @p page_words zeroed word sums. */
    HomeState &
    state(PageId page, std::uint32_t page_words)
    {
        auto [it, inserted] = states.try_emplace(page);
        if (inserted) {
            it->second.appliedVt = VectorTime(nprocs_);
            it->second.wordSums.assign(page_words, 0);
            it->second.accessCounts.assign(nprocs_, 0);
        }
        return it->second;
    }

    HomeState *
    find(PageId page)
    {
        auto it = states.find(page);
        return it == states.end() ? nullptr : &it->second;
    }

    /** Forget the home-side state after migrating @p page away. */
    void
    drop(PageId page)
    {
        states.erase(page);
    }

    /**
     * Count an access to a locally homed page. Returns true when
     * @p node crossed the migration threshold and the home should move
     * there (never fires for local accesses or threshold 0).
     *
     * Epoch-windowed decay: every decayWindow accesses (local ones
     * included — they are evidence the current placement serves
     * someone) all per-node counts are halved, so a node must sustain
     * its dominance in the recent window to trigger a migration; a
     * burst long ago decays away instead of firing a migration on
     * stale history.
     */
    bool
    countAccess(HomeState &hs, NodeId node)
    {
        if (decayWindow > 0 && ++hs.windowAccesses >= decayWindow) {
            hs.windowAccesses = 0;
            for (std::uint32_t &count : hs.accessCounts)
                count /= 2;
            hs.writerSwitches /= 2; // same recency discipline
        }
        if (node == self_)
            return false;
        const std::uint32_t count = ++hs.accessCounts[node];
        return migrateThreshold > 0 && count >= migrateThreshold;
    }

    /**
     * Record that @p writer's interval was applied to a locally homed
     * page (a remote flush, or the home's own interval close).
     * Returns true when the migrate-to-last-writer policy says the
     * home should follow @p writer: the page's flushes keep switching
     * writers — the migratory pattern (task queues, lock-protected
     * records) where the statically or access-count-homed page makes
     * every hand-off pay a flush plus a fetch round trip against a
     * third party. Never fires for the home's own writes or with the
     * policy off; callers must additionally honor migrationAllowed().
     */
    bool
    countFlushWriter(HomeState &hs, NodeId writer)
    {
        if (!lastWriterPolicy)
            return false;
        if (hs.lastWriter >= 0 &&
            hs.lastWriter != static_cast<int>(writer)) {
            ++hs.writerSwitches;
        }
        hs.lastWriter = static_cast<int>(writer);
        return writer != self_ && hs.writerSwitches >= switchThreshold;
    }

    /**
     * Adaptive ping-pong fallback: false once @p page's migration
     * epoch has reached the cap — the page is pinned at its current
     * home, turning an endless follow-the-writer chase into a stable
     * static-home pattern.
     */
    bool
    migrationAllowed(PageId page) const
    {
        return pingPongLimit == 0 || epochOf(page) < pingPongLimit;
    }

    std::size_t numHomedStates() const { return states.size(); }

    /** Checkpoint support: capture / rebuild the migration overrides
     *  and the home-side per-page states (policy knobs are not
     *  serialized — they are reconstructed from configuration). */
    void serialize(WireWriter &w) const;
    void restoreFrom(WireReader &r);

    /** Chaos kill: drop all mappings and home states, keeping the
     *  policy knobs (they come from configuration, not the wire). */
    void clearForRecovery()
    {
        overrides.clear();
        states.clear();
    }

  private:
    struct Mapping
    {
        NodeId home = 0;
        std::uint32_t epoch = 0;
    };

    int nprocs_ = 1;
    NodeId self_ = 0;
    std::uint32_t migrateThreshold = 0;
    std::uint32_t decayWindow = 0;
    bool lastWriterPolicy = false;
    std::uint32_t switchThreshold = 3;
    std::uint32_t pingPongLimit = 0;
    std::unordered_map<PageId, Mapping> overrides;
    std::unordered_map<PageId, HomeState> states;
};

/**
 * Apply @p diff onto @p dst, overwriting each word only when
 * @p vt_sum >= the word's entry in @p word_sums (which is then raised
 * to @p vt_sum). Makes home-side application insensitive to the
 * arrival order of causally ordered flushes: the later interval's
 * vector dominates the earlier's, so its sum is strictly larger and a
 * late-arriving older diff cannot overwrite a newer word.
 *
 * @param shadow When non-null, every word written to @p dst is also
 *        written there. The home passes its open twin of the page:
 *        otherwise its next cur-vs-twin diff would claim the remote
 *        writer's words as its own and stamp them with its own
 *        (concurrent, possibly larger) sum, making the guard reject a
 *        causally later flush of those words. Words where @p dst and
 *        @p shadow already differ are skipped outright: the open
 *        interval has locally rewritten them, and in a data-race-free
 *        program that write is causally newer than any flush the home
 *        can receive for the word (the overlap arises when the node's
 *        own pre-migration flushes chase the home role back to it —
 *        overwriting would erase the local write from both copies and
 *        from the next diff).
 * @return Number of words written.
 */
std::uint64_t
applyDiffGuarded(std::byte *dst, std::vector<std::uint64_t> &word_sums,
                 const Diff &diff, std::uint64_t vt_sum,
                 NodeStats *stats = nullptr, std::byte *shadow = nullptr);

/**
 * Raise @p word_sums to @p vt_sum for every word of @p len bytes that
 * differs between @p cur and @p twin — the home stamps its own
 * in-place writes this way (its copy already holds them), without
 * materializing a diff payload just to read the run offsets.
 *
 * @param kernel Comparison scan kernel (matches DiffScan::kernel).
 * @return Number of words stamped.
 */
std::uint64_t stampChangedWordSums(std::vector<std::uint64_t> &word_sums,
                                   const std::byte *cur,
                                   const std::byte *twin,
                                   std::uint32_t len,
                                   std::uint64_t vt_sum,
                                   ScanKernel kernel);

} // namespace dsm

#endif // DSM_CORE_PAGE_HOME_HH
