/**
 * @file
 * Lazy release consistency runtime (TreadMarks-style; Sections 3.2, 4,
 * 5 of the paper). No association between locks and data: an acquire
 * makes all shared data consistent via an invalidate protocol.
 *
 * Execution is divided into intervals; each interval that modified
 * pages is summarized by a record carrying its vector of interval
 * indices and per-page write notices. On acquire, the granter
 * piggybacks the records the requester lacks; arriving write notices
 * invalidate the local page copy. A subsequent access miss fetches the
 * missing modifications from their writers:
 *  - diffing: per-(page, interval) diffs applied in happens-before
 *    order (multiple concurrent writers per page merge word-wise);
 *  - timestamping: per-word (processor, interval) timestamps; the
 *    responder scans the page and transmits runs newer than the
 *    requester's vector.
 * The same round trips refresh other invalid pages those writers
 * cover, each only until the bytes it has received that way since
 * this node last missed on it or wrote it reach the cost of one miss
 * (DESIGN.md §10). Barrier GC validates only the invalid pages a node
 * keeps and discards the rest; a miss on a discarded page installs a
 * writer's whole committed copy.
 *
 * Write trapping is twinning (software-VM write faults) or compiler
 * instrumentation with hierarchical page + word dirty bits.
 *
 * A second, home-based variant (ClusterConfig::homeBasedLrc, diffing
 * only) gives every page a home node: interval close flushes diffs to
 * the homes eagerly (HomeDiffFlush), homes apply them in place, and an
 * access miss fetches one full up-to-date page copy from the home
 * (HomePageRequest/Reply) instead of collecting a diff chain from
 * every concurrent writer. No diffs are stored anywhere and the homes
 * hold every page current, so barrier GC validates nothing and only
 * prunes interval records, and homes migrate to the dominant remote
 * accessor past a configurable threshold.
 */

#ifndef DSM_CORE_LRC_RUNTIME_HH
#define DSM_CORE_LRC_RUNTIME_HH

#include <atomic>
#include <condition_variable>
#include <map>
#include <set>
#include <unordered_map>

#include "core/interval_log.hh"
#include "core/page_home.hh"
#include "core/runtime.hh"
#include "mem/diff.hh"
#include "mem/dirty_bits.hh"
#include "mem/page_table.hh"
#include "mem/twin_store.hh"
#include "mem/word_ts.hh"
#include "sync/vector_time.hh"

namespace dsm {

class LrcRuntime : public Runtime
{
  public:
    explicit LrcRuntime(const Deps &deps);

    void bindLock(LockId lock, std::vector<Range> ranges) override;
    void rebindLock(LockId lock, std::vector<Range> ranges) override;

    std::string name() const override;

    void handleMessage(Message &msg) override;

    // Introspection for tests and long-run memory accounting (call
    // only while the cluster is quiescent, e.g. after run()).
    std::size_t intervalRecordCount() const { return ilog.totalRecords(); }
    std::size_t diffStoreSize() const { return diffStore.size(); }
    NodeId pageHomeOf(PageId page) const { return homes.homeOf(page); }

    /** Home-based variant active? (homeBasedLrc + diff collection) */
    bool
    homeMode() const
    {
        return cluster->homeBasedLrc && usesDiffing();
    }

    /** Checkpoint support (core/checkpoint.hh): vectors, interval log,
     *  diff store, page metadata and the home table on top of the base
     *  arena/alloc-log image. */
    void serialize(WireWriter &w) const override;
    void restoreFrom(WireReader &r) override;
    void wipeForRecovery() override;

    /** The manifest frontier is this node's vector time. */
    std::vector<std::uint32_t> vectorFrontier() const override;

  protected:
    void preBarrier() override;
    void doRead(GlobalAddr addr, void *dst, std::size_t size) override;
    void doWrite(GlobalAddr addr, const void *src, std::size_t size,
                 bool bulk) override;

  private:
    struct PageMeta
    {
        /** Writes reflected in my copy: copyVt[p] = newest interval of
         *  p whose modifications this copy contains. */
        VectorTime copyVt;
        /** Pending write notices (proc, interval) newer than copyVt. */
        std::vector<std::pair<NodeId, std::uint32_t>> notices;
        /** Ride-along hints (DESIGN.md §10, "Which pages ride along on
         *  a miss"), both saturating and not checkpointed. riderBytes:
         *  reply bytes this page received riding along on access
         *  misses of other pages since this node last missed on it or
         *  closed an interval that wrote it. boundShift: how often its
         *  bound doubled, once per wrong skip. */
        std::uint64_t riderBytes = 0;
        std::uint8_t boundShift = 0;
        /** Barrier-GC hint, not checkpointed: the gcEpoch of this
         *  node's last access miss on the page. A page missed since the
         *  previous GC round is kept (validated) at the next one. */
        std::uint32_t missRound = 0;
    };

    PageMeta &meta(PageId page);
    BlockTimestamps &tsOf(PageId page);

    /** Has @p m ridden along for at least the cost of one miss,
     *  missCostBytes << boundShift? Such a page stays out of an access
     *  miss's batch. */
    bool overRiderBound(const PageMeta &m) const;

    /** Add @p bytes a ride-along brought to @p m.riderBytes. */
    static void addRiderBytes(PageMeta &m, std::uint64_t bytes);

    /** An access miss on @p m: zero its riderBytes and mark it missed
     *  in this GC round. Returns whether it was over its rider bound,
     *  a wrong skip: its bound doubles and this fetch takes every
     *  candidate. */
    bool noteMiss(PageMeta &m);

    /** Erase @p page's notices covered by its copyVt and keep
     *  invalidPages exact. Caller holds the node mutex. */
    void resolveCoveredNotices(PageId page, PageMeta &m);

    /**
     * The tail every miss path shares once a fetch brought @p page's
     * copy forward: resolve the covered notices, then turn an
     * inaccessible page readable again — writable when it has an open
     * twin. Returns false (the page stays invalid) when notices
     * remain, which only a sibling thread's concurrent grant can
     * cause. Caller holds the node mutex.
     */
    bool revalidateAfterFetch(PageId page, PageMeta &m);

    /** Turn an inaccessible page with no pending notices readable
     *  again, writable when it has an open twin. Takes the page's
     *  shard; caller holds the node mutex. */
    void restoreAccess(PageId page);

    /**
     * Does barrier GC keep (validate) invalid @p page rather than
     * discard it (DESIGN.md §10)? Kept are the pages this node ever
     * wrote or has open writes on (a twin, dirty words), the pages it
     * took an access miss on since its previous GC round, and the
     * pages whose copy holds an interval beyond departVt, which a
     * keeper's copy is not known to cover. Caller holds the node
     * mutex.
     */
    bool keptAtGc(PageId page, const PageMeta &m);

    /** A completed GC round pruned everything at or below @p gc_vt:
     *  discard the invalid pages left with a pruned notice (zeroing
     *  their riderBytes), and drop those notices from every discarded
     *  page. Caller holds the node mutex. */
    void discardPrunedPages(const VectorTime &gc_vt);

    /**
     * Close the current interval: detect the modified pages (drop
     * twins into diffs, or fold dirty bits into word timestamps),
     * append the interval record, and advance vt[self]. No-op when
     * nothing was written. Caller holds the node mutex.
     */
    void closeInterval();

    /**
     * Process @p rec's write notices: invalidate stale local copies.
     * Idempotent. @p fresh marks the first processing of the record
     * on this node; a fresh notice already covered by a page's valid
     * copy is an avoided re-invalidation (the data piggybacked on an
     * earlier fetch outran the notice) and is counted as such.
     */
    void invalidateFor(const IntervalRec &rec, bool fresh = true);

    /** A page in a batched fetch: its id plus the vector of writes the
     *  local copy already contains. */
    struct BatchPageReq
    {
        PageId page;
        VectorTime copyVt;
        /** copyVt, joined in diff mode with the page's pending
         *  notices. */
        VectorTime need{};
        /** Diff mode: (pending writer, owner) for each pending writer.
         *  The owner is the responder that ships the writer's diffs:
         *  the writer itself when undominated, else its server. */
        std::vector<std::pair<NodeId, NodeId>> owners{};

        /** The page vector asked of responder @p q: copyVt for the
         *  writers q owns, need for every other writer. So in diff
         *  mode q sends what it alone owes plus what the requester has
         *  not heard of, never a needed diff another responder ships. */
        VectorTime askedOf(NodeId q) const;
    };

    // --- Write-notice piggybacking on fetch replies (TreadMarks).
    // Every fetch request advertises the requester's interval-log
    // coverage, and every reply appends the records the requester
    // lacks. Piggybacked records add no notices (laziness is
    // preserved): they only carry ordering knowledge early, so a later
    // regular delivery of the notice finds the page's copy already
    // covering it.

    /** My interval-log coverage (lastIdxOf per proc). Mutex held. */
    VectorTime logCoverage() const;

    /** Responder half: append count-prefixed records beyond
     *  @p req_log. Mutex held. */
    void encodePiggybackedRecords(WireWriter &w,
                                  const VectorTime &req_log);

    /** Requester half: decode one reply's record section. */
    static void decodePiggybackedRecords(WireReader &r,
                                         std::vector<IntervalRec> &out);

    /** Fold piggybacked records into the log; returns the ones that
     *  were new to this node. Mutex held. */
    std::vector<const IntervalRec *>
    ingestPiggybackedRecords(std::vector<IntervalRec> &recs);

    /** Count fetched pages whose fresh copy already covers a freshly
     *  learned record while staying valid. Mutex held. */
    void countAvoidedReinvalidations(
        const std::vector<const IntervalRec *> &fresh,
        const std::vector<BatchPageReq> &fetched);

    /** ingest + count, for paths with no ordering dependency between
     *  record insertion and data application. Mutex held. */
    void applyPiggybackedRecords(std::vector<IntervalRec> &recs,
                                 const std::vector<BatchPageReq> &fetched);

    /** Service an access miss on @p page (app thread; takes and
     *  releases the protocol locks internally). */
    void fetchPage(PageId page);

    /**
     * Fetch dispatch without the trap accounting, deduplicated across
     * sibling threads (SMP nodes): one in-flight fetch per page;
     * late-coming threads wait for it instead of issuing duplicate
     * request rounds. Used by fetchPage (@p miss) and the pre-barrier
     * GC validation sweep, which brings every invalid page this node
     * keeps current and so takes every kept ride-along.
     */
    void fetchPageData(PageId page, bool miss);

    /** The homeless miss protocol, one per collection method: one
     *  batched request per responder (see snapshotBatchTargets),
     *  covering the missed page plus (with batchDiffFetch) the other
     *  invalid pages those responders cover that ride along. After an
     *  access miss (@p miss) each page that rode along adds the reply
     *  bytes it received to its riderBytes. */
    void fetchDiffs(PageId page, bool miss);
    void fetchTimestamps(PageId page, bool miss);

    /** A miss on a page discarded at GC: install its keeper's whole
     *  committed copy, plus (with batchDiffFetch) every other page
     *  discarded with the same keeper, riding along. Notices beyond
     *  the installed copy stay pending for the diff or timestamp
     *  path. */
    void fetchFromKeeper(PageId page, bool miss);

    /** Home mode: make @p page current with one request/reply against
     *  its home (or, at the home itself, by waiting for the in-flight
     *  flushes the pending notices announce). */
    void fetchFromHome(PageId page);

    /**
     * Install a full page copy from the wire (home-page reply or
     * migration payload), re-basing an open twin and replaying the
     * local uncommitted writes on top when one exists. Takes the
     * page's shard; caller holds nl->core.
     */
    void installFullPage(PageId page, WireReader &r);

    /** Ensure @p page is present (fetch on access==None). Returns with
     *  the node mutex *released*. */
    void ensurePresent(PageId page);

    // Wire helpers.
    static void encodeRecord(WireWriter &w, const IntervalRec &rec);
    static IntervalRec decodeRecord(WireReader &r);

    // Lock hooks.
    std::vector<std::byte> makeLockRequest(LockId lock, AccessMode mode);
    std::vector<std::byte> makeLockGrant(LockId lock, AccessMode mode,
                                         NodeId origin, WireReader &req);
    void applyLockGrant(LockId lock, AccessMode mode, WireReader &r);

    // Barrier hooks.
    std::vector<std::byte> makeArrival(BarrierId barrier);
    void mergeArrival(BarrierId barrier, NodeId node, WireReader &r);
    std::vector<std::byte> makeDepart(BarrierId barrier, NodeId node);
    void applyDepart(BarrierId barrier, WireReader &r);

    // Access-miss servicing (service thread).
    void handleDiffBatchRequest(Message &msg);
    void handlePageTsBatchRequest(Message &msg);
    void handlePageCopyRequest(Message &msg);

    // Home-based protocol (service thread; all take the node mutex).
    void handleHomeDiffFlush(Message &msg);
    void handleHomePageRequest(Message &msg);
    void handleHomeMigrate(Message &msg);

    /** Install one full HomeMigrate entry: we are @p page's new home.
     *  Mutex held. */
    void installMigratedHome(PageId page, WireReader &r);

    /** Reply to a page request with the home's full copy (plus the
     *  records the origin lacks, per @p req_log). Mutex held. */
    void replyHomePage(NodeId origin, std::uint64_t token, PageId page,
                       const PageHomeTable::HomeState &hs,
                       const VectorTime &req_log);

    /** Serve, forward or keep each parked page request. Mutex held. */
    void serveParkedPageRequests();

    /** Re-encode one page's flush and send it to @p dst (forwarding on
     *  stale mappings and migration hand-offs). Mutex held. */
    void sendSingleFlush(NodeId dst, PageId page, NodeId proc,
                         std::uint32_t idx, std::uint32_t prev_idx,
                         std::uint64_t vt_sum, const Diff &diff);

    /** Why a home migrates. The last-writer and first-writer causes
     *  have their own NodeStats counters, taken only where the
     *  migration actually runs (a merged flush can fire a policy for
     *  several intervals of one page but migrate once). */
    enum class MigrateCause : std::uint8_t
    {
        None,
        /** One node's access count crossed the threshold. */
        Accesses,
        /** The migrate-to-last-writer classifier
         *  (lastWriterMigrations). */
        LastWriter,
        /** The page's only remote writer, announced by a barrier
         *  (PageHomeTable::firstWriterTarget; firstWriterMigrations). */
        FirstWriter,
    };

    /** PageHomeTable::firstWriterTarget for a locally homed @p page,
     *  or -1 while a write notice at or below @p announced still waits
     *  for its flush. Mutex held. */
    NodeId firstWriterTarget(PageId page,
                             const PageHomeTable::HomeState &hs,
                             const VectorTime &announced);

    /** First-writer homing at a barrier departure: move each locally
     *  homed page that the intervals up to @p global name to its
     *  first writer, where firstWriterTarget already finds one (the
     *  rest decide as their flushes are applied). Holds nl->core;
     *  takes nl->ilog, then nl->home. */
    void moveToFirstWriters(const VectorTime &global);

    /**
     * Apply one flushed diff in place at the home (the caller has
     * checked the writer chain: the writer's previous flush for this
     * page is already applied). Returns the cause when a migration
     * policy says the home should migrate to @p proc (the first-writer
     * rule, for a flush that arrives after the barrier announcing it;
     * the last-writer classifier; or dominant access counts, in that
     * order of precedence), else MigrateCause::None. Mutex held.
     */
    MigrateCause applyFlushAtHome(PageId page, NodeId proc,
                                  std::uint32_t idx, std::uint64_t vt_sum,
                                  const Diff &diff);

    /** Apply every parked flush whose predecessor has arrived, forward
     *  those whose page migrated away, and run any migrations they
     *  trigger. Mutex held. */
    void drainParkedFlushes();

    /** A migration a flush apply or a page request asked for. */
    struct MigrateReq
    {
        PageId page;
        NodeId dst;
        MigrateCause cause;
    };

    /** Perform the collected migrations that still find us the home,
     *  counting each by its cause: one HomeMigrate per peer carries
     *  the whole batch, sent before any parked request or flush of a
     *  moved page is forwarded. Mutex held. */
    void runMigrations(const std::vector<MigrateReq> &migrate);

    /** Hand @p page's home role to @p new_home, appending its entry
     *  to each peer's batch in @p out (indexed by node). Mutex held. */
    void migrateHome(std::vector<WireWriter> &out, PageId page,
                     NodeId new_home);

    /** Encode every stored diff of @p page newer than @p req_vt (one
     *  count prefix plus (proc, idx, vtSum, diff) tuples), each
     *  without the words a later diff of its writer in this reply
     *  rewrites (DESIGN.md §10). */
    void encodeDiffsNewerThan(WireWriter &w, PageId page,
                              const VectorTime &req_vt);

    /** Encode the timestamp runs of @p page newer than the requester's
     *  page copy @p req_vt (the page vector prefix plus counted runs). */
    void encodeTsNewerThan(WireWriter &w, PageId page,
                           const VectorTime &req_vt);

    bool usesTwinning() const
    {
        return cluster->runtime.trap == TrapMethod::Twinning;
    }

    bool usesDiffing() const
    {
        return cluster->runtime.collect == CollectMethod::Diffing;
    }

    /** A stored diff plus the sum of its interval's vector (used to
     *  order application without requiring the interval record). */
    struct DiffEntry
    {
        Diff diff;
        std::uint64_t vtSum = 0;
    };

    /**
     * Snapshot @p page's responders into @p responders: in diff mode
     * at one app thread per node its undominated writers (DESIGN.md
     * §10), otherwise every pending writer. Into @p reqs go the page
     * itself plus, with batchDiffFetch, the candidates: every other
     * invalid page whose undominated (otherwise: all) pending writers
     * are responders, which become fully consistent from the same
     * round trips. A discarded page never rides along, and a GC
     * validation (not @p miss) takes only the pages this node keeps.
     * On an access miss (@p miss) a candidate over its
     * rider bound stays out, unless @p page itself is over its bound:
     * then the skip was wrong, the page's bound doubles and every
     * candidate rides. The miss then zeroes @p page's riderBytes.
     * Also snapshots the interval-log coverage into @p log_cov, all
     * under one acquisition of the node mutex; the snapshot stays
     * valid across the blocking fetch calls because only the app
     * thread adds or clears notices.
     */
    void snapshotBatchTargets(PageId page, bool miss,
                              std::vector<NodeId> &responders,
                              std::vector<BatchPageReq> &reqs,
                              VectorTime &log_cov);

    /** The batched request to responder @p q (DiffBatchRequest and
     *  PageTsBatchRequest alike): @p log_cov, then each page of
     *  @p reqs with the vector asked of q. */
    static std::vector<std::byte>
    encodeBatchRequest(NodeId q, const VectorTime &log_cov,
                       const std::vector<BatchPageReq> &reqs);

    /** One responder's timestamp runs for one page. */
    struct TsReplySet
    {
        VectorTime pageVt;
        std::vector<TsRun> runs;
        std::vector<std::vector<std::byte>> data;
    };

    /** Merge all responders' runs for @p page into the local copy in
     *  happens-before order, clear its notices and revalidate it.
     *  Caller holds the node mutex. */
    void applyTsReplies(PageId page,
                        const std::vector<TsReplySet> &replies);

    /** The wire bytes that cost as much as one access miss: a page
     *  fault plus a request/reply pair's fixed costs, over the per-byte
     *  cost (13,125 B under the paper's constants). A page's rider
     *  bound is this, doubled per wrong skip. */
    const std::uint64_t missCostBytes;

    VectorTime vt;  ///< vt[self] = last closed
    IntervalLog ilog;
    std::map<std::pair<PageId, std::uint64_t>, DiffEntry> diffStore;
    std::unordered_map<PageId, PageMeta> pageMeta;
    /**
     * Exactly the pages with pending notices (invariant:
     * p ∈ invalidPages ⇔ !meta(p).notices.empty()), kept sorted so
     * the batched-miss piggyback scan and barrier-time GC validation
     * are O(pending) instead of walking all of pageMeta under the
     * node mutex.
     */
    std::set<PageId> invalidPages;
    std::unordered_map<PageId, BlockTimestamps> pageTs;
    PageTable pages;
    TwinStore twins;
    DirtyBitmap dirty;
    std::uint32_t lastBarrierSentIdx = 0;

    /** Pages with an in-flight fetch (guarded by nl->core, waited on
     *  via fetchCv). A sibling app thread that misses one of them
     *  waits instead of fetching it again. */
    std::set<PageId> fetchesInFlight;
    std::condition_variable fetchCv;

    // Home-based state (unused in homeless mode).
    PageHomeTable homes;
    /** Wakes an app thread blocked on its own home copy (waiting for
     *  in-flight flushes) or on a mid-fetch home migration. Paired
     *  with nl->core. */
    std::condition_variable homeCv;
    /** Page requests the home cannot answer yet: the needed flushes
     *  are in flight but not applied. */
    struct ParkedPageReq
    {
        NodeId origin;
        std::uint64_t token;
        PageId page;
        VectorTime need;
        /** Origin's interval-log coverage (for reply piggybacking). */
        VectorTime reqLog;
    };
    std::vector<ParkedPageReq> parkedPageReqs;
    /** Flushes the home cannot apply yet: the writer's previous flush
     *  for the page (prevIdx) is still in flight on a forwarding
     *  chain, so applying this one would let appliedVt claim an
     *  interval whose words the copy does not hold. */
    struct ParkedFlush
    {
        NodeId proc;
        std::uint32_t idx;
        std::uint32_t prevIdx;
        std::uint64_t vtSum;
        PageId page;
        Diff diff;
    };
    std::vector<ParkedFlush> parkedFlushes;

    /** One of our own interval's per-page flush payloads, either sent
     *  eagerly at interval close (legacy) or deferred into
     *  pendingHomeFlushes (homeFlushDefer). */
    struct PendingFlush
    {
        PageId page;
        std::uint32_t idx;
        std::uint32_t prevIdx;
        std::uint64_t vtSum;
        Diff diff;
    };
    /**
     * Deferred-merge flush policy (homeFlushDefer / DSM_HOME_DEFER):
     * interval closes park their flush payloads here, one bucket per
     * believed home, and flushPendingHomeFlushes turns each bucket
     * into a single HomeDiffFlush message at the next communication
     * point — a releaser that closes many intervals between remote
     * events sends one message per home instead of one per close.
     * Guarded by nl->home; always empty with the policy off.
     */
    std::map<NodeId, std::vector<PendingFlush>> pendingHomeFlushes;

    /** Encode @p entries (all @p proc's intervals) as one
     *  HomeDiffFlush message to @p dst — the single writer of the
     *  wire format handleHomeDiffFlush decodes (sendSingleFlush and
     *  both flush paths go through here). */
    void sendFlushMessage(NodeId dst, NodeId proc,
                          const std::vector<PendingFlush> &entries);

    /**
     * Send every deferred flush: regroup the buckets by the *current*
     * home (pages may have migrated since their close — entries now
     * homed here enter the parked-flush chain and apply in place),
     * then one message per remote home. Re-establishes the eager
     * protocol's invariant — any interval record that leaves this
     * node refers to a flush already in flight — exactly at the
     * points where records can leave (lock grants, barrier arrivals)
     * or where we could otherwise wait on our own unsent flush (home
     * fetches). Caller holds nl->core.
     */
    void flushPendingHomeFlushes();

    /**
     * Largest own interval index whose flush is in flight (or needed
     * none). With the deferred-flush policy, service-thread reply
     * piggybacking must not leak a record whose flush still sits in
     * pendingHomeFlushes: a requester could otherwise park at a home
     * that waits for us while we block on that requester — written
     * under nl->core (flushPendingHomeFlushes), read lock-free by the
     * service thread (encodePiggybackedRecords).
     */
    std::atomic<std::uint32_t> ownIdxFlushed{0};

    /** Set by preBarrier when this node validated all the pages it
     *  keeps ahead of the upcoming arrival (the local half of the GC
     *  handshake). */
    bool gcValidated = false;

    /** A page discarded at barrier GC: its keeper, a writer of the
     *  page, whose committed copy covers every notice dropped since;
     *  and the newest dropped interval per writer. */
    struct Discarded
    {
        NodeId keeper;
        VectorTime dropped;
    };
    /** Homeless mode: the discarded pages, guarded by nl->core.
     *  Correctness state: checkpointed. */
    std::map<PageId, Discarded> discarded;
    /** Diff mode: pages installed whole from a keeper, each with the
     *  copy vector installed, until a GC round covers it. The diff
     *  store lacks those pages' intervals up to that vector, so a reply
     *  ships no entry of a writer asked from below it, and a record
     *  that writes such a page is marked partialStore. Written under
     *  nl->core and nl->diff, read under either; checkpointed. */
    std::map<PageId, VectorTime> wholeCopies;
    /** The vector of the last barrier departure. Every node's next
     *  arrival is at or above it, and so is the next gc_vt. */
    VectorTime departVt;
    /** Completed GC rounds plus one: the epoch of PageMeta::missRound.
     *  Not checkpointed, so a restored node's pages read as not missed
     *  and it only discards more. */
    std::uint32_t gcEpoch = 1;

    /** Barrier-manager scratch: per barrier, arrival vectors + count of
     *  departures already built (to reclaim the entry). */
    struct BarrierScratch
    {
        std::vector<VectorTime> arrivalVt;
        int validatedArrivals = 0;
        int departsBuilt = 0;
    };
    std::unordered_map<BarrierId, BarrierScratch> barrierScratch;
};

} // namespace dsm

#endif // DSM_CORE_LRC_RUNTIME_HH
