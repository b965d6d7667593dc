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
 *
 * Write trapping is twinning (software-VM write faults) or compiler
 * instrumentation with hierarchical page + word dirty bits.
 *
 * A second, home-based variant (ClusterConfig::homeBasedLrc, diffing
 * only) gives every page a home node: interval close flushes diffs to
 * the homes eagerly (HomeDiffFlush), homes apply them in place, and an
 * access miss fetches one full up-to-date page copy from the home
 * (HomePageRequest/Reply) instead of collecting a diff chain from
 * every concurrent writer. No diffs are stored anywhere, so the
 * barrier-time diff GC handshake is a no-op, and homes migrate to the
 * dominant remote accessor past a configurable threshold.
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

    /**
     * Advertise write intent (see Runtime::declareWriteIntent): the
     * pages of [addr, addr + bytes) enter writtenPages now, so the
     * very next lock request or barrier arrival announces them even
     * though no interval has closed over them yet. Only meaningful
     * when announceWrites is on; a no-op otherwise.
     */
    void declareWriteIntent(GlobalAddr addr, std::size_t bytes) override;

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
        /**
         * Every processor ever observed writing this page (bit per
         * node: own interval closes, the writers named by every
         * record processed for it, and the written-page announcements
         * piggybacked on lock requests). Gap-coalesced diffs are only
         * enabled while no processor but ourselves has ever written
         * the page — a conservative gate that turns the global unsafe
         * diffGapWords knob into an adaptive single-writer
         * optimization. The lock-request announcement closes the
         * first-contact window for lock-mediated sharing (the granter
         * learns the requester's written pages *before* it cuts its
         * grant-side diff); writers that only ever meet at barriers
         * still learn of each other one interval late, so the knob
         * stays conservative for purely barrier-synchronized apps.
         * Without the announcement, a granter that had only ever
         * seen itself write a page kept coalescing engaged and
         * bridged the requester's concurrent word with a stale local
         * value; this test pins the clobber:
         * LrcWriterMask.LockRequestAnnouncementPreventsStaleCoalesce.
         */
        std::uint64_t writerMask = 0;
    };

    PageMeta &meta(PageId page);
    BlockTimestamps &tsOf(PageId page);

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
    };

    // --- Write-notice piggybacking on fetch replies (TreadMarks).
    // Requests advertise the requester's interval-log coverage;
    // responders append the records the requester lacks. Piggybacked
    // records add no notices (laziness is preserved): they only carry
    // ordering knowledge early, so a later regular delivery of the
    // notice finds the page's copy already covering it.

    /** My interval-log coverage (lastIdxOf per proc). Mutex held. */
    VectorTime logCoverage() const;

    /** Responder half: append count-prefixed records beyond
     *  @p req_log (empty when the feature is off). Mutex held. */
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
     * request rounds. Used by fetchPage and the pre-barrier GC
     * validation sweep.
     */
    void fetchPageData(PageId page);

    /** The homeless miss protocol, one per collection method: one
     *  batched request per pending writer, covering the missed page
     *  plus (with batchDiffFetch) every other invalid page whose
     *  pending writers are a subset. */
    void fetchDiffs(PageId page);
    void fetchTimestamps(PageId page);

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

    /**
     * Apply one flushed diff in place at the home (the caller has
     * checked the writer chain: the writer's previous flush for this
     * page is already applied). Returns true when a migration policy
     * (dominant access counts, or the last-writer classifier) says
     * the home should migrate to @p proc; @p via_last_writer, when
     * non-null, reports whether the last-writer policy was the
     * trigger (counted as lastWriterMigrations only where the
     * migration actually runs — a merged flush can fire the policy
     * for several intervals of one page but migrate once). Mutex
     * held.
     */
    bool applyFlushAtHome(PageId page, NodeId proc, std::uint32_t idx,
                          std::uint64_t vt_sum, const Diff &diff,
                          bool *via_last_writer = nullptr);

    /** Apply every parked flush whose predecessor has arrived, forward
     *  those whose page migrated away, and run any migrations they
     *  trigger. Mutex held. */
    void drainParkedFlushes();

    /** A migration a flush apply asked for, with its policy trigger
     *  (for the lastWriterMigrations counter). */
    struct MigrateReq
    {
        PageId page;
        NodeId dst;
        bool viaLastWriter;
    };

    /** Perform the collected migrations that still find us the home,
     *  counting last-writer-triggered ones: one HomeMigrate per peer
     *  carries the whole batch, sent before any parked request or
     *  flush of a moved page is forwarded. Mutex held. */
    void runMigrations(const std::vector<MigrateReq> &migrate);

    /** Hand @p page's home role to @p new_home, appending its entry
     *  to each peer's batch in @p out (indexed by node). Mutex held. */
    void migrateHome(std::vector<WireWriter> &out, PageId page,
                     NodeId new_home);

    /** Encode every stored diff of @p page newer than @p req_vt (one
     *  count prefix plus (proc, idx, vtSum, diff) tuples). */
    void encodeDiffsNewerThan(WireWriter &w, PageId page,
                              const VectorTime &req_vt);

    /** Encode the timestamp runs of @p page newer than the requester's
     *  page copy @p req_vt, capped at its global vector @p req_global
     *  (the page vector prefix plus counted runs). */
    void encodeTsNewerThan(WireWriter &w, PageId page,
                           const VectorTime &req_vt,
                           const VectorTime &req_global);

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
     * Snapshot @p page's pending writers into @p responders, and into
     * @p reqs the page itself plus, with batchDiffFetch, every other
     * invalid page whose pending writers are a subset (the piggyback
     * set — those pages become fully consistent from the same round
     * trips). Also
     * snapshots the interval-log coverage into @p log_cov and, when
     * non-null, the global vector into @p global_vt, all under one
     * acquisition of the node mutex; the snapshot stays valid across
     * the blocking fetch calls because only the app thread adds or
     * clears notices.
     */
    void snapshotBatchTargets(PageId page,
                              std::vector<NodeId> &responders,
                              std::vector<BatchPageReq> &reqs,
                              VectorTime &log_cov,
                              VectorTime *global_vt = nullptr);

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

    /** Pages with an in-flight fetch (SMP nodes; guarded by nl->core,
     *  waited on via fetchCv). Always empty at threadsPerNode == 1. */
    std::set<PageId> fetchesInFlight;
    std::condition_variable fetchCv;

    // Home-based state (unused in homeless mode).
    PageHomeTable homes;
    /**
     * Homeless diff mode with gap coalescing on: piggyback this
     * node's written-page history on every lock request so the
     * granter widens writerMask *before* cutting its grant-side diff
     * (the first-contact fix — see PageMeta::writerMask).
     */
    bool announceWrites = false;
    /** Every page this node ever closed a write interval for, in page
     *  order (guarded by nl->core; only populated when
     *  announceWrites). */
    std::set<PageId> writtenPages;
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

    /** Set by preBarrier when this node validated all its pages ahead
     *  of the upcoming arrival (the local half of the GC handshake). */
    bool gcValidated = false;

    /** Barrier-manager scratch: per barrier, arrival vectors + count of
     *  departures already built (to reclaim the entry). */
    struct BarrierScratch
    {
        std::vector<VectorTime> arrivalVt;
        int validatedArrivals = 0;
        int departsBuilt = 0;
        /** Union of the arrivals' written-page announcements (page ->
         *  writer bits), rebroadcast in every departure so writers
         *  that only ever meet at barriers still learn of each other
         *  before their next diff cut (announceWrites only). */
        std::map<PageId, std::uint64_t> announcedMasks;
    };
    std::unordered_map<BarrierId, BarrierScratch> barrierScratch;
};

} // namespace dsm

#endif // DSM_CORE_LRC_RUNTIME_HH
