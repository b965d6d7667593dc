#include "core/lrc_runtime.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <span>

#include "core/checkpoint.hh"
#include "util/buffer_pool.hh"
#include "util/logging.hh"

namespace dsm {

LrcRuntime::LrcRuntime(const Deps &deps)
    : Runtime(deps),
      vt(deps.nprocs),
      ilog(deps.nprocs),
      pages(deps.arena->numPages(),
            deps.cluster->runtime.trap == TrapMethod::Twinning
                ? PageAccess::Read
                : PageAccess::ReadWrite),
      dirty(deps.arena->size(), deps.arena->pageSize()),
      homes(deps.nprocs, deps.self,
            deps.cluster->homeMigrateThreshold,
            deps.cluster->homeDecayWindow,
            deps.cluster->homeMigrateLastWriter > 0,
            deps.cluster->homeWriterSwitchThreshold,
            static_cast<std::uint32_t>(
                std::max(0, deps.cluster->homePingPongLimit)))
{
    DSM_ASSERT(cluster->runtime.model == Model::LRC, "config mismatch");
    // PendingWriters' masks are one bit per node; Cluster enforces the
    // same bound, but the shift width is this class's invariant.
    DSM_ASSERT(deps.nprocs >= 1 && deps.nprocs <= 64,
               "PendingWriters holds at most 64 nodes, got %d",
               deps.nprocs);
    cluster->runtime.validate();

    LockHooks lh;
    lh.makeRequest = [this](LockId lock, AccessMode mode) {
        return makeLockRequest(lock, mode);
    };
    lh.makeGrant = [this](LockId lock, AccessMode mode, NodeId origin,
                          WireReader &req) {
        return makeLockGrant(lock, mode, origin, req);
    };
    lh.applyGrant = [this](LockId lock, AccessMode mode, WireReader &r) {
        applyLockGrant(lock, mode, r);
    };
    locks->setHooks(std::move(lh));

    BarrierHooks bh;
    bh.makeArrival = [this](BarrierId b) { return makeArrival(b); };
    bh.mergeArrival = [this](BarrierId b, NodeId n, WireReader &r) {
        mergeArrival(b, n, r);
    };
    bh.makeDepart = [this](BarrierId b, NodeId n) {
        return makeDepart(b, n);
    };
    bh.applyDepart = [this](BarrierId b, WireReader &r) {
        applyDepart(b, r);
    };
    barriers->setHooks(std::move(bh));
}

std::string
LrcRuntime::name() const
{
    std::string n = cluster->runtime.name();
    if (homeMode())
        n += "+home";
    return n;
}

void
LrcRuntime::bindLock(LockId, std::vector<Range>)
{
    panic("LRC has no association between locks and data (Section 3.2); "
          "bindLock is an EC-only operation");
}

void
LrcRuntime::rebindLock(LockId, std::vector<Range>)
{
    panic("rebindLock is an EC-only operation");
}

LrcRuntime::PageMeta &
LrcRuntime::meta(PageId page)
{
    auto [it, inserted] = pageMeta.try_emplace(page);
    if (inserted)
        it->second.copyVt = VectorTime(numProcs);
    return it->second;
}

void
LrcRuntime::resolveCoveredNotices(PageId page, PageMeta &m)
{
    std::erase_if(m.notices, [&](const auto &notice) {
        return notice.second <= m.copyVt[notice.first];
    });
    if (m.notices.empty())
        invalidPages.erase(page);
}

bool
LrcRuntime::revalidateAfterFetch(PageId page, PageMeta &m)
{
    resolveCoveredNotices(page, m);
    if (!m.notices.empty()) {
        // With one app thread per node nothing can add a notice while
        // the fetch is in flight, so every notice it snapshotted must
        // be covered now; a leftover means the fetch lost data.
        if (threadsT == 1) {
            for (const auto &[proc, idx] : m.notices) {
                std::fprintf(stderr,
                             "[node %d] page %u leftover notice (%d,%u) "
                             "copyVt=%s vt=%s\n",
                             id, page, proc, idx,
                             m.copyVt.toString().c_str(),
                             vt.toString().c_str());
            }
            DSM_ASSERT(false,
                       "page %u still has pending notices after fetch",
                       page);
        }
        return false;
    }
    // Only None -> valid: a sibling may have validated (and even
    // re-twinned) the page while our replies were in flight. A page
    // with an open twin (a sibling is mid-interval on it) must come
    // back writable — its twin keeps capturing the local writes; Read
    // would make the next store re-fault and double-twin.
    std::lock_guard<std::mutex> sg(nl->shardFor(page));
    if (pages.access(page) == PageAccess::None) {
        pages.setAccess(page, twins.hasPage(page) ? PageAccess::ReadWrite
                                                  : PageAccess::Read);
    }
    return true;
}

BlockTimestamps &
LrcRuntime::tsOf(PageId page)
{
    auto [it, inserted] = pageTs.try_emplace(page);
    if (inserted) {
        it->second = BlockTimestamps(
            static_cast<std::uint32_t>(arena->pageSize() / 4));
    }
    return it->second;
}

void
LrcRuntime::closeInterval()
{
    // Caller holds nl->core (all protocol hooks do). Page bytes,
    // twins and dirty bits are touched under each page's memory
    // shard, so sibling writers of *other* pages proceed in parallel
    // and writers of the same page land either in this interval
    // (before the shard is taken) or re-fault into the next one.
    std::vector<PageId> modified;
    if (usesTwinning()) {
        modified = twins.twinnedPages();
    } else {
        if (cluster->hierarchicalDirty) {
            modified = dirty.dirtyPages();
        } else {
            // Flat ablation: no page-level bits, so write collection
            // must scan the word bits of the entire shared region.
            const std::uint64_t blocks = arena->used() / 4;
            clock().add(costModel().perWordScanNs * blocks);
            stats().tsWordsScanned += blocks;
            modified = dirty.dirtyPages();
        }
    }
    if (modified.empty())
        return;
    std::sort(modified.begin(), modified.end());

    const std::uint32_t idx = ++vt[id];
    IntervalRec rec;
    rec.proc = id;
    rec.idx = idx;
    rec.vt = vt;
    rec.pages = modified;

    const std::uint64_t page_words = arena->pageSize() / 4;
    const std::uint64_t vt_sum = rec.vt.sum();
    // Home mode: diffs of one close, grouped by home, flushed (or
    // deferred) below. Each carries the writer's previous interval
    // for its page so the home can apply one writer's flushes in
    // order even when forwarding chains reorder their arrival.
    std::map<NodeId, std::vector<PendingFlush>> flushes;
    std::vector<std::pair<std::pair<PageId, std::uint64_t>, DiffEntry>>
        store;
    std::unique_lock<std::mutex> hg(nl->home, std::defer_lock);
    if (homeMode())
        hg.lock();
    for (PageId p : modified) {
        const std::uint32_t prev_idx = meta(p).copyVt[id];
        meta(p).copyVt[id] = idx;
        const GlobalAddr base = arena->pageBase(p);
        std::lock_guard<std::mutex> sg(nl->shardFor(p));
        if (usesTwinning()) {
            // Twins are only dropped by closeInterval itself, which
            // always runs under nl->core, so the snapshot cannot have
            // gone stale even with sibling threads active.
            DSM_ASSERT(twins.hasPage(p),
                       "twin of page %u vanished during interval close",
                       p);
            const std::byte *cur = arena->at(base);
            const std::byte *twin = twins.pageTwin(p).data();
            clock().add(costModel().perWordDiffNs * page_words);
            const ScanKernel kernel = bestScanKernel();
            if (usesDiffing()) {
                if (homeMode() && homes.isHome(p)) {
                    auto &hs = homes.state(
                        p, static_cast<std::uint32_t>(page_words));
                    if (hs.appliedVt[id] < prev_idx) {
                        // The page migrated to us while our older
                        // flushes for it are still chasing the home
                        // chain: advancing appliedVt[id] past them
                        // here would claim intervals whose words the
                        // (regressed) home copy does not hold — and
                        // hand that claim to remote fetchers. Enter
                        // this close into the chain as a parked flush
                        // instead; drainParkedFlushes applies it in
                        // interval order once the chain catches up
                        // (the bytes are already in place, so the
                        // apply is an idempotent stamp).
                        parkedFlushes.push_back(
                            {id, idx, prev_idx, vt_sum, p,
                             Diff::create(cur, twin,
                                          static_cast<std::uint32_t>(
                                              arena->pageSize()),
                                          &stats(), kernel)});
                    } else {
                    // Our copy is the home copy and already holds the
                    // writes; stamp the word ordering sums straight
                    // off the cur-vs-twin scan, no diff needed.
                    stats().diffWordsCompared += page_words;
                    stampChangedWordSums(
                        hs.wordSums, cur, twin,
                        static_cast<std::uint32_t>(arena->pageSize()),
                        vt_sum, kernel);
                    hs.appliedVt[id] = idx;
                    // Keep the migratory classifier aware of local
                    // writes (a self interval is a writer switch when
                    // a remote one preceded it; never migrates).
                    homes.countFlushWriter(hs, id);
                    }
                } else {
                    Diff d = Diff::create(cur, twin,
                                          static_cast<std::uint32_t>(
                                              arena->pageSize()),
                                          &stats(), kernel);
                    if (!homeMode()) {
                        store.emplace_back(
                            std::make_pair(p, packTs(id, idx)),
                            DiffEntry{std::move(d), vt_sum});
                    } else {
                        flushes[homes.homeOf(p)].push_back(
                            {p, idx, prev_idx, vt_sum, std::move(d)});
                    }
                }
            } else {
                // Twin + timestamps: changed words get (self, idx).
                BlockTimestamps &ts = tsOf(p);
                stats().diffWordsCompared += page_words;
                stampChangedWords(ts, cur, twin,
                                  static_cast<std::uint32_t>(
                                      arena->pageSize()),
                                  packTs(id, idx), kernel);
            }
            twins.dropPage(p);
            // Writable only within an interval: later writes re-fault
            // and re-twin (as in TreadMarks). Never resurrect a page a
            // sibling's grant application invalidated mid-interval.
            if (pages.access(p) == PageAccess::ReadWrite)
                pages.setAccess(p, PageAccess::Read);
        } else {
            // Compiler instrumentation (+ timestamps): fold the word
            // dirty bits of this page into word timestamps.
            BlockTimestamps &ts = tsOf(p);
            clock().add(costModel().perWordScanNs * page_words);
            stats().tsWordsScanned += page_words;
            for (const Run &r :
                 dirty.dirtyRunsIn(base, arena->pageSize())) {
                const std::uint32_t rel =
                    r.start - static_cast<std::uint32_t>(base / 4);
                ts.setRange(rel, r.length, packTs(id, idx));
            }
            dirty.clearRange(base, arena->pageSize());
        }
    }

    if (!flushes.empty() && cluster->homeFlushDefer > 0) {
        // Deferred-merge policy: park this close's payloads per home
        // (still under nl->home); they ride one message per home at
        // the next communication point. A request for one of these
        // intervals parks at the home exactly like a request for an
        // in-flight flush, so the laziness costs no correctness.
        for (auto &[home, entries] : flushes) {
            auto &bucket = pendingHomeFlushes[home];
            if (!bucket.empty()) {
                // One HomeDiffFlush message that never goes on the
                // wire: this close merges into the pending one.
                stats().homeFlushesDeferred++;
            }
            for (PendingFlush &e : entries)
                bucket.push_back(std::move(e));
        }
        flushes.clear();
    }
    if (hg.owns_lock())
        hg.unlock();
    if (!store.empty()) {
        std::lock_guard<std::mutex> dg(nl->diff);
        for (auto &[key, entry] : store)
            diffStore[key] = std::move(entry);
    }

    // Eager flush to the homes (legacy default), one message per
    // home, before the interval record can leave this node: any write
    // notice another node receives refers to a flush already in
    // flight.
    for (auto &[home, entries] : flushes) {
        for (const PendingFlush &e : entries)
            stats().diffBytesSent += e.diff.wireBytes();
        stats().homeFlushesSent++;
        sendFlushMessage(home, id, entries);
    }

    {
        std::lock_guard<std::mutex> ig(nl->ilog);
        ilog.add(std::move(rec));
    }
    stats().intervalsCreated++;
}

void
LrcRuntime::invalidateFor(const IntervalRec &rec, bool fresh)
{
    for (PageId p : rec.pages) {
        PageMeta &m = meta(p);
        if (m.copyVt[rec.proc] >= rec.idx) {
            // First delivery of a notice whose data an earlier fetch
            // reply already piggybacked: the seed protocol would have
            // invalidated and refetched the page here. Counted only
            // while the feature is on so the DSM_NOTICE=0 ablation
            // reads a true zero baseline (diff replies ship eager
            // data either way; the counter measures the feature).
            if (fresh && cluster->piggybackWriteNotices &&
                pages.access(p) != PageAccess::None) {
                stats().reinvalidationsAvoided++;
            }
            continue;
        }
        const auto notice = std::make_pair(rec.proc, rec.idx);
        if (std::find(m.notices.begin(), m.notices.end(), notice) !=
            m.notices.end()) {
            continue;
        }
        m.notices.push_back(notice);
        invalidPages.insert(p);
        stats().writeNoticesReceived++;
        std::lock_guard<std::mutex> sg(nl->shardFor(p));
        if (pages.access(p) != PageAccess::None) {
            pages.setAccess(p, PageAccess::None);
            stats().pagesInvalidated++;
        }
    }
}

// ---------------------------------------------------------------------
// Write-notice piggybacking on fetch replies.

VectorTime
LrcRuntime::logCoverage() const
{
    std::lock_guard<std::mutex> ig(nl->ilog);
    VectorTime cov(numProcs);
    for (int p = 0; p < numProcs; ++p)
        cov[p] = ilog.lastIdxOf(p);
    return cov;
}

void
LrcRuntime::encodePiggybackedRecords(WireWriter &w,
                                     const VectorTime &req_log)
{
    if (!cluster->piggybackWriteNotices) {
        w.putU32(0);
        return;
    }
    // Everything the requester's log lacks, dense per processor (so
    // the requester's IntervalLog::add sees no gaps). The GC floor
    // cannot exceed the requester's coverage: pruning waits for a
    // barrier every node passed with its pages validated, and a
    // fetching node cannot be inside that barrier.
    //
    // Deferred-flush mode: cap our *own* records at the last flushed
    // interval. A record whose flush still sits in pendingHomeFlushes
    // must not leave through this service-thread path — the requester
    // could park at a home that waits for our flush while our app
    // thread blocks on the requester (every other exit for records —
    // lock grants, barrier arrivals — flushes first).
    const VectorTime *cap = nullptr;
    VectorTime flushed_cap;
    if (homeMode() && cluster->homeFlushDefer > 0) {
        flushed_cap = VectorTime(numProcs);
        for (int p = 0; p < numProcs; ++p) {
            flushed_cap[p] = p == id
                                 ? ownIdxFlushed.load(
                                       std::memory_order_relaxed)
                                 : ~std::uint32_t{0};
        }
        cap = &flushed_cap;
    }
    std::lock_guard<std::mutex> ig(nl->ilog);
    auto recs = ilog.recordsAfter(req_log, cap);
    w.putU32(static_cast<std::uint32_t>(recs.size()));
    for (const IntervalRec *rec : recs) {
        encodeRecord(w, *rec);
        stats().noticesPiggybacked += rec->pages.size();
    }
}

void
LrcRuntime::decodePiggybackedRecords(WireReader &r,
                                     std::vector<IntervalRec> &out)
{
    const std::uint32_t nrecs = r.getU32();
    for (std::uint32_t i = 0; i < nrecs; ++i)
        out.push_back(decodeRecord(r));
}

std::vector<const IntervalRec *>
LrcRuntime::ingestPiggybackedRecords(std::vector<IntervalRec> &recs)
{
    // Caller holds nl->core; the returned references stay valid
    // because pruning (applyDepart) also runs under core.
    std::lock_guard<std::mutex> ig(nl->ilog);
    std::vector<const IntervalRec *> fresh;
    for (IntervalRec &rec : recs) {
        bool was_new = false;
        const IntervalRec &stored = ilog.add(std::move(rec), &was_new);
        // No notices are added here: piggybacked records carry
        // ordering knowledge early, while invalidation stays as lazy
        // as the seed protocol.
        if (was_new)
            fresh.push_back(&stored);
    }
    return fresh;
}

void
LrcRuntime::countAvoidedReinvalidations(
    const std::vector<const IntervalRec *> &fresh,
    const std::vector<BatchPageReq> &fetched)
{
    for (const IntervalRec *rec : fresh) {
        for (const BatchPageReq &pr : fetched) {
            if (!std::binary_search(rec->pages.begin(),
                                    rec->pages.end(), pr.page)) {
                continue;
            }
            PageMeta &m = meta(pr.page);
            if (m.copyVt[rec->proc] >= rec->idx &&
                pages.access(pr.page) != PageAccess::None) {
                stats().reinvalidationsAvoided++;
            }
        }
    }
}

void
LrcRuntime::applyPiggybackedRecords(
    std::vector<IntervalRec> &recs,
    const std::vector<BatchPageReq> &fetched)
{
    countAvoidedReinvalidations(ingestPiggybackedRecords(recs), fetched);
}

void
LrcRuntime::encodeRecord(WireWriter &w, const IntervalRec &rec)
{
    w.putU16(static_cast<std::uint16_t>(rec.proc));
    w.putU32(rec.idx);
    rec.vt.encode(w);
    w.putU32(static_cast<std::uint32_t>(rec.pages.size()));
    for (PageId p : rec.pages)
        w.putU32(p);
}

IntervalRec
LrcRuntime::decodeRecord(WireReader &r)
{
    IntervalRec rec;
    rec.proc = static_cast<NodeId>(r.getU16());
    rec.idx = r.getU32();
    rec.vt = VectorTime::decode(r);
    rec.pages.resize(r.getU32());
    for (PageId &p : rec.pages)
        p = r.getU32();
    return rec;
}

// ---------------------------------------------------------------------
// Lock hooks.

std::vector<std::byte>
LrcRuntime::makeLockRequest(LockId, AccessMode)
{
    std::lock_guard<std::mutex> g(nl->core);
    // An acquire begins a new interval (Section 5.1). The close's
    // flush payload may stay deferred across the request: only our
    // vector travels with it, no interval records leave, and a later
    // fetch of our own invalidated page flushes first
    // (fetchFromHome) — this is exactly the window where a releaser
    // accumulates several closes into one merged flush per home.
    closeInterval();
    WireWriter w;
    vt.encode(w);
    return w.take();
}

std::vector<std::byte>
LrcRuntime::makeLockGrant(LockId, AccessMode, NodeId, WireReader &req)
{
    std::lock_guard<std::mutex> g(nl->core);
    VectorTime req_vt = VectorTime::decode(req);
    closeInterval();
    // The grant below carries our interval records: every deferred
    // flush they refer to must be in flight before the grant leaves
    // (the eager protocol's invariant, re-established lazily).
    if (homeMode())
        flushPendingHomeFlushes();

    WireWriter w;
    vt.encode(w);
    // Send only records within my own vector. As the centralized
    // barrier manager, my log can briefly hold records merged from
    // other nodes' *next-barrier* arrivals that my vector does not yet
    // cover; leaking those would hand the requester notices it cannot
    // order or fetch against.
    std::lock_guard<std::mutex> ig(nl->ilog);
    auto recs = ilog.recordsAfter(req_vt, &vt);
    w.putU32(static_cast<std::uint32_t>(recs.size()));
    for (const IntervalRec *rec : recs) {
        encodeRecord(w, *rec);
        stats().writeNoticesSent += rec->pages.size();
    }
    return w.take();
}

void
LrcRuntime::applyLockGrant(LockId, AccessMode, WireReader &r)
{
    std::lock_guard<std::mutex> g(nl->core);
    VectorTime granter_vt = VectorTime::decode(r);
    const std::uint32_t nrecs = r.getU32();
    for (std::uint32_t i = 0; i < nrecs; ++i) {
        IntervalRec incoming = decodeRecord(r);
        DSM_ASSERT(incoming.idx <= granter_vt[incoming.proc],
                   "lock grant carries record (%d,%u) beyond its vector "
                   "%s",
                   incoming.proc, incoming.idx,
                   granter_vt.toString().c_str());
        bool fresh = false;
        const IntervalRec *rec;
        {
            std::lock_guard<std::mutex> ig(nl->ilog);
            rec = &ilog.add(std::move(incoming), &fresh);
        }
        invalidateFor(*rec, fresh);
    }
    vt.mergeMax(granter_vt);
}

// ---------------------------------------------------------------------
// Barrier hooks.

std::vector<std::byte>
LrcRuntime::makeArrival(BarrierId)
{
    std::lock_guard<std::mutex> g(nl->core);
    closeInterval();
    // Same invariant as lock grants: the records in this arrival (and
    // in the departures built from it) refer to flushes already in
    // flight.
    if (homeMode())
        flushPendingHomeFlushes();
    WireWriter w;
    vt.encode(w);
    // GC handshake, local half: did this node validate every invalid
    // page before arriving? (The interval just closed above is our own
    // data and trivially applied locally, so the flag still holds.)
    w.putU8(gcValidated ? 1 : 0);
    gcValidated = false;
    // Send my own records created since my previous barrier; every
    // record reaches the manager from its author.
    std::lock_guard<std::mutex> ig(nl->ilog);
    auto recs = ilog.recordsOfAfter(id, lastBarrierSentIdx);
    w.putU32(static_cast<std::uint32_t>(recs.size()));
    for (const IntervalRec *rec : recs) {
        encodeRecord(w, *rec);
        stats().writeNoticesSent += rec->pages.size();
    }
    lastBarrierSentIdx = ilog.lastIdxOf(id);
    return w.take();
}

void
LrcRuntime::mergeArrival(BarrierId barrier, NodeId node, WireReader &r)
{
    // barrierScratch is touched only by the service thread (this node
    // is the barrier manager); the interval log is shared.
    BarrierScratch &scratch = barrierScratch[barrier];
    if (scratch.arrivalVt.empty())
        scratch.arrivalVt.assign(numProcs, VectorTime(numProcs));
    scratch.arrivalVt[node] = VectorTime::decode(r);
    if (r.getU8())
        scratch.validatedArrivals++;
    const std::uint32_t nrecs = r.getU32();
    std::lock_guard<std::mutex> ig(nl->ilog);
    for (std::uint32_t i = 0; i < nrecs; ++i)
        ilog.add(decodeRecord(r));
}

std::vector<std::byte>
LrcRuntime::makeDepart(BarrierId barrier, NodeId node)
{
    BarrierScratch &scratch = barrierScratch[barrier];
    VectorTime global(numProcs);
    for (const VectorTime &avt : scratch.arrivalVt)
        global.mergeMax(avt);

    // GC handshake, global half: when every node arrived validated,
    // the elementwise minimum of the arrival vectors bounds what all
    // nodes have applied to all their copies; everything at or below
    // it can be discarded everywhere. Otherwise send the zero vector
    // (pruneThrough of zeros is a no-op).
    VectorTime gc_vt(numProcs);
    if (scratch.validatedArrivals == numProcs) {
        gc_vt = scratch.arrivalVt[0];
        for (const VectorTime &avt : scratch.arrivalVt) {
            for (int p = 0; p < numProcs; ++p)
                gc_vt[p] = std::min(gc_vt[p], avt[p]);
        }
    }

    WireWriter w;
    global.encode(w);
    gc_vt.encode(w);
    // Cap at the departure's vector, as lock grants cap at vt: the
    // manager's own departure can reach its app thread (reply bypass)
    // while this thread still builds the others, and that app thread
    // may close its next interval meanwhile. A record beyond global
    // would give the receiver a notice it can neither order nor fetch
    // against, and the next barrier would send it again.
    std::lock_guard<std::mutex> ig(nl->ilog);
    auto recs = ilog.recordsAfter(scratch.arrivalVt[node], &global);
    w.putU32(static_cast<std::uint32_t>(recs.size()));
    for (const IntervalRec *rec : recs) {
        encodeRecord(w, *rec);
        stats().writeNoticesSent += rec->pages.size();
    }

    if (++scratch.departsBuilt == numProcs)
        barrierScratch.erase(barrier);
    return w.take();
}

void
LrcRuntime::applyDepart(BarrierId, WireReader &r)
{
    std::lock_guard<std::mutex> g(nl->core);
    VectorTime global = VectorTime::decode(r);
    VectorTime gc_vt = VectorTime::decode(r);
    const std::uint32_t nrecs = r.getU32();
    for (std::uint32_t i = 0; i < nrecs; ++i) {
        IntervalRec incoming = decodeRecord(r);
        DSM_ASSERT(incoming.idx <= global[incoming.proc],
                   "barrier departure carries record (%d,%u) beyond "
                   "its vector %s",
                   incoming.proc, incoming.idx,
                   global.toString().c_str());
        bool fresh = false;
        const IntervalRec *rec;
        {
            std::lock_guard<std::mutex> ig(nl->ilog);
            rec = &ilog.add(std::move(incoming), &fresh);
        }
        invalidateFor(*rec, fresh);
    }
    // Records the manager merged from *us* need no invalidation, but
    // records of other processors we already knew might still have
    // pending notices; invalidateFor is idempotent either way.
    vt.mergeMax(global);

    // The departure records above all carry idx > our arrival vector
    // >= gc_vt, so pruning cannot touch anything still pending.
    std::uint64_t pruned;
    {
        std::lock_guard<std::mutex> ig(nl->ilog);
        pruned = ilog.pruneThrough(gc_vt);
    }
    if (pruned > 0) {
        stats().gcRecordsReclaimed += pruned;
        stats().gcRounds++;
        std::uint64_t diffs_pruned = 0;
        std::lock_guard<std::mutex> dg(nl->diff);
        for (auto it = diffStore.begin(); it != diffStore.end();) {
            const std::uint64_t key = it->first.second;
            if (tsInterval(key) <= gc_vt[tsProc(key)]) {
                it = diffStore.erase(it);
                ++diffs_pruned;
            } else {
                ++it;
            }
        }
        stats().gcDiffsReclaimed += diffs_pruned;
    }
}

// ---------------------------------------------------------------------
// Access layer.

void
LrcRuntime::preBarrier()
{
    // Barrier-time GC, validation half (TreadMarks-style): once the
    // interval log is big enough, bring every invalid page current so
    // that all records within our vector are fully applied locally.
    // Log sizes converge at barriers, so all nodes cross the threshold
    // within one barrier of each other and the handshake completes.
    if (!cluster->gcAtBarriers)
        return;
    std::vector<PageId> invalid;
    {
        std::lock_guard<std::mutex> g(nl->core);
        std::size_t records;
        {
            std::lock_guard<std::mutex> ig(nl->ilog);
            records = ilog.totalRecords();
        }
        if (records < cluster->gcIntervalThreshold)
            return;
        // The maintained invalid-page set is already sorted and holds
        // exactly the pages with pending notices.
        invalid.assign(invalidPages.begin(), invalidPages.end());
    }
    for (PageId p : invalid) {
        bool still_invalid;
        {
            // A batched fetch may have validated p as a piggyback of
            // an earlier page in this loop (or, on SMP nodes, a
            // sibling thread's pre-barrier pass got there first).
            std::lock_guard<std::mutex> g(nl->core);
            still_invalid = !meta(p).notices.empty();
        }
        if (!still_invalid)
            continue;
        // Proactive fetch, not an access fault: skip fetchPage's trap
        // accounting (accessMisses / pageFaultNs) so GC-on vs GC-off
        // ablations attribute this traffic to GC, not to misses.
        fetchPageData(p);
    }
    {
        std::lock_guard<std::mutex> g(nl->core);
        gcValidated = true;
    }
}

void
LrcRuntime::ensurePresent(PageId page)
{
    // The access bits are atomics: the valid-page fast path takes no
    // lock at all. fetchPage revalidates under the protocol locks.
    if (pages.access(page) == PageAccess::None)
        fetchPage(page);
}

void
LrcRuntime::doRead(GlobalAddr addr, void *dst, std::size_t size)
{
    if (size == 0)
        return;
    const PageId first = arena->pageOf(addr);
    const PageId last = arena->pageOf(addr + size - 1);
    for (PageId p = first; p <= last; ++p)
        ensurePresent(p);
    // The copy itself holds the shards: the home-based protocol (and,
    // on SMP nodes, sibling fetches) applies remote writes to valid
    // pages from other threads, and a torn word must never reach the
    // application.
    NodeLocks::ShardSpan span(*nl, first, last);
    std::memcpy(dst, arena->at(addr), size);
}

void
LrcRuntime::doWrite(GlobalAddr addr, const void *src, std::size_t size,
                    bool bulk)
{
    if (size == 0)
        return;
    // Instrumentation charges are per call (identical to the
    // monolithic-mutex accounting); trapping and the store run per
    // page under that page's memory shard, so sibling writers of
    // other pages never serialize here and an interval close sees
    // either twin+store or neither.
    if (!usesTwinning()) {
        if (bulk) {
            const std::uint64_t blocks = (size + 3) / 4;
            clock().add(costModel().dirtyStoreNs * blocks / 2);
            stats().dirtyStores += blocks;
        } else {
            clock().add(costModel().dirtyStoreNs);
            stats().dirtyStores++;
        }
    }
    const PageId first = arena->pageOf(addr);
    const PageId last = arena->pageOf(addr + size - 1);
    const auto *bytes = static_cast<const std::byte *>(src);
    for (PageId p = first; p <= last; ++p) {
        const GlobalAddr page_lo =
            std::max<GlobalAddr>(addr, arena->pageBase(p));
        const GlobalAddr page_hi =
            std::min<GlobalAddr>(addr + size,
                                 arena->pageBase(p) + arena->pageSize());
        for (;;) {
            ensurePresent(p);
            std::lock_guard<std::mutex> sg(nl->shardFor(p));
            if (pages.access(p) == PageAccess::None) {
                // A sibling's grant application invalidated the page
                // between the fetch and the trap (SMP nodes only);
                // writing into the stale copy could lose the store to
                // the next full-page fetch. Refetch and retry.
                continue;
            }
            if (!usesTwinning()) {
                // Hierarchical software dirty bits: word + page level.
                dirty.markRange(page_lo, page_hi - page_lo);
            } else if (pages.access(p) == PageAccess::Read) {
                // Twinning: write fault on a non-writable page.
                const std::uint64_t words = arena->pageSize() / 4;
                clock().add(costModel().pageFaultNs +
                            costModel().perWordTwinNs * words);
                stats().pageFaults++;
                stats().twinsCreated++;
                stats().twinWordsCopied += words;
                twins.makePage(p, arena->at(arena->pageBase(p)),
                               arena->pageSize());
                pages.setAccess(p, PageAccess::ReadWrite);
            }
            std::memcpy(arena->at(page_lo), bytes + (page_lo - addr),
                        page_hi - page_lo);
            break;
        }
    }
}

// ---------------------------------------------------------------------
// Access-miss servicing.

void
LrcRuntime::fetchPage(PageId page)
{
    stats().accessMisses++;
    clock().add(costModel().pageFaultNs);
    fetchPageData(page);
}

void
LrcRuntime::fetchPageData(PageId page)
{
    // One fetch per page at a time. Siblings (SMP nodes) that miss the
    // same page wait for the in-flight fetch instead of issuing
    // duplicate request rounds.
    {
        std::unique_lock<std::mutex> g(nl->core);
        while (fetchesInFlight.count(page) != 0) {
            fetchCv.wait(g);
            if (pages.access(page) != PageAccess::None)
                return;
        }
        if (pages.access(page) != PageAccess::None)
            return;
        fetchesInFlight.insert(page);
    }
    // A fetch validates the page unless a sibling's concurrent grant
    // application raced a fresh notice in; retry until current.
    do {
        if (homeMode())
            fetchFromHome(page);
        else if (usesDiffing())
            fetchDiffs(page);
        else
            fetchTimestamps(page);
    } while (pages.access(page) == PageAccess::None);
    {
        std::lock_guard<std::mutex> g(nl->core);
        fetchesInFlight.erase(page);
    }
    fetchCv.notify_all();
}

namespace {

/** One diff pulled off the wire, tagged with its page and interval. */
struct FetchedDiff
{
    PageId page;
    NodeId proc;
    std::uint32_t idx;
    std::uint64_t vtSum;
    Diff diff;
    bool applied = false; ///< survived the duplicate check; store it
};

/** HomePageRequest payload; shared by the fresh-request and the two
 *  forwarding paths so the wire layout lives in one place. */
std::vector<std::byte>
encodePageRequest(NodeId origin, PageId page, const VectorTime &need,
                  const VectorTime &req_log)
{
    WireWriter w;
    w.putU16(static_cast<std::uint16_t>(origin));
    w.putU32(page);
    need.encode(w);
    req_log.encode(w);
    return w.take();
}

/** Happens-before linear extension (sum order) within each page. */
void
sortForApply(std::vector<FetchedDiff> &fetched)
{
    std::sort(fetched.begin(), fetched.end(),
              [](const FetchedDiff &a, const FetchedDiff &b) {
                  if (a.vtSum != b.vtSum)
                      return a.vtSum < b.vtSum;
                  if (a.proc != b.proc)
                      return a.proc < b.proc;
                  return a.idx < b.idx;
              });
}

/**
 * One page's pending writers (bit per node) and the latest pending
 * interval of each. When routing, a writer u is dominated when another
 * pending writer's latest pending record knows top[u] (vt[u] >=
 * top[u]): that writer applied and stored u's diffs before it wrote
 * the page. asked holds the undominated writers; server[u] names the
 * first of them that dominates u. Fixed-size (at most 64 nodes), so
 * scanning a page allocates nothing.
 */
struct PendingWriters
{
    std::uint64_t pending = 0;
    std::uint64_t asked = 0;
    std::array<std::uint32_t, 64> top{};
    std::array<NodeId, 64> server{};
};

/** Fill @p pw from a page's @p notices and copy vector @p copy_vt.
 *  @p route applies the domination rule against @p ilog, whose lock
 *  the caller holds (else every pending writer is asked). */
void
pendingWriters(const std::vector<std::pair<NodeId, std::uint32_t>> &notices,
               const VectorTime &copy_vt, bool route,
               const IntervalLog &ilog, PendingWriters &pw)
{
    pw.pending = 0;
    for (const auto &[proc, idx] : notices) {
        if (idx <= copy_vt[proc])
            continue;
        const std::uint64_t bit = std::uint64_t{1} << proc;
        pw.top[proc] =
            (pw.pending & bit) ? std::max(pw.top[proc], idx) : idx;
        pw.pending |= bit;
    }
    pw.asked = pw.pending;
    if (!route)
        return;
    // Each writer's latest pending record; one this node never saw or
    // GC pruned dominates nothing (its writer is simply asked).
    std::array<const IntervalRec *, 64> rec{};
    for (std::uint64_t ws = pw.pending; ws != 0; ws &= ws - 1) {
        const NodeId w = std::countr_zero(ws);
        rec[w] = ilog.find(w, pw.top[w]);
    }
    const auto dominates = [&](NodeId w, NodeId u) {
        return w != u && rec[w] && rec[w]->vt[u] >= pw.top[u];
    };
    const auto first_dominator = [&](NodeId u, std::uint64_t among) {
        for (; among != 0; among &= among - 1) {
            const NodeId w = std::countr_zero(among);
            if (dominates(w, u))
                return w;
        }
        return NodeId{-1};
    };
    for (std::uint64_t us = pw.pending; us != 0; us &= us - 1) {
        const NodeId u = std::countr_zero(us);
        if (first_dominator(u, pw.pending) >= 0)
            pw.asked &= ~(std::uint64_t{1} << u);
    }
    // Record vectors are causally closed, so domination is transitive
    // and acyclic: every dominated writer has an undominated one above
    // it.
    for (std::uint64_t us = pw.pending & ~pw.asked; us != 0;
         us &= us - 1) {
        const NodeId u = std::countr_zero(us);
        pw.server[u] = first_dominator(u, pw.asked);
        DSM_ASSERT(pw.server[u] >= 0,
                   "writer %d dominated but no undominated writer "
                   "dominates it",
                   u);
    }
}

} // namespace

VectorTime
LrcRuntime::BatchPageReq::askedOf(NodeId q) const
{
    VectorTime v = need;
    for (const auto &[writer, owner] : owners) {
        if (owner == q)
            v[writer] = copyVt[writer];
    }
    return v;
}

void
LrcRuntime::snapshotBatchTargets(PageId page,
                                 std::vector<NodeId> &responders,
                                 std::vector<BatchPageReq> &reqs,
                                 VectorTime &log_cov,
                                 VectorTime *global_vt)
{
    std::lock_guard<std::mutex> g(nl->core);
    log_cov = logCoverage();
    if (global_vt)
        *global_vt = vt;
    // Diff mode routes by the interval records' vectors (DESIGN.md
    // §10), but only at T == 1: on SMP nodes a record can know an
    // interval its writer's copy lacks, so every pending writer is
    // asked there. Timestamp responders send current page bytes rather
    // than stored diffs; that mode keeps its per-page copy vector.
    const bool diffs = usesDiffing();
    const bool route = diffs && threadsT == 1;
    std::unique_lock<std::mutex> ig(nl->ilog, std::defer_lock);
    if (route)
        ig.lock();
    PendingWriters pw;
    const auto add_req = [&](PageId p, const PageMeta &pm) {
        BatchPageReq pr{p, pm.copyVt};
        if (diffs) {
            pr.need = pm.copyVt;
            for (std::uint64_t ws = pw.pending; ws != 0; ws &= ws - 1) {
                const NodeId w = std::countr_zero(ws);
                pr.need[w] = pw.top[w];
                pr.owners.emplace_back(
                    w, (pw.asked >> w & 1) ? w : pw.server[w]);
            }
        }
        reqs.push_back(std::move(pr));
    };

    const PageMeta &m = meta(page);
    pendingWriters(m.notices, m.copyVt, route, ilog, pw);
    std::uint64_t asked = 0;
    for (const auto &[proc, idx] : m.notices) {
        const std::uint64_t bit = std::uint64_t{1} << proc;
        if (idx > m.copyVt[proc] && proc != id && (pw.asked & bit) &&
            !(asked & bit)) {
            asked |= bit;
            responders.push_back(proc);
        }
    }
    add_req(page, m);
    if (!cluster->batchDiffFetch)
        return;
    // Piggyback candidates come from the maintained invalid-page set
    // (exactly the pages with pending notices), not a walk over every
    // page ever touched: O(pending) under the node mutex.
    for (PageId p2 : invalidPages) {
        if (p2 == page)
            continue;
        const PageMeta &m2 = meta(p2);
        pendingWriters(m2.notices, m2.copyVt, route, ilog, pw);
        if ((pw.asked & ~asked) == 0)
            add_req(p2, m2);
    }
}

void
LrcRuntime::fetchDiffs(PageId page)
{
    std::vector<NodeId> responders;
    std::vector<BatchPageReq> reqs;
    VectorTime log_cov;
    snapshotBatchTargets(page, responders, reqs, log_cov);

    std::vector<FetchedDiff> fetched;
    std::vector<IntervalRec> precs;
    for (NodeId q : responders) {
        WireWriter w;
        log_cov.encode(w);
        w.putU32(static_cast<std::uint32_t>(reqs.size()));
        for (const BatchPageReq &pr : reqs) {
            w.putU32(pr.page);
            pr.askedOf(q).encode(w);
        }
        stats().diffRequestsSent++;
        Message reply = ep->call(q, MsgType::DiffBatchRequest, w.take());
        WireReader r(reply.payload);
        const std::uint32_t npages = r.getU32();
        for (std::uint32_t i = 0; i < npages; ++i) {
            const PageId p = r.getU32();
            const std::uint32_t n = r.getU32();
            for (std::uint32_t j = 0; j < n; ++j) {
                FetchedDiff f;
                f.page = p;
                f.proc = static_cast<NodeId>(r.getU16());
                f.idx = r.getU32();
                f.vtSum = r.getU64();
                f.diff = Diff::decode(r);
                fetched.push_back(std::move(f));
            }
        }
        decodePiggybackedRecords(r, precs);
        BufferPool::instance().release(std::move(reply.payload));
    }

    // Apply in a linear extension of happens-before (sum order), with
    // word-granularity merging for concurrent multi-writer diffs.
    // Sorting globally keeps the per-page subsequences ordered.
    sortForApply(fetched);

    std::lock_guard<std::mutex> g(nl->core);
    for (FetchedDiff &f : fetched) {
        PageMeta &m = meta(f.page);
        if (f.idx <= m.copyVt[f.proc]) {
            stats().diffsDiscarded++; // another responder sent it too
            continue;
        }
        {
            std::lock_guard<std::mutex> sg(nl->shardFor(f.page));
            std::byte *base = arena->at(arena->pageBase(f.page));
            f.diff.apply(base, &stats());
            if (twins.hasPage(f.page)) {
                // SMP nodes: a sibling's interval is open on this
                // page; mirror the remote words into the twin so the
                // next cur-vs-twin diff still captures exactly the
                // local writes (same shadowing as the home's
                // applyDiffGuarded).
                f.diff.apply(twins.pageTwinMut(f.page).data());
            }
        }
        clock().add(costModel().perWordApplyNs *
                    ((f.diff.dataBytes() + 3) / 4));
        m.copyVt[f.proc] = std::max(m.copyVt[f.proc], f.idx);
        f.applied = true;
    }
    for (const BatchPageReq &pr : reqs) {
        revalidateAfterFetch(pr.page, meta(pr.page));
        if (pr.page != page)
            stats().diffPagesPiggybacked++;
    }
    {
        // Save for possible future transmission (Section 5.2).
        std::lock_guard<std::mutex> dg(nl->diff);
        for (FetchedDiff &f : fetched) {
            if (f.applied) {
                diffStore[{f.page, packTs(f.proc, f.idx)}] = {
                    std::move(f.diff), f.vtSum};
            }
        }
    }
    applyPiggybackedRecords(precs, reqs);
}

void
LrcRuntime::installFullPage(PageId page, WireReader &r)
{
    std::lock_guard<std::mutex> sg(nl->shardFor(page));
    std::byte *base = arena->at(arena->pageBase(page));
    if (twins.hasPage(page)) {
        // A local interval is open on this page and its uncommitted
        // writes live only in the local copy. The incoming copy
        // replaces the whole page, so re-base both the copy and the
        // twin on it and replay the local writes on top — the next
        // interval close still captures exactly them.
        Diff local = Diff::create(base, twins.pageTwin(page).data(),
                                  static_cast<std::uint32_t>(
                                      arena->pageSize()));
        r.getBytes(twins.pageTwinMut(page).data(), arena->pageSize());
        std::memcpy(base, twins.pageTwin(page).data(),
                    arena->pageSize());
        local.apply(base);
    } else {
        r.getBytes(base, arena->pageSize());
    }
}

void
LrcRuntime::fetchFromHome(PageId page)
{
    // The wait runs on nl->core (homeCv's mutex); the home table is
    // probed under nl->home inside (core -> home is in lock order).
    auto is_home = [&] {
        std::lock_guard<std::mutex> hg(nl->home);
        return homes.isHome(page);
    };
    auto home_of = [&] {
        std::lock_guard<std::mutex> hg(nl->home);
        return homes.homeOf(page);
    };
    std::unique_lock<std::mutex> g(nl->core);
    for (;;) {
        // Deferred flushes first: our own unsent flush may be exactly
        // what this fetch would otherwise wait for — at a remote home
        // (it parks our request until the flush arrives) or at
        // ourselves (a migration handed us the home role while our
        // pre-migration flushes sat deferred; they apply in place and
        // restore access).
        flushPendingHomeFlushes();
        if (pages.access(page) != PageAccess::None)
            return; // resolved concurrently (flush apply or migration)

        if (is_home()) {
            // Our copy is the home copy: every pending notice names an
            // interval whose flush was sent before the notice could
            // reach us, so the service thread will apply it in place.
            // (A concurrent migration away hands the role — and the
            // wait — over to the remote-fetch branch below.)
            homeCv.wait(g, [&] {
                return pages.access(page) != PageAccess::None ||
                       !is_home();
            });
            continue;
        }

        const NodeId home = home_of();
        VectorTime need;
        {
            PageMeta &m = meta(page);
            need = m.copyVt;
            for (const auto &[proc, idx] : m.notices)
                need[proc] = std::max(need[proc], idx);
        }
        VectorTime log_cov = logCoverage();
        g.unlock();
        stats().pageFetchRoundTrips++;
        bool home_down = false;
        Message reply =
            ep->call(home, MsgType::HomePageRequest,
                     encodePageRequest(id, page, need, log_cov),
                     &home_down);
        if (home_down) {
            // Typed degradation: the home was declared down mid-wait
            // and the call abandoned. Re-host the page from the dead
            // home's latest persisted checkpoint image when the cut's
            // vector frontier covers every interval we need — at a
            // barrier cut all flushes within the frontier are applied
            // to the home copy, so those bytes are exactly what the
            // live home would have answered with. Otherwise loop and
            // retry: the victim recovers and drains its parked inbox.
            CheckpointCoordinator::PersistedImage img;
            if (!cluster->ckptDir.empty()) {
                img = CheckpointCoordinator::loadLatestImage(
                    cluster->ckptDir, home);
            }
            g.lock();
            if (img.epoch > 0) {
                VectorTime cut(numProcs);
                for (int p = 0; p < numProcs; ++p) {
                    if (static_cast<std::size_t>(p) <
                        img.frontier.size())
                        cut[p] = img.frontier[p];
                }
                // Arena image lives at a fixed offset: 28-byte blob
                // header (magic, version, id, epoch), then the
                // serialized used-bytes count, then the raw bytes.
                constexpr std::size_t kArenaOff = 28 + 8;
                const std::size_t base = arena->pageBase(page);
                if (cut.dominates(need) &&
                    img.image.size() >= kArenaOff + base +
                                            arena->pageSize()) {
                    WireReader pr(std::span<const std::byte>(
                        img.image.data() + kArenaOff + base,
                        arena->pageSize()));
                    installFullPage(page, pr);
                    clock().add(costModel().perWordApplyNs *
                                (arena->pageSize() / 4));
                    PageMeta &m = meta(page);
                    m.copyVt.mergeMax(cut);
                    if (revalidateAfterFetch(page, m)) {
                        stats().rehostedFetches++;
                        return;
                    }
                }
            }
            continue;
        }
        g.lock();
        if (is_home()) {
            // The page migrated to us while the request was in flight
            // (the reply is our own copy, possibly older than what the
            // migration installed): discard it and wait as the home.
            BufferPool::instance().release(std::move(reply.payload));
            continue;
        }
        WireReader r(reply.payload);
        VectorTime got = VectorTime::decode(r);
        if (!got.dominates(meta(page).copyVt)) {
            // The replying home lost the role while our request was in
            // flight and our copy has moved past its answer meanwhile
            // (a sibling's interval close, or a migration that touched
            // us and moved on). The home parks requests until it
            // covers `need`, so a current reply always dominates the
            // copy vector the request was built from — a reply that
            // does not is stale, and installing it would put bytes on
            // the page that are older than what copyVt claims.
            // Refetch against the current mapping.
            BufferPool::instance().release(std::move(reply.payload));
            continue;
        }
        installFullPage(page, r);
        std::vector<IntervalRec> precs;
        decodePiggybackedRecords(r, precs);
        clock().add(costModel().perWordApplyNs *
                    (arena->pageSize() / 4));
        PageMeta &m = meta(page);
        m.copyVt.mergeMax(got);
        revalidateAfterFetch(page, m);
        BufferPool::instance().release(std::move(reply.payload));
        applyPiggybackedRecords(precs, {{page, VectorTime()}});
        return;
    }
}

void
LrcRuntime::fetchTimestamps(PageId page)
{
    // One batched request per writer: snapshot the target page's
    // pending writers, piggyback (with batchDiffFetch) every other
    // invalid page whose pending writers are a subset, and reuse the
    // DiffBatchRequest framing for timestamp runs.
    std::vector<NodeId> responders;
    std::vector<BatchPageReq> reqs;
    VectorTime log_cov;
    VectorTime global_vt;
    snapshotBatchTargets(page, responders, reqs, log_cov, &global_vt);

    std::map<PageId, std::vector<TsReplySet>> replies;
    std::vector<IntervalRec> precs;
    for (NodeId q : responders) {
        WireWriter w;
        global_vt.encode(w);
        log_cov.encode(w);
        w.putU32(static_cast<std::uint32_t>(reqs.size()));
        for (const BatchPageReq &pr : reqs) {
            w.putU32(pr.page);
            pr.copyVt.encode(w);
        }
        stats().tsRequestsSent++;
        Message msg = ep->call(q, MsgType::PageTsBatchRequest, w.take());
        WireReader r(msg.payload);
        const std::uint32_t npages = r.getU32();
        for (std::uint32_t i = 0; i < npages; ++i) {
            const PageId p = r.getU32();
            TsReplySet reply;
            reply.pageVt = VectorTime::decode(r);
            const std::uint32_t nruns = r.getU32();
            for (std::uint32_t j = 0; j < nruns; ++j) {
                TsRun run;
                run.firstBlock = r.getU32();
                run.numBlocks = r.getU32();
                run.ts = r.getU64();
                std::vector<std::byte> bytes(std::size_t{run.numBlocks} *
                                             4);
                r.getBytes(bytes.data(), bytes.size());
                reply.runs.push_back(run);
                reply.data.push_back(std::move(bytes));
            }
            replies[p].push_back(std::move(reply));
        }
        decodePiggybackedRecords(r, precs);
        BufferPool::instance().release(std::move(msg.payload));
    }

    std::lock_guard<std::mutex> g(nl->core);
    // Records first: the happens-before checks in applyTsReplies need
    // them to order stamps beyond our own vector (the cap those
    // records replace). Avoided re-invalidations are counted after the
    // copies are current.
    auto fresh_recs = ingestPiggybackedRecords(precs);
    for (const BatchPageReq &pr : reqs) {
        applyTsReplies(pr.page, replies[pr.page]);
        if (pr.page != page)
            stats().tsPagesPiggybacked++;
    }
    countAvoidedReinvalidations(fresh_recs, reqs);
}

void
LrcRuntime::applyTsReplies(PageId page,
                           const std::vector<TsReplySet> &replies)
{
    // Caller holds nl->core; the word merge additionally holds the
    // interval-log lock (happens-before probes) and the page's shard
    // (byte writes vs. concurrent readers/writers).
    PageMeta &m = meta(page);
    BlockTimestamps &ts = tsOf(page);

    // Happens-before check via the interval log: is candidate (p, i)
    // already covered by the interval that produced current (q, j)?
    // A record the GC pruned was globally applied before every
    // candidate a responder can still send, so its vector could not
    // have covered the candidate — "not dominated" is exact, and it
    // matches the seed's treatment of unknown records.
    auto dominated = [&](std::uint64_t cand, std::uint64_t cur) {
        if (cur == 0)
            return false;
        const NodeId q = tsProc(cur);
        const std::uint32_t j = tsInterval(cur);
        if (j == 0)
            return false;
        const IntervalRec *rec = ilog.find(q, j);
        if (!rec)
            return false;
        return rec->vt[tsProc(cand)] >= tsInterval(cand);
    };

    std::uint64_t words_applied = 0;
    for (const TsReplySet &reply : replies) {
        for (std::size_t i = 0; i < reply.runs.size(); ++i) {
            const TsRun &run = reply.runs[i];
            const std::vector<std::byte> &bytes = reply.data[i];
            // Take the interval-log lock and the page's shard per
            // run, not for the whole merge: barrier-arrival record
            // merges (mergeArrival takes only nl->ilog) and sibling
            // memory accesses on this shard no longer wait out the
            // whole multi-reply merge. (PageTs responders still
            // serialize on nl->core, which the caller holds
            // throughout — releasing core mid-merge would let the
            // metadata shift under us.) Core being held is also why
            // the timestamp table and page metadata cannot change
            // between runs; the twin pointer is re-probed per run
            // because twin creation and drop happen under the shard.
            std::lock_guard<std::mutex> ig(nl->ilog);
            std::lock_guard<std::mutex> sg(nl->shardFor(page));
            std::byte *base = arena->at(arena->pageBase(page));
            // SMP nodes: a sibling's interval may be open on this
            // page; mirror every applied word into its twin so the
            // cur-vs-twin stamping at the next close claims only the
            // local writes (an unmirrored remote word would be
            // re-stamped as ours).
            std::byte *twin = twins.hasPage(page)
                                  ? twins.pageTwinMut(page).data()
                                  : nullptr;
            for (std::uint32_t b = 0; b < run.numBlocks; ++b) {
                const std::uint32_t block = run.firstBlock + b;
                const std::uint64_t cur = ts.get(block);
                if (cur == run.ts)
                    continue;
                if (dominated(run.ts, cur))
                    continue;
                std::memcpy(base + std::size_t{block} * 4,
                            bytes.data() + std::size_t{b} * 4, 4);
                if (twin) {
                    std::memcpy(twin + std::size_t{block} * 4,
                                bytes.data() + std::size_t{b} * 4, 4);
                }
                ts.set(block, run.ts);
                ++words_applied;
            }
        }
        m.copyVt.mergeMax(reply.pageVt);
    }
    clock().add(costModel().perWordApplyNs * words_applied);
    revalidateAfterFetch(page, m);
}

void
LrcRuntime::handleMessage(Message &msg)
{
    switch (msg.type) {
      case MsgType::DiffBatchRequest:
        handleDiffBatchRequest(msg);
        break;
      case MsgType::PageTsBatchRequest:
        handlePageTsBatchRequest(msg);
        break;
      case MsgType::HomeDiffFlush:
        handleHomeDiffFlush(msg);
        break;
      case MsgType::HomePageRequest:
        handleHomePageRequest(msg);
        break;
      case MsgType::HomeMigrate:
        handleHomeMigrate(msg);
        break;
      default:
        Runtime::handleMessage(msg);
    }
}

void
LrcRuntime::encodeDiffsNewerThan(WireWriter &w, PageId page,
                                 const VectorTime &req_vt)
{
    std::vector<std::pair<std::uint64_t, const DiffEntry *>> send;
    auto lo = diffStore.lower_bound({page, 0});
    auto hi = diffStore.upper_bound({page, ~std::uint64_t{0}});
    for (auto it = lo; it != hi; ++it) {
        const std::uint64_t key = it->first.second;
        if (tsInterval(key) > req_vt[tsProc(key)])
            send.emplace_back(key, &it->second);
    }
    w.putU32(static_cast<std::uint32_t>(send.size()));
    for (const auto &[key, entry] : send) {
        w.putU16(static_cast<std::uint16_t>(tsProc(key)));
        w.putU32(tsInterval(key));
        w.putU64(entry->vtSum);
        entry->diff.encode(w);
        stats().diffBytesSent += entry->diff.wireBytes();
    }
}

void
LrcRuntime::handleDiffBatchRequest(Message &msg)
{
    WireReader r(msg.payload);
    VectorTime req_log = VectorTime::decode(r);
    const std::uint32_t npages = r.getU32();

    WireWriter w;
    w.putU32(npages);
    {
        std::lock_guard<std::mutex> dg(nl->diff);
        for (std::uint32_t i = 0; i < npages; ++i) {
            const PageId page = r.getU32();
            VectorTime req_vt = VectorTime::decode(r);
            w.putU32(page);
            encodeDiffsNewerThan(w, page, req_vt);
        }
    }
    encodePiggybackedRecords(w, req_log);
    ep->reply(msg.src, MsgType::DiffBatchReply, w.take(),
              msg.replyToken);
}

void
LrcRuntime::encodeTsNewerThan(WireWriter &w, PageId page,
                              const VectorTime &req_vt,
                              const VectorTime &req_global)
{
    // Without write-notice piggybacking, the requester's copy can
    // reflect, at most, intervals within its own vector: cap the
    // advertised knowledge (and the transmitted runs, below)
    // accordingly. With piggybacking the reply carries the interval
    // records alongside the stamps, so the cap — and the
    // re-invalidation the capped-out stamps cause later — disappears.
    const bool piggy = cluster->piggybackWriteNotices;
    VectorTime page_vt = meta(page).copyVt;
    if (!piggy) {
        for (int p = 0; p < numProcs; ++p)
            page_vt[p] = std::min(page_vt[p], req_global[p]);
    }
    page_vt.encode(w);

    const BlockTimestamps &ts = tsOf(page);
    // The responder must scan the page's timestamps on every request —
    // the repeated-scan computation cost of timestamping (Section 5.3).
    clock().add(costModel().perWordScanNs * ts.numBlocks());
    stats().tsWordsScanned += ts.numBlocks();

    // Send blocks newer than the requester's page copy; capped at the
    // requester's global vector when the ordering knowledge (interval
    // records) cannot travel with the reply.
    auto runs = ts.collect([&](std::uint64_t t) {
        return t != 0 && tsInterval(t) > req_vt[tsProc(t)] &&
               (piggy || tsInterval(t) <= req_global[tsProc(t)]);
    });
    std::lock_guard<std::mutex> sg(nl->shardFor(page));
    const std::byte *base = arena->at(arena->pageBase(page));
    w.putU32(static_cast<std::uint32_t>(runs.size()));
    for (const TsRun &run : runs) {
        w.putU32(run.firstBlock);
        w.putU32(run.numBlocks);
        w.putU64(run.ts);
        w.putBytes(base + std::size_t{run.firstBlock} * 4,
                   std::size_t{run.numBlocks} * 4);
        stats().tsBytesSent += TsRunWire::kHeaderBytes +
                               std::size_t{run.numBlocks} * 4;
    }
    stats().tsRunsSent += runs.size();
}

void
LrcRuntime::handlePageTsBatchRequest(Message &msg)
{
    WireReader r(msg.payload);
    VectorTime req_global = VectorTime::decode(r);
    VectorTime req_log = VectorTime::decode(r);
    const std::uint32_t npages = r.getU32();

    std::lock_guard<std::mutex> g(nl->core);
    WireWriter w;
    w.putU32(npages);
    for (std::uint32_t i = 0; i < npages; ++i) {
        const PageId page = r.getU32();
        VectorTime req_vt = VectorTime::decode(r);
        w.putU32(page);
        encodeTsNewerThan(w, page, req_vt, req_global);
    }
    encodePiggybackedRecords(w, req_log);
    ep->reply(msg.src, MsgType::PageTsBatchReply, w.take(),
              msg.replyToken);
}

// ---------------------------------------------------------------------
// Home-based protocol servicing.

void
LrcRuntime::replyHomePage(NodeId origin, std::uint64_t token,
                          PageId page, const PageHomeTable::HomeState &hs,
                          const VectorTime &req_log)
{
    WireWriter w;
    hs.appliedVt.encode(w);
    {
        std::lock_guard<std::mutex> sg(nl->shardFor(page));
        w.putBytes(arena->at(arena->pageBase(page)), arena->pageSize());
    }
    // Best effort: flushes can reach the home before the matching
    // records do, so appliedVt may briefly exceed what we can
    // document; those notices arrive through the regular channels and
    // find the copy already covering them.
    encodePiggybackedRecords(w, req_log);
    ep->reply(origin, MsgType::HomePageReply, w.take(), token);
}

void
LrcRuntime::serveParkedPageRequests()
{
    for (auto it = parkedPageReqs.begin();
         it != parkedPageReqs.end();) {
        if (!homes.isHome(it->page)) {
            // Migrated away while parked: the request chases the home.
            ep->send(homes.homeOf(it->page), MsgType::HomePageRequest,
                     encodePageRequest(it->origin, it->page, it->need,
                                       it->reqLog),
                     it->token);
            it = parkedPageReqs.erase(it);
            continue;
        }
        PageHomeTable::HomeState *hs = homes.find(it->page);
        if (hs && hs->appliedVt.dominates(it->need)) {
            replyHomePage(it->origin, it->token, it->page, *hs,
                          it->reqLog);
            it = parkedPageReqs.erase(it);
            continue;
        }
        ++it;
    }
}

void
LrcRuntime::migrateHome(std::vector<WireWriter> &out, PageId page,
                        NodeId new_home)
{
    PageHomeTable::HomeState *hs = homes.find(page);
    DSM_ASSERT(hs && new_home != id, "bad migration of page %u", page);
    stats().homeMigrations++;
    const std::uint32_t epoch = homes.epochOf(page) + 1;

    for (NodeId n = 0; n < numProcs; ++n) {
        if (n == id)
            continue;
        WireWriter &w = out[n];
        w.putU32(page);
        w.putU16(static_cast<std::uint16_t>(new_home));
        w.putU32(epoch);
        if (n == new_home) {
            // The new home gets the full role: copy, applied vector,
            // and the word ordering sums (run-length encoded; most
            // words of a typical page are unstamped).
            w.putU8(1);
            hs->appliedVt.encode(w);
            auto runs = collectValueRuns(
                hs->wordSums, [](std::uint64_t v) { return v != 0; });
            w.putU32(static_cast<std::uint32_t>(runs.size()));
            for (const auto &[run, value] : runs) {
                w.putU32(run.start);
                w.putU32(run.length);
                w.putU64(value);
            }
            std::lock_guard<std::mutex> sg(nl->shardFor(page));
            w.putBytes(arena->at(arena->pageBase(page)),
                       arena->pageSize());
        } else {
            w.putU8(0);
        }
    }

    homes.setHome(page, new_home, epoch);
    homes.drop(page);
    // Our copy stays behind as an ordinary cached replica; meta.copyVt
    // already tracks what it contains, and future notices invalidate
    // it like any other copy.
}

namespace {

/** One flush entry of the HomeDiffFlush wire format — the single
 *  encoder the decoder in handleHomeDiffFlush mirrors. */
void
encodeFlushEntry(WireWriter &w, NodeId proc, PageId page,
                 std::uint32_t idx, std::uint32_t prev_idx,
                 std::uint64_t vt_sum, const Diff &diff)
{
    w.putU16(static_cast<std::uint16_t>(proc));
    w.putU32(page);
    w.putU32(idx);
    w.putU32(prev_idx);
    w.putU64(vt_sum);
    diff.encode(w);
}

} // namespace

void
LrcRuntime::sendFlushMessage(NodeId dst, NodeId proc,
                             const std::vector<PendingFlush> &entries)
{
    WireWriter w;
    w.putU32(static_cast<std::uint32_t>(entries.size()));
    for (const PendingFlush &e : entries) {
        encodeFlushEntry(w, proc, e.page, e.idx, e.prevIdx, e.vtSum,
                         e.diff);
    }
    ep->send(dst, MsgType::HomeDiffFlush, w.take());
}

void
LrcRuntime::sendSingleFlush(NodeId dst, PageId page, NodeId proc,
                            std::uint32_t idx, std::uint32_t prev_idx,
                            std::uint64_t vt_sum, const Diff &diff)
{
    // Forwarding path (stale mappings, migration hand-offs): encodes
    // straight from the borrowed Diff — no PendingFlush copy — and
    // takes no homeFlushesSent / diffBytesSent accounting, since the
    // originator already counted this payload.
    WireWriter w;
    w.putU32(1);
    encodeFlushEntry(w, proc, page, idx, prev_idx, vt_sum, diff);
    ep->send(dst, MsgType::HomeDiffFlush, w.take());
}

void
LrcRuntime::flushPendingHomeFlushes()
{
    // Policy off: nothing is ever deferred and the ownIdxFlushed cap
    // is never consulted — keep the legacy hot paths (every home
    // fetch retry, grant and arrival call through here) free of the
    // nl->home acquire.
    if (cluster->homeFlushDefer <= 0)
        return;
    // Caller holds nl->core; pendingHomeFlushes lives under nl->home.
    bool applied_locally = false;
    {
        std::lock_guard<std::mutex> hg(nl->home);
        // After this point every own interval <= vt[self] has its
        // flush in flight (or needed none): service-thread reply
        // piggybacking may advertise our records up to here.
        ownIdxFlushed.store(vt[id], std::memory_order_relaxed);
        if (pendingHomeFlushes.empty())
            return;
        // Regroup by the *current* home: a page may have migrated
        // since its interval closed — including to us, in which case
        // the entries enter the parked-flush chain and apply (or
        // wait for their predecessors) in place.
        std::map<NodeId, std::vector<PendingFlush>> regrouped;
        for (auto &[home, entries] : pendingHomeFlushes) {
            for (PendingFlush &e : entries)
                regrouped[homes.homeOf(e.page)].push_back(std::move(e));
        }
        pendingHomeFlushes.clear();
        for (auto &[home, entries] : regrouped) {
            if (home == id) {
                for (PendingFlush &e : entries) {
                    parkedFlushes.push_back({id, e.idx, e.prevIdx,
                                             e.vtSum, e.page,
                                             std::move(e.diff)});
                }
                applied_locally = true;
                continue;
            }
            for (const PendingFlush &e : entries)
                stats().diffBytesSent += e.diff.wireBytes();
            stats().homeFlushesSent++;
            sendFlushMessage(home, id, entries);
        }
        if (applied_locally) {
            drainParkedFlushes();
            serveParkedPageRequests();
        }
    }
    if (applied_locally)
        homeCv.notify_all();
}

bool
LrcRuntime::applyFlushAtHome(PageId page, NodeId proc, std::uint32_t idx,
                             std::uint64_t vt_sum, const Diff &diff,
                             bool *via_last_writer)
{
    PageHomeTable::HomeState &hs = homes.state(
        page, static_cast<std::uint32_t>(arena->pageSize() / 4));
    std::uint64_t words;
    {
        std::lock_guard<std::mutex> sg(nl->shardFor(page));
        std::byte *base = arena->at(arena->pageBase(page));
        // Mirror the flush into an open twin so the next cur-vs-twin
        // diff stays exactly our own writes (applyDiffGuarded's doc).
        std::byte *twin = twins.hasPage(page)
                              ? twins.pageTwinMut(page).data()
                              : nullptr;
        words = applyDiffGuarded(base, hs.wordSums, diff, vt_sum,
                                 &stats(), twin);
    }
    clock().add(costModel().perWordApplyNs * words);
    hs.appliedVt[proc] = std::max(hs.appliedVt[proc], idx);
    // Sharing-policy classification: every applied flush is one
    // writer's interval; switching writers marks the page migratory
    // and the last-writer policy follows the chain.
    const bool follow_writer = homes.countFlushWriter(hs, proc);

    // The home's own copy is always current: fold the flush into the
    // regular per-page bookkeeping so pending notices resolve and the
    // page never needs a fetch here. Local access additionally waits
    // for our own writes to finish chasing a migration hand-off (the
    // install may have regressed them; program order for own reads).
    PageMeta &m = meta(page);
    m.copyVt[proc] = std::max(m.copyVt[proc], idx);
    resolveCoveredNotices(page, m);
    if (m.notices.empty() && hs.appliedVt[id] >= m.copyVt[id] &&
        pages.access(page) == PageAccess::None) {
        pages.setAccess(page, twins.hasPage(page)
                                  ? PageAccess::ReadWrite
                                  : PageAccess::Read);
    }
    const bool dominant = homes.countAccess(hs, proc);
    if (!follow_writer && !dominant)
        return false;
    if (!homes.migrationAllowed(page)) {
        // Adaptive fallback: the page has spent its ping-pong budget
        // and stays pinned at this home.
        stats().homeMigrationsSuppressed++;
        return false;
    }
    if (via_last_writer)
        *via_last_writer = follow_writer;
    return true;
}

void
LrcRuntime::drainParkedFlushes()
{
    std::vector<MigrateReq> migrate;
    bool progress = true;
    while (progress) {
        progress = false;
        for (auto it = parkedFlushes.begin();
             it != parkedFlushes.end();) {
            if (!homes.isHome(it->page)) {
                sendSingleFlush(homes.homeOf(it->page), it->page,
                                it->proc, it->idx, it->prevIdx,
                                it->vtSum, it->diff);
                it = parkedFlushes.erase(it);
                continue;
            }
            PageHomeTable::HomeState &hs = homes.state(
                it->page,
                static_cast<std::uint32_t>(arena->pageSize() / 4));
            if (hs.appliedVt[it->proc] < it->prevIdx) {
                ++it;
                continue;
            }
            bool via_lw = false;
            if (applyFlushAtHome(it->page, it->proc, it->idx, it->vtSum,
                                 it->diff, &via_lw)) {
                migrate.push_back({it->page, it->proc, via_lw});
            }
            it = parkedFlushes.erase(it);
            progress = true;
        }
    }
    runMigrations(migrate);
}

void
LrcRuntime::runMigrations(const std::vector<MigrateReq> &migrate)
{
    if (migrate.empty())
        return;
    // One HomeMigrate per peer carries the whole batch.
    std::vector<WireWriter> out(static_cast<std::size_t>(numProcs));
    bool moved = false;
    for (const MigrateReq &req : migrate) {
        // A merged flush can fire the policy for several intervals of
        // one page; only the first request still finds us the home,
        // so the counters see exactly the migrations performed.
        if (!homes.isHome(req.page))
            continue;
        if (req.viaLastWriter)
            stats().lastWriterMigrations++;
        migrateHome(out, req.page, req.dst);
        moved = true;
    }
    if (!moved)
        return;
    // The installs go out before any parked request or flush chases a
    // moved page, so per-pair FIFO delivers each install first.
    for (NodeId n = 0; n < numProcs; ++n) {
        if (n != id)
            ep->send(n, MsgType::HomeMigrate, out[n].take());
    }
    serveParkedPageRequests(); // forwards the moved pages' requests
    for (auto it = parkedFlushes.begin(); it != parkedFlushes.end();) {
        if (homes.isHome(it->page)) {
            ++it;
            continue;
        }
        sendSingleFlush(homes.homeOf(it->page), it->page, it->proc,
                        it->idx, it->prevIdx, it->vtSum, it->diff);
        it = parkedFlushes.erase(it);
    }
    homeCv.notify_all(); // a local app thread may be waiting as home
}

void
LrcRuntime::handleHomeDiffFlush(Message &msg)
{
    WireReader r(msg.payload);
    const std::uint32_t nentries = r.getU32();

    std::scoped_lock g(nl->core, nl->home);
    const std::uint32_t page_words =
        static_cast<std::uint32_t>(arena->pageSize() / 4);
    std::vector<MigrateReq> migrate;
    for (std::uint32_t i = 0; i < nentries; ++i) {
        // Per-entry header: a deferred-merge message carries several
        // intervals (same writer, different idx/vtSum) in one flush.
        const NodeId proc = static_cast<NodeId>(r.getU16());
        const PageId page = r.getU32();
        const std::uint32_t idx = r.getU32();
        const std::uint32_t prev_idx = r.getU32();
        const std::uint64_t vt_sum = r.getU64();
        Diff d = Diff::decode(r);
        if (!homes.isHome(page)) {
            // Stale mapping somewhere along the chain: pass the diff
            // to whoever we believe is the home now.
            sendSingleFlush(homes.homeOf(page), page, proc, idx,
                            prev_idx, vt_sum, d);
            continue;
        }
        PageHomeTable::HomeState &hs = homes.state(page, page_words);
        if (hs.appliedVt[proc] < prev_idx) {
            // The writer's previous flush for this page is still in
            // flight (it took a longer forwarding chain than this
            // one): hold this diff, or appliedVt would claim an
            // interval whose words the copy does not have.
            parkedFlushes.push_back(
                {proc, idx, prev_idx, vt_sum, page, std::move(d)});
            continue;
        }
        bool via_lw = false;
        if (applyFlushAtHome(page, proc, idx, vt_sum, d, &via_lw))
            migrate.push_back({page, proc, via_lw});
    }
    drainParkedFlushes();
    serveParkedPageRequests();
    runMigrations(migrate);
    homeCv.notify_all();
}

void
LrcRuntime::handleHomePageRequest(Message &msg)
{
    WireReader r(msg.payload);
    const NodeId origin = static_cast<NodeId>(r.getU16());
    const PageId page = r.getU32();
    VectorTime need = VectorTime::decode(r);
    VectorTime req_log = VectorTime::decode(r);

    std::scoped_lock g(nl->core, nl->home);
    if (!homes.isHome(page)) {
        // Stale mapping: forward along the chain, keeping the reply
        // token so the current home answers the origin directly.
        ep->send(homes.homeOf(page), MsgType::HomePageRequest,
                 encodePageRequest(origin, page, need, req_log),
                 msg.replyToken);
        return;
    }

    PageHomeTable::HomeState &hs = homes.state(
        page, static_cast<std::uint32_t>(arena->pageSize() / 4));
    bool migrate = homes.countAccess(hs, origin);
    if (migrate && !homes.migrationAllowed(page)) {
        stats().homeMigrationsSuppressed++;
        migrate = false;
    }
    if (hs.appliedVt.dominates(need)) {
        replyHomePage(origin, msg.replyToken, page, hs, req_log);
    } else {
        // The flushes the requester's notices announce are in flight;
        // park the request and answer when they have been applied.
        parkedPageReqs.push_back(
            {origin, msg.replyToken, page, need, req_log});
    }
    if (migrate)
        runMigrations({{page, origin, false}});
}

void
LrcRuntime::handleHomeMigrate(Message &msg)
{
    WireReader r(msg.payload);
    std::scoped_lock g(nl->core, nl->home);
    // One entry per page of the sender's migration batch.
    while (!r.done()) {
        const PageId page = r.getU32();
        const NodeId new_home = static_cast<NodeId>(r.getU16());
        const std::uint32_t epoch = r.getU32();
        const bool full = r.getU8() != 0;
        if (!homes.setHome(page, new_home, epoch)) {
            // Stale entry of an already superseded migration: skip it,
            // but read past its payload to reach the next entry.
            if (full) {
                VectorTime::decode(r);
                // Word-sum runs are (start u32, length u32, value u64).
                r.skip(std::size_t{r.getU32()} * 16 + arena->pageSize());
            }
            continue;
        }
        if (full) {
            DSM_ASSERT(new_home == id,
                       "full migration payload sent to node %d", id);
            installMigratedHome(page, r);
        }
    }
    serveParkedPageRequests(); // parked entries may need to chase
    homeCv.notify_all();
}

void
LrcRuntime::installMigratedHome(PageId page, WireReader &r)
{
    // We are the new home: install the applied vector, word sums and
    // the authoritative copy.
    const std::uint32_t page_words =
        static_cast<std::uint32_t>(arena->pageSize() / 4);
    homes.drop(page); // any stale state from an earlier tenure
    PageHomeTable::HomeState &hs = homes.state(page, page_words);
    hs.appliedVt = VectorTime::decode(r);
    const std::uint32_t nruns = r.getU32();
    for (std::uint32_t i = 0; i < nruns; ++i) {
        const std::uint32_t start = r.getU32();
        const std::uint32_t length = r.getU32();
        const std::uint64_t value = r.getU64();
        for (std::uint32_t k = 0; k < length; ++k)
            hs.wordSums[start + k] = value;
    }

    installFullPage(page, r);

    PageMeta &m = meta(page);
    m.copyVt.mergeMax(hs.appliedVt);
    resolveCoveredNotices(page, m);
    // The transitions below race a sibling's shard-guarded write-fault
    // upgrade (Read -> ReadWrite) without this shard lock.
    std::lock_guard<std::mutex> sg(nl->shardFor(page));
    if (m.copyVt[id] > hs.appliedVt[id]) {
        // Our own committed writes for this page are still chasing the
        // home chain (flushed to a stale home, not yet forwarded back
        // to us), so the installed copy regresses them. appliedVt
        // describes the copy truthfully for remote requests, but local
        // program order expects those words: hold local access until
        // the chain catches up — the chasing flushes are forwarded to
        // us and applyFlushAtHome revalidates once
        // appliedVt[id] >= copyVt[id] (restoring ReadWrite when an
        // open twin exists, so the open interval keeps collecting).
        // This closes the doubly-migrated open-twin window that used
        // to be a documented residual: a faulting sibling now waits as
        // the home instead of reading the regressed words.
        pages.setAccess(page, PageAccess::None);
    } else if (m.notices.empty() && m.copyVt[id] <= hs.appliedVt[id] &&
               pages.access(page) == PageAccess::None) {
        // SMP nodes: a sibling's open twin keeps the page writable
        // (its interval continues across the migration; Read would
        // double-twin on the next store).
        pages.setAccess(page, twins.hasPage(page)
                                  ? PageAccess::ReadWrite
                                  : PageAccess::Read);
    }
}

// Checkpoint serialization. Runs at a barrier cut with the service
// thread joined and every application thread parked at the checkpoint
// rendezvous: nothing is mid-acquire, mid-fetch or mid-wait, so the
// full protocol state is capturable without the usual lock order.
// Parked flushes and parked page requests may legitimately be
// non-empty (they wait for in-flight peers) and are carried verbatim.

void
LrcRuntime::serialize(WireWriter &w) const
{
    Runtime::serialize(w);
    DSM_ASSERT(fetchesInFlight.empty(),
               "checkpoint cut with a fetch in flight");
    vt.encode(w);
    // The home table is the snapshot's largest section and barely
    // changes between cuts; serializing it at a fixed offset (right
    // after the fixed-size vector clock) keeps its bytes word-aligned
    // across epochs so incremental deltas see only the pages that
    // really changed. The growing sections (interval log, diff store,
    // page metadata) follow, where their append-driven shifts stay
    // confined to the blob's tail.
    homes.serialize(w);
    ilog.serialize(w);
    w.putU32(static_cast<std::uint32_t>(diffStore.size()));
    for (const auto &[key, entry] : diffStore) {
        w.putU32(key.first);
        w.putU64(key.second);
        entry.diff.encode(w);
        w.putU64(entry.vtSum);
    }
    w.putU32(static_cast<std::uint32_t>(pageMeta.size()));
    for (const auto &[page, m] : pageMeta) {
        w.putU32(page);
        m.copyVt.encode(w);
        w.putU32(static_cast<std::uint32_t>(m.notices.size()));
        for (const auto &[proc, idx] : m.notices) {
            w.putI64(proc);
            w.putU32(idx);
        }
    }
    w.putU32(static_cast<std::uint32_t>(pageTs.size()));
    for (const auto &[page, ts] : pageTs) {
        w.putU32(page);
        w.putU32(ts.numBlocks());
        for (std::uint64_t value : ts.raw())
            w.putU64(value);
    }
    w.putU32(static_cast<std::uint32_t>(pages.numPages()));
    for (PageId p = 0; p < pages.numPages(); ++p)
        w.putU8(static_cast<std::uint8_t>(pages.access(p)));
    twins.serialize(w);
    const std::vector<Run> dirtyRuns = dirty.dirtyRunsIn(0, arena->size());
    w.putU32(static_cast<std::uint32_t>(dirtyRuns.size()));
    for (const Run &run : dirtyRuns) {
        w.putU32(run.start);
        w.putU32(run.length);
    }
    w.putU32(lastBarrierSentIdx);
    w.putU32(static_cast<std::uint32_t>(parkedPageReqs.size()));
    for (const ParkedPageReq &req : parkedPageReqs) {
        w.putI64(req.origin);
        w.putU64(req.token);
        w.putU32(req.page);
        req.need.encode(w);
        req.reqLog.encode(w);
    }
    w.putU32(static_cast<std::uint32_t>(parkedFlushes.size()));
    for (const ParkedFlush &pf : parkedFlushes) {
        w.putI64(pf.proc);
        w.putU32(pf.idx);
        w.putU32(pf.prevIdx);
        w.putU64(pf.vtSum);
        w.putU32(pf.page);
        pf.diff.encode(w);
    }
    w.putU32(static_cast<std::uint32_t>(pendingHomeFlushes.size()));
    for (const auto &[dst, entries] : pendingHomeFlushes) {
        w.putI64(dst);
        w.putU32(static_cast<std::uint32_t>(entries.size()));
        for (const PendingFlush &pf : entries) {
            w.putU32(pf.page);
            w.putU32(pf.idx);
            w.putU32(pf.prevIdx);
            w.putU64(pf.vtSum);
            pf.diff.encode(w);
        }
    }
    w.putU32(ownIdxFlushed.load(std::memory_order_acquire));
    w.putU8(gcValidated ? 1 : 0);
    w.putU32(static_cast<std::uint32_t>(barrierScratch.size()));
    for (const auto &[barrier, scratch] : barrierScratch) {
        w.putU32(barrier);
        w.putU32(static_cast<std::uint32_t>(scratch.arrivalVt.size()));
        for (const VectorTime &avt : scratch.arrivalVt)
            avt.encode(w);
        w.putI64(scratch.validatedArrivals);
        w.putI64(scratch.departsBuilt);
    }
}

void
LrcRuntime::restoreFrom(WireReader &r)
{
    Runtime::restoreFrom(r);
    vt = VectorTime::decode(r);
    homes.restoreFrom(r);
    ilog.restoreFrom(r);
    diffStore.clear();
    const std::uint32_t ndiffs = r.getU32();
    for (std::uint32_t i = 0; i < ndiffs; ++i) {
        const PageId page = r.getU32();
        const std::uint64_t key = r.getU64();
        DiffEntry &entry = diffStore[{page, key}];
        entry.diff = Diff::decode(r);
        entry.vtSum = r.getU64();
    }
    pageMeta.clear();
    invalidPages.clear();
    const std::uint32_t nmeta = r.getU32();
    for (std::uint32_t i = 0; i < nmeta; ++i) {
        const PageId page = r.getU32();
        PageMeta &m = pageMeta[page];
        m.copyVt = VectorTime::decode(r);
        const std::uint32_t nnotices = r.getU32();
        m.notices.reserve(nnotices);
        for (std::uint32_t n = 0; n < nnotices; ++n) {
            const NodeId proc = static_cast<NodeId>(r.getI64());
            const std::uint32_t idx = r.getU32();
            m.notices.emplace_back(proc, idx);
        }
        // Re-establish the invariant invalidPages ⇔ pending notices.
        if (!m.notices.empty())
            invalidPages.insert(page);
    }
    pageTs.clear();
    const std::uint32_t nts = r.getU32();
    for (std::uint32_t i = 0; i < nts; ++i) {
        const PageId page = r.getU32();
        const std::uint32_t nblocks = r.getU32();
        BlockTimestamps ts(nblocks);
        for (std::uint32_t b = 0; b < nblocks; ++b)
            ts.set(b, r.getU64());
        pageTs.emplace(page, std::move(ts));
    }
    const std::uint32_t npages = r.getU32();
    DSM_ASSERT(npages == pages.numPages(), "page-table size mismatch");
    for (PageId p = 0; p < npages; ++p)
        pages.setAccess(p, static_cast<PageAccess>(r.getU8()));
    twins.restoreFrom(r);
    dirty.clearAll();
    const std::uint32_t nruns = r.getU32();
    for (std::uint32_t i = 0; i < nruns; ++i) {
        const std::uint64_t start = r.getU32();
        const std::uint64_t length = r.getU32();
        dirty.markRange(start * 4, length * 4);
    }
    lastBarrierSentIdx = r.getU32();
    parkedPageReqs.clear();
    const std::uint32_t nparkedReqs = r.getU32();
    for (std::uint32_t i = 0; i < nparkedReqs; ++i) {
        ParkedPageReq req;
        req.origin = static_cast<NodeId>(r.getI64());
        req.token = r.getU64();
        req.page = r.getU32();
        req.need = VectorTime::decode(r);
        req.reqLog = VectorTime::decode(r);
        parkedPageReqs.push_back(std::move(req));
    }
    parkedFlushes.clear();
    const std::uint32_t nparkedFlushes = r.getU32();
    for (std::uint32_t i = 0; i < nparkedFlushes; ++i) {
        ParkedFlush pf;
        pf.proc = static_cast<NodeId>(r.getI64());
        pf.idx = r.getU32();
        pf.prevIdx = r.getU32();
        pf.vtSum = r.getU64();
        pf.page = r.getU32();
        pf.diff = Diff::decode(r);
        parkedFlushes.push_back(std::move(pf));
    }
    pendingHomeFlushes.clear();
    const std::uint32_t nbuckets = r.getU32();
    for (std::uint32_t i = 0; i < nbuckets; ++i) {
        const NodeId dst = static_cast<NodeId>(r.getI64());
        std::vector<PendingFlush> &entries = pendingHomeFlushes[dst];
        const std::uint32_t nentries = r.getU32();
        entries.reserve(nentries);
        for (std::uint32_t e = 0; e < nentries; ++e) {
            PendingFlush pf;
            pf.page = r.getU32();
            pf.idx = r.getU32();
            pf.prevIdx = r.getU32();
            pf.vtSum = r.getU64();
            pf.diff = Diff::decode(r);
            entries.push_back(std::move(pf));
        }
    }
    ownIdxFlushed.store(r.getU32(), std::memory_order_release);
    gcValidated = r.getU8() != 0;
    barrierScratch.clear();
    const std::uint32_t nscratch = r.getU32();
    for (std::uint32_t i = 0; i < nscratch; ++i) {
        const BarrierId barrier = r.getU32();
        BarrierScratch &scratch = barrierScratch[barrier];
        const std::uint32_t nvts = r.getU32();
        scratch.arrivalVt.reserve(nvts);
        for (std::uint32_t v = 0; v < nvts; ++v)
            scratch.arrivalVt.push_back(VectorTime::decode(r));
        scratch.validatedArrivals = static_cast<int>(r.getI64());
        scratch.departsBuilt = static_cast<int>(r.getI64());
    }
}

void
LrcRuntime::wipeForRecovery()
{
    Runtime::wipeForRecovery();
    vt = VectorTime(numProcs);
    ilog = IntervalLog(numProcs);
    diffStore.clear();
    pageMeta.clear();
    invalidPages.clear();
    pageTs.clear();
    pages.setAll(PageAccess::None); // restoreFrom rewrites every entry
    twins.clear();
    dirty.clearAll();
    lastBarrierSentIdx = 0;
    homes.clearForRecovery();
    parkedPageReqs.clear();
    parkedFlushes.clear();
    pendingHomeFlushes.clear();
    ownIdxFlushed.store(0, std::memory_order_release);
    gcValidated = false;
    barrierScratch.clear();
}

std::vector<std::uint32_t>
LrcRuntime::vectorFrontier() const
{
    std::vector<std::uint32_t> frontier(vt.size());
    for (int p = 0; p < vt.size(); ++p)
        frontier[p] = vt[p];
    return frontier;
}

} // namespace dsm
