/**
 * @file
 * Per-node statistics counters. Every protocol event the paper reasons
 * about (messages, bytes, faults, twins, diffs, timestamp scans, dirty
 * stores, ...) has a named counter here; benches print them next to the
 * reproduced tables.
 */

#ifndef DSM_UTIL_STATS_HH
#define DSM_UTIL_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace dsm {

/**
 * Counters for one node. Plain uint64 fields with a strict
 * single-writer discipline: the service thread writes the node's own
 * instance, every application thread writes the private delta in its
 * ThreadContext, and Cluster::run sums the deltas into the node
 * instance after the worker threads join — no field is ever written
 * concurrently, and totals are independent of how the increments were
 * distributed across threads.
 */
struct NodeStats
{
    // Network.
    std::uint64_t messagesSent = 0;
    std::uint64_t messagesReceived = 0;
    std::uint64_t bytesSent = 0;
    std::uint64_t bytesReceived = 0;
    /** Request retransmissions by the Endpoint deadline path after a
     *  fault-injected drop (or a reply slower than the deadline). */
    std::uint64_t retransmissions = 0;
    /** Messages the fault injector discarded after they were charged
     *  on the wire, counted at the sender. */
    std::uint64_t messagesDropped = 0;
    /** Replies delivered straight into the blocked caller's futex
     *  reply slot, skipping the receiver's service-thread inbox hop.
     *  Counted at the sending node. */
    std::uint64_t repliesBypassed = 0;
    /** Bypass attempts refused by the per-pair ordering guard (an
     *  earlier inbox message from the same peer was still in flight)
     *  or by an occupied/unregistered reply slot; the reply took the
     *  ordinary inbox path instead. */
    std::uint64_t replyBypassRefusals = 0;
    /** Adaptive blocking dequeue (DSM_BLOCKING_DEQ): app-level empty
     *  polls, and the subset that gave up spinning and parked on the
     *  endpoint activity futex. */
    std::uint64_t idlePolls = 0;
    std::uint64_t idleParks = 0;

    // Synchronization.
    std::uint64_t locksAcquired = 0;
    std::uint64_t roLocksAcquired = 0;
    std::uint64_t localLockHits = 0;
    std::uint64_t lockForwards = 0;
    std::uint64_t barriersEntered = 0;
    /** SMP nodes: lock acquisitions that parked behind a sibling and
     *  were then served locally (the sibling's release handed the
     *  lock over, or its completed remote fetch is being shared) — no
     *  network message, no manager involvement (never nonzero at
     *  threadsPerNode == 1). */
    std::uint64_t intraNodeLockHandoffs = 0;
    /** Bounded-fairness hand-off (lockLocalHandoffBound k > 0):
     *  releases at which a pending remote requester was served ahead
     *  of parked local waiters because k consecutive intra-node
     *  hand-offs had already run. */
    std::uint64_t remoteHandoffsForced = 0;
    /** Longest run of consecutive local grants of one lock (hand-offs
     *  to parked waiters and fast-path reacquires alike) — a
     *  high-water mark (operator+= takes the max, not the sum). With
     *  a fairness bound k and a remote requester pending, the run a
     *  remote waits out never exceeds k. */
    std::uint64_t maxLocalHandoffRun = 0;
    /** Per-lock adaptive fairness (lockFairnessAdaptive): bound
     *  growth events (a local run completed with no remote waiter
     *  queued) and shrink events (the bound forced a remote grant). */
    std::uint64_t fairnessBoundGrows = 0;
    std::uint64_t fairnessBoundShrinks = 0;

    // Write trapping.
    std::uint64_t pageFaults = 0;
    std::uint64_t twinsCreated = 0;
    std::uint64_t twinWordsCopied = 0;
    std::uint64_t dirtyStores = 0;

    // Write collection.
    std::uint64_t diffsCreated = 0;
    std::uint64_t diffsApplied = 0;
    std::uint64_t diffWordsCompared = 0;
    std::uint64_t diffBytesSent = 0;
    /** Wire bytes a homeless LRC diff reply left out because a later
     *  diff of the same writer in that reply rewrites them (DESIGN.md
     *  §10); diffBytesSent counts what was sent. */
    std::uint64_t diffBytesTrimmed = 0;
    std::uint64_t tsWordsScanned = 0;
    std::uint64_t tsRunsSent = 0;
    std::uint64_t tsBytesSent = 0;

    // LRC protocol.
    std::uint64_t intervalsCreated = 0;
    std::uint64_t writeNoticesSent = 0;
    std::uint64_t writeNoticesReceived = 0;
    std::uint64_t pagesInvalidated = 0;
    std::uint64_t accessMisses = 0;
    std::uint64_t diffRequestsSent = 0;
    std::uint64_t diffPagesPiggybacked = 0;
    /** Fetched diffs dropped unapplied because the page copy already
     *  held their interval (another reply of the same miss carried
     *  them too): bytes the wire carried for nothing. */
    std::uint64_t diffsDiscarded = 0;
    std::uint64_t tsRequestsSent = 0;
    std::uint64_t tsPagesPiggybacked = 0;
    /** Homeless access misses: invalid pages that would have ridden
     *  along but whose piggybacked bytes since their last miss or
     *  write reached the cost of one miss (DESIGN.md §10), counted
     *  once per fetch that left them out. */
    std::uint64_t piggybacksSkipped = 0;
    /** Homeless access misses on a page whose piggybacked bytes had
     *  reached that bound: the rule skipped, or would skip, a page
     *  this node reads. Each doubles the page's bound. */
    std::uint64_t piggybackWrongSkips = 0;
    /** Write notices (record x page) appended to fetch replies. */
    std::uint64_t noticesPiggybacked = 0;
    /** Notices that arrived for a page whose copy already held that
     *  interval's data while the page stayed valid — the invalidation
     *  plus refetch the seed protocol would have performed. */
    std::uint64_t reinvalidationsAvoided = 0;

    // Home-based LRC.
    std::uint64_t homeFlushesSent = 0;
    std::uint64_t pageFetchRoundTrips = 0;
    std::uint64_t homeMigrations = 0;
    /** Migrations triggered by the migrate-to-last-writer policy
     *  (subset of homeMigrations). */
    std::uint64_t lastWriterMigrations = 0;
    /** Migrations of a page from its round-robin home to its first
     *  remote writer (subset of homeMigrations). */
    std::uint64_t firstWriterMigrations = 0;
    /** Migrations a policy wanted but the ping-pong cap suppressed
     *  (the page stays pinned at its current home). */
    std::uint64_t homeMigrationsSuppressed = 0;
    /** Interval closes whose flush payload for some home was merged
     *  into an already-pending deferred flush — each is one
     *  HomeDiffFlush message that never went on the wire. */
    std::uint64_t homeFlushesDeferred = 0;

    // Barrier-time interval/diff garbage collection.
    std::uint64_t gcRounds = 0;
    std::uint64_t gcRecordsReclaimed = 0;
    std::uint64_t gcDiffsReclaimed = 0;
    /** Invalid pages a node discarded at a GC round instead of
     *  validating them: it never wrote them and took no access miss on
     *  them since its previous round (DESIGN.md §10). */
    std::uint64_t gcPagesDiscarded = 0;
    /** Discarded pages installed whole from their keeper, on a miss
     *  or riding along on one. */
    std::uint64_t wholePageFetches = 0;

    // EC protocol.
    std::uint64_t updatesSent = 0;
    std::uint64_t updateBytesSent = 0;
    std::uint64_t rebinds = 0;

    // Crash tolerance (checkpoint/restore + fault injection).
    /** Barrier-cut snapshots this node serialized. */
    std::uint64_t checkpointsTaken = 0;
    /** Kill-and-restore cycles: the node was wiped, restored from its
     *  latest snapshot and replayed the parked inbox forward. */
    std::uint64_t recoveryReplays = 0;
    /** Failure-detector transitions this node's service thread
     *  performed: peers declared down after a missed liveness
     *  deadline, and peers revived by a fresh stamp. Each transition
     *  is CAS-guarded, so the cluster-wide sums count each outage
     *  once no matter how many nodes raced to observe it. */
    std::uint64_t peerDownDetections = 0;
    std::uint64_t peerDownRecoveries = 0;
    /** Blocking call() waits that timed out while the detector held
     *  some peer down — the typed PeerUnavailable retry loop (bounded
     *  backoff, never a silent park) degrading instead of hanging. */
    std::uint64_t peerUnavailableRetries = 0;
    /** Lock forwards the manager re-sent after a holder's recovery
     *  (orphaned-lock reclamation; the owner-side token dedup makes
     *  the duplicates idempotent). */
    std::uint64_t orphanForwardsReplayed = 0;
    /** Home-page fetches served from a down home's persisted
     *  checkpoint frontier instead of waiting out the outage. */
    std::uint64_t rehostedFetches = 0;
    /** Bytes of incremental (changed-runs-only) checkpoint blobs, as
     *  opposed to checkpointsTaken full anchor cuts. */
    std::uint64_t checkpointDeltaBytes = 0;

    // Application-reported work units (drives the compute time model).
    std::uint64_t workUnits = 0;

    /** Accumulate @p other into this. */
    NodeStats &operator+=(const NodeStats &other);

    /** (name, value) pairs for printing, in declaration order. */
    std::vector<std::pair<std::string, std::uint64_t>> items() const;

    /** Compact single-line rendering of the nonzero counters. */
    std::string toString() const;
};

} // namespace dsm

#endif // DSM_UTIL_STATS_HH
