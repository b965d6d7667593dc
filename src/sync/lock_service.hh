/**
 * @file
 * Distributed lock protocol shared by the EC and LRC runtimes, exactly
 * as Section 6 of the paper prescribes: "the location and
 * synchronization aspects of locks ... are implemented in the same
 * way, although the consistency aspects differ."
 *
 * Each lock has a statically assigned manager (round-robin by lock
 * id). A request goes to the manager, which forwards it to the
 * processor that last requested the lock; the grant travels directly
 * from that owner to the requester. Requests for held locks queue at
 * the owner and are granted on release. The manager's own requests
 * never touch the wire on their way to it: the acquiring thread runs
 * the manager step in place and sends the forward straight to the
 * last owner (two messages instead of three). Every forward, in place
 * or from the service thread, leaves under the service mutex, so
 * forwards to one owner leave in the manager's order.
 *
 * The consistency payloads (EC: incarnation numbers + data updates;
 * LRC: vectors + write notices) are produced and consumed through the
 * LockHooks callbacks supplied by the runtime.
 *
 * Read-only locks (EC) are consistency-transfer grants: the owner
 * replies with current data and retains ownership. A reader's release
 * requires no message. Writers exclude concurrently queued requests at
 * the owner; the applications in the paper access read-locked data
 * only in barrier-separated read phases, so reader/writer exclusion
 * across phases is provided by the barriers, as in the original
 * programs.
 *
 * SMP nodes (threadsPerNode > 1): the service owns its mutex (it no
 * longer shares the node's — there is no single node mutex anymore)
 * and tracks, per lock, which local thread holds it and how many
 * local read holders exist. A thread that finds the lock held by a
 * sibling parks on a local waiter queue; when the holder releases,
 * the waiter takes the lock directly — an intra-node hand-off that
 * involves no network message and no manager (counted by
 * intraNodeLockHandoffs, charged one lockHandlingNs, and ordered by
 * advancing the waiter's clock past the releaser's). Local waiters
 * win over queued remote requests so ownership is not bounced off the
 * node while its own threads still contend; the remote queue drains
 * at the first release that finds no local waiter. At most one remote
 * acquisition per (node, lock) is in flight at a time: siblings that
 * also miss wait for the fetching thread and then take the lock by
 * local hand-off — the network short-circuit the SMP refactor is
 * about. With threadsPerNode == 1 none of these paths execute and the
 * protocol behaves exactly like the historical one-app-thread
 * implementation.
 *
 * Bounded local priority (the sharing-policy layer's fairness knob,
 * Config::lockLocalHandoffBound / DSM_LOCK_FAIRNESS): pure local-first
 * hand-off can starve a queued remote requester for as long as the
 * node's own threads keep contending — EC's task-queue application
 * degrades exactly this way at threadsPerNode > 1 (remote requests for
 * the queue lock wait out entire local task batches). With a bound
 * k > 0, a release that would start the (k+1)-th consecutive local
 * grant — a hand-off to a parked waiter or a fast-path reacquire, both
 * keep the remote waiting — while a remote request is queued serves
 * the remote requester instead: ownership leaves the node, the local
 * waiters re-request through the manager, and the remote's wait is
 * capped at k local grants. Runs without a queued remote request stay
 * unbounded, so the zero-message short-circuit is untouched when
 * nobody else wants the lock. Counted by remoteHandoffsForced;
 * maxLocalHandoffRun records the longest run observed.
 */

#ifndef DSM_SYNC_LOCK_SERVICE_HH
#define DSM_SYNC_LOCK_SERVICE_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/endpoint.hh"
#include "net/serde.hh"

namespace dsm {

/** Consistency callbacks a runtime installs into the lock service.
 *  All hooks are invoked with the lock-service mutex held; they take
 *  the protocol locks (core, ...) they need themselves. */
struct LockHooks
{
    /** At the requester: encode request info (EC: my incarnation;
     *  LRC: my vector). */
    std::function<std::vector<std::byte>(LockId, AccessMode)> makeRequest;

    /** At the owner: consume request info, produce the grant payload
     *  (EC: data newer than the requester's incarnation; LRC: write
     *  notices). */
    std::function<std::vector<std::byte>(LockId, AccessMode, NodeId,
                                         WireReader &)>
        makeGrant;

    /** At the requester: apply the grant payload. */
    std::function<void(LockId, AccessMode, WireReader &)> applyGrant;

    /**
     * At the acquirer, after the lock is held (local fast path or
     * remote grant). EC write-trapping setup happens here: eager
     * twinning of small bound objects, write-protection of large ones.
     */
    std::function<void(LockId, AccessMode)> onAcquired;
};

class LockService
{
  public:
    /**
     * @param endpoint Communication endpoint of this node.
     * @param threads_per_node Application threads sharing this node
     *        (drives the strictness of the recursion assert and the
     *        intra-node hand-off machinery).
     * @param local_handoff_bound Bounded local priority: serve a
     *        pending remote requester after at most this many
     *        consecutive intra-node hand-offs (0 = unbounded, the
     *        pure local-first policy).
     * @param adaptive_fairness Per-lock adaptive bound
     *        (ClusterConfig::lockFairnessAdaptive): each lock starts at the
     *        static bound (or 4 when none is armed), doubles while
     *        releases find no remote waiter queued (up to 64) and
     *        halves every time the bound forces a remote grant (down
     *        to 1) — EC's task queue settles high, LRC's low, without
     *        a hand-tuned global k.
     */
    explicit LockService(Endpoint &endpoint, int threads_per_node = 1,
                         int local_handoff_bound = 0,
                         bool adaptive_fairness = false);

    /** Current fairness bound of @p lock (test/bench introspection):
     *  the adaptive per-lock value when armed, else the static k. */
    std::uint32_t currentFairnessBound(LockId lock) const;

    void setHooks(LockHooks hooks);

    /**
     * Acquire @p lock in @p mode. Write acquires by the current owner
     * with no competing request complete locally without messages
     * (both Midway and TreadMarks have this fast path). Blocking; must
     * be called from an application thread.
     */
    void acquire(LockId lock, AccessMode mode);

    /** Release a held lock; hands off to local waiters first, then
     *  grants queued remote requests. */
    void release(LockId lock);

    /** True when this node is the lock's statically assigned manager. */
    bool
    isManager(LockId lock) const
    {
        return managerOf(lock) == ep.self();
    }

    NodeId
    managerOf(LockId lock) const
    {
        return static_cast<NodeId>(lock % ep.nnodes());
    }

    /** Service-thread dispatch for LockRequest/LockForward messages. */
    void handleMessage(Message &msg);

    /**
     * Orphaned-lock reclamation, run by the endpoint's recovery hook
     * when @p peer transitions down -> healthy: every managed lock
     * whose most recent forward (a remote requester's or the
     * manager's own) targeted @p peer is re-forwarded with the
     * original token and request info, so a request the outage
     * orphaned is re-granted from the manager's last stable record.
     * The owner-side token dedup window makes the replay idempotent
     * when the original forward survived (parked in the inbox) after
     * all. Counted by orphanForwardsReplayed.
     */
    void onPeerRecovered(NodeId peer);

    /** True if any local application thread currently holds @p lock. */
    bool holds(LockId lock) const;

    /** True if the *calling* thread holds @p lock exclusively (the
     *  precondition of rebindLock — a sibling's hold must not
     *  satisfy it at threadsPerNode > 1). */
    bool holdsExclusively(LockId lock) const;

    /** Local threads currently parked waiting for @p lock (test
     *  introspection — lets a choreographed fairness test hold a lock
     *  until a sibling has provably parked). */
    int localWaiterCount(LockId lock) const;

    /** Remote requests queued at this owner for @p lock (test
     *  introspection). */
    std::size_t pendingRemoteCount(LockId lock) const;

    /**
     * Drop all cached read grants. Midway caches read locks at the
     * reader; our implementation revalidates them at barriers, which
     * is sufficient for the paper's applications because every one of
     * them separates write phases from read phases with barriers.
     * Takes the service mutex itself.
     */
    void clearReadCaches();

    /**
     * Checkpoint support (core/checkpoint.hh). Both run at a barrier
     * cut with the node's service thread stopped and every application
     * thread parked at the checkpoint rendezvous, so no lock state is
     * in motion; they still take the service mutex for form's sake.
     * serialize() captures ownership, cached read grants, queued
     * remote requests and the manager chain tails; restoreFrom()
     * rebuilds exactly that state on a wiped instance.
     */
    void serialize(WireWriter &w) const;
    void restoreFrom(WireReader &r);

    /** Chaos kill: drop all lock state before a restoreFrom. */
    void wipeForRecovery();

  private:
    struct Forward
    {
        NodeId origin = -1;
        std::uint64_t token = 0;
        AccessMode mode = AccessMode::Write;
        std::vector<std::byte> requestInfo;
    };

    /** writeHolder value meaning "no exclusive holder". */
    static constexpr int kNoHolder = -1;

    /** Thread id used for callers without a ThreadContext (tests
     *  driving the service from a bare thread; one per node). */
    static constexpr int kExternalThread = -2;

    struct LockLocal
    {
        bool owned = false; ///< this node holds the ownership token
        /** Read grant cached locally; valid until the next barrier. */
        bool readCached = false;
        /** Node-local thread id of the exclusive holder. */
        int writeHolder = kNoHolder;
        /** Local threads inside a read-mode acquire..release. */
        int readHolders = 0;
        /** A local thread is mid remote acquisition (at most one per
         *  lock; siblings wait and take the lock by hand-off). */
        bool fetching = false;
        /** Local threads parked waiting for a sibling's release. */
        int localWaiters = 0;
        /** Consecutive local grants (hand-offs to parked waiters and
         *  fast-path reacquires alike — both keep a queued remote
         *  waiting) since the lock last left the node, a remote
         *  requester was served, or a release found no local taker
         *  (the fairness bound's run length). */
        std::uint32_t localHandoffRun = 0;
        /** Per-lock adaptive fairness bound (adaptive mode only;
         *  seeded from the static k at first touch, grown/shrunk at
         *  releases). */
        std::uint32_t bound = 0;
        /** Clock of the last local transfer point — a sibling's
         *  release or a completed remote grant (orders an intra-node
         *  hand-off without any message). */
        std::uint64_t lastTransferNs = 0;
        std::deque<Forward> pending; ///< queued remote requests
    };

    struct ManagerState
    {
        NodeId lastOwner = -1; ///< tail of the request chain
        /** Most recent forward sent for this lock (the re-grant
         *  record for orphaned-lock reclamation). */
        bool hasForward = false;
        NodeId forwardTarget = -1; ///< owner the forward was sent to
        Forward lastForward;
    };

    /** Node-local id of the calling thread (-1: no thread context —
     *  tests driving the service from a bare thread). */
    static int selfThread();

    /** Grant to @p fwd now; caller holds the service mutex. */
    void grantNow(LockId lock, LockLocal &state, const Forward &fwd);

    /** Grant queued remote requests after a release; caller holds the
     *  service mutex and has checked no local thread holds or waits. */
    void drainPending(LockId lock, LockLocal &state);

    /** Can a remote request be granted right now? */
    bool
    idleForGrant(const LockLocal &state) const
    {
        // Compare against the sentinel, not < 0: external (context-
        // free) holders carry the negative kExternalThread id and
        // must still block remote grants.
        return state.owned && state.writeHolder == kNoHolder &&
               state.readHolders == 0 && !state.fetching &&
               state.localWaiters == 0;
    }

    /** A LockRequest from another node: the service thread runs the
     *  manager step for it. The manager's own requests never arrive
     *  here; acquire() runs the step in place. */
    void handleRequest(Message &msg);
    void handleForward(Message &msg);

    /**
     * The manager step (Section 6), for a remote request or the
     * manager's own: charge lockHandlingNs, count lockForwards, look up
     * and advance the lock's chain tail, then grant or queue locally
     * when the tail is this node, or record the forward for orphan
     * replay and send it to the tail. Caller holds mu, so forwards to
     * one owner leave in the order the manager took its requests.
     */
    void managerStep(LockId lock, Forward fwd);

    LockLocal &localState(LockId lock);

    /** Fairness bound in force for @p state right now. */
    std::uint32_t
    effectiveBound(const LockLocal &state) const
    {
        return adaptiveFairness ? state.bound
                                : static_cast<std::uint32_t>(handoffBound);
    }

    Endpoint &ep;
    const int threadsPerNode;
    /** Fairness bound k (0 = unbounded local priority). */
    const int handoffBound;
    /** Per-lock adaptive bound armed (see the constructor). */
    const bool adaptiveFairness;
    /** Adaptive bound clamp and no-static-k seed. */
    static constexpr std::uint32_t kAdaptiveBoundMax = 64;
    static constexpr std::uint32_t kAdaptiveBoundSeed = 4;
    mutable std::mutex mu;
    std::condition_variable cv;
    LockHooks hooks;
    std::unordered_map<LockId, LockLocal> locks;
    std::unordered_map<LockId, ManagerState> managed;
    /** Owner-side dedup of forwards already received, keyed by
     *  (origin, token): a manager's orphan replay of a forward that
     *  actually survived (parked in our inbox through the outage) must
     *  not double-grant. Tokens alone do not identify a request —
     *  every endpoint numbers its calls from the same counter start,
     *  so two origins' independent requests can carry equal tokens. */
    std::deque<std::pair<NodeId, std::uint64_t>> forwardTokens;
    static constexpr std::size_t kForwardDedupWindow = 128;
};

} // namespace dsm

#endif // DSM_SYNC_LOCK_SERVICE_HH
