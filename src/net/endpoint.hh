/**
 * @file
 * Per-node communication endpoint. Plays the role of the Ultrix SIGIO
 * machinery in the original systems: a dedicated service thread drains
 * the node's inbox and dispatches requests to a handler, while the
 * application thread performs blocking RPCs (call) whose replies are
 * routed back by token.
 *
 * Handler discipline (deadlock freedom): handlers run on the service
 * thread, may send messages, but must never perform a blocking call().
 * The application thread must not hold runtime state locks across
 * call(); callHolding() releases the caller's mutex before it waits.
 */

#ifndef DSM_NET_ENDPOINT_HH
#define DSM_NET_ENDPOINT_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/transport.hh"
#include "time/thread_context.hh"
#include "time/virtual_clock.hh"

namespace dsm {

class FailureDetector;

class Endpoint : public ReplyReceiver
{
  public:
    using Handler = std::function<void(Message &)>;

    /** Per-source request-dedup window depth (faults-on only): a
     *  duplicate older than this many newer requests from the same
     *  peer re-executes its handler, so handlers of droppable
     *  requests must stay idempotent. Public for tests that pin the
     *  eviction contract. */
    static constexpr std::size_t kDedupWindow = 128;

    Endpoint(Transport &network, NodeId self, VirtualClock &clock,
             NodeStats &stats);
    ~Endpoint();

    Endpoint(const Endpoint &) = delete;
    Endpoint &operator=(const Endpoint &) = delete;

    /**
     * Point this endpoint at a different transport (same cluster
     * size). The process launcher uses it after fork: the child
     * inherits a node wired to the parent's in-process Network and
     * swaps in its own SocketTransport before starting the service
     * thread. Must not be running.
     */
    void rebindTransport(Transport &transport);

    /** Install the request handler. Must be set before start(). */
    void setHandler(Handler handler);

    /** Launch the service thread. */
    void start();

    /** Stop the service thread (idempotent). */
    void stop();

    /**
     * Fire-and-forget send. @p replyToken propagates a token from a
     * request being serviced so the final responder can route the
     * reply (e.g. manager forwarding a lock request to the owner).
     */
    void send(NodeId dst, MsgType type, std::vector<std::byte> payload,
              std::uint64_t reply_token = 0);

    /** Send a reply to a previously received request token. */
    void reply(NodeId dst, MsgType type, std::vector<std::byte> payload,
               std::uint64_t reply_token);

    /**
     * Blocking remote procedure call: sends a tokened request and
     * waits for the matching reply. The caller's virtual clock is
     * advanced to the reply's arrival time. Must only be invoked from
     * the application thread, never from a handler.
     */
    Message call(NodeId dst, MsgType type, std::vector<std::byte> payload);

    /**
     * Peer-aware variant: when a failure detector is armed and it
     * holds @p dst down at a wait timeout, the call abandons the wait
     * (sets *@p peer_down, returns an empty Invalid message) instead
     * of retrying forever — the typed PeerUnavailable outcome. The
     * caller owns the degradation policy (rehost, backoff + retry). A
     * late reply for the abandoned token is discarded by the faults-on
     * service loop like any duplicate. With no detector (or @p
     * peer_down == nullptr) this is exactly call().
     */
    Message call(NodeId dst, MsgType type, std::vector<std::byte> payload,
                 bool *peer_down);

    /**
     * Blocking call whose request the caller sends itself while it
     * still holds @p held. @p send_request gets the call's token once
     * the reply slot is registered and must send one non-droppable
     * request carrying it (send() with the token as @p reply_token).
     * @p held is released after it returns, then the caller waits
     * exactly as in call() (never retransmits, never abandons). A lock
     * manager's own request takes this path, so that its forward
     * leaves under the service mutex, in the manager's order.
     */
    Message callHolding(
        std::unique_lock<std::mutex> &held,
        const std::function<void(std::uint64_t)> &send_request);

    /**
     * Arm the fault-tolerant request path: call() keeps a copy of the
     * request payload and retransmits on a deadline (exponential
     * backoff, attempt-stamped so the injector eventually lets every
     * retry through), the service thread deduplicates retransmitted
     * requests per source (resending the recorded reply when the
     * original reply was dropped), and late duplicate replies are
     * discarded instead of panicking. Off (the default), none of the
     * copies, deadlines or maps exist — the hot path is unchanged.
     * Must be set before start().
     */
    void setFaultsEnabled(bool enabled);

    /**
     * Arm the failure detector: the service loop switches to timed
     * receives, stamping its own liveness (heartbeat) and every
     * delivering peer's (heard) and running the deadline scan (tick)
     * on each timeout, so a silent peer is declared down within
     * roughly 1.5x the detector deadline without any dedicated
     * prober thread. Requires faults enabled (the detector-aware
     * waits tolerate late/duplicate replies). Must be set before
     * start(). May be null to disarm.
     */
    void setFailureDetector(FailureDetector *fd);

    /**
     * Hook run on the service thread when a peer's recovery epoch
     * advances (orphaned-lock re-forwarding lives here). Runs outside
     * any endpoint lock; must not block. Must be set before start().
     */
    void setRecoveryCallback(std::function<void(NodeId)> cb);

    /**
     * Override the retransmit deadline schedule (first timeout and
     * exponential-backoff cap, wall-clock ns). Must be set before
     * start(); defaults reproduce the historical 2ms/500ms schedule.
     */
    void setRetransmitTimeouts(std::uint64_t first_ns,
                               std::uint64_t cap_ns);

    /**
     * Reply bypass (ReplyReceiver): a sender's thread offers a reply
     * for one of our parked callers directly, skipping our inbox and
     * service thread. Fills the caller's futex slot under pendingMu —
     * the same protocol the service thread uses — so the two delivery
     * paths cannot double-fill. False when no caller is parked on the
     * token (the reply then takes the inbox path) or the slot is
     * already filled (a retransmitted duplicate under faults: exactly
     * one delivery wins, the loser drains through the service
     * thread's duplicate handling).
     */
    bool tryDeliverReply(Message &msg) override;

    /**
     * Arm the adaptive blocking-dequeue support (DSM_BLOCKING_DEQ):
     * every dispatched message bumps the endpoint's activity word so
     * app-level receive polls (Runtime::pollIdle) can park on it
     * instead of spinning. Must be set before start().
     */
    void setBlockingDequeue(bool on);

    bool blockingDequeueOn() const { return blockingDeqOn; }

    /** Current activity stamp (monotone once blocking dequeue is on). */
    std::uint32_t
    activityStamp() const
    {
        return activityWord.load(std::memory_order_acquire);
    }

    /**
     * Signal local progress (a message dispatched, a lock released):
     * wakes any pollIdle parker. No-op unless blocking dequeue is on.
     * Any thread.
     */
    void
    bumpActivity()
    {
        if (!blockingDeqOn)
            return;
        activityWord.fetch_add(1, std::memory_order_release);
        if (activityWaiters.load(std::memory_order_acquire) > 0)
            futexWakeAll(activityWord);
    }

    /**
     * Park until the activity word moves past @p seen or @p timeout_ns
     * elapses. The timeout is load-bearing: progress an idle poller
     * waits for can be produced entirely off-node (a remote enqueue
     * into shared memory), which bumps nothing here — the park must
     * always resume to re-poll.
     */
    void waitActivity(std::uint32_t seen, std::uint64_t timeout_ns);

    NodeId self() const { return id; }

    int nnodes() const { return net->nnodes(); }

    const CostModel &costModel() const { return net->costModel(); }

    /**
     * The clock of the calling execution context: a worker thread's
     * ThreadContext clock when one is published (which aliases the
     * node clock at threadsPerNode == 1), the node clock otherwise
     * (service thread, tests driving a runtime directly).
     */
    VirtualClock &
    clock()
    {
        ThreadContext *ctx = ThreadContext::current();
        return ctx && ctx->clock ? *ctx->clock : vclock;
    }

    /** Counters of the calling execution context: a worker thread's
     *  private delta when one is published, the node stats otherwise.
     *  Cluster::run merges the deltas after the workers join. */
    NodeStats &
    stats()
    {
        ThreadContext *ctx = ThreadContext::current();
        return ctx ? ctx->stats : nodeStats;
    }

  private:
    /** One blocked call(): the service thread moves the reply in and
     *  flips ready; the caller futex-waits on it (no mutex/cv — the
     *  reply hand-off is the hottest wait in the system). */
    struct PendingReply
    {
        std::atomic<std::uint32_t> ready{0};
        /** Reply arrived via the sender-side bypass: the woken caller
         *  owes the receiver-side accounting the service thread would
         *  otherwise have done. */
        bool viaBypass = false;
        Message msg;
    };

    /**
     * Responder-side request dedup record (faults-on only): one per
     * recently seen droppable request, so a retransmitted request is
     * never dispatched twice (barrier arrivals are not idempotent) and
     * a dropped reply can be resent from the recorded copy.
     */
    struct DedupEntry
    {
        std::uint64_t token = 0;
        bool replied = false;
        MsgType replyType = MsgType::Invalid;
        std::vector<std::byte> replyPayload;
    };

    /** Register @p slot for a new call; returns the call's token. */
    std::uint64_t openCall(PendingReply &slot);

    /**
     * The one wait of every call: park until @p slot is filled, then
     * do the receiver-side accounting of a bypassed reply and the
     * causal clock jump. @p retry is the request to resend on each
     * deadline (droppable requests under faults), else null. @p
     * peer_down as in call(), with @p dst the peer it watches.
     */
    Message awaitReply(PendingReply &slot, std::uint64_t token, NodeId dst,
                       const Message *retry, bool *peer_down);

    void serviceLoop();

    /** Route one drained message (reply fill, dedup, handler). False
     *  = Shutdown: the service loop must exit. */
    bool dispatch(Message &msg);

    /** dispatch() body proper; the wrapper re-arms the bypass guard
     *  (Network::noteDispatched) and bumps activity afterwards on
     *  every path out of here. */
    void dispatchInner(Message &msg);

    /** Fire recoveryCb for peers whose recovery epoch advanced since
     *  we last looked (service thread only). */
    void runRecoveryHooks();

    /** Dedup check for an incoming droppable request; true = already
     *  seen (duplicate handled here, caller must skip dispatch). */
    bool dedupRequest(const Message &msg);

    /** Record the payload of a droppable reply for duplicate resend. */
    void recordReply(NodeId dst, MsgType type,
                     const std::vector<std::byte> &payload,
                     std::uint64_t token);

    Transport *net; ///< never null; rebindable pre-start (post-fork)
    NodeId id;
    VirtualClock &vclock;
    NodeStats &nodeStats;
    Handler handler;
    std::thread serviceThread;
    std::atomic<bool> running{false};

    std::mutex pendingMu;
    std::unordered_map<std::uint64_t, PendingReply *> pending;
    std::atomic<std::uint64_t> nextToken{1};

    /** Fault-tolerant request path armed (see setFaultsEnabled). */
    bool faultsOn = false;
    /** Blocking-dequeue activity signalling armed. */
    bool blockingDeqOn = false;

    /** Progress epoch for app-level blocking dequeues: bumped on
     *  every dispatched message (and lock release), parked on by
     *  Runtime::pollIdle. */
    alignas(64) std::atomic<std::uint32_t> activityWord{0};
    std::atomic<std::uint32_t> activityWaiters{0};
    /** Per-source dedup windows, service-thread-only (replies for
     *  droppable requests are produced on the service thread). */
    std::vector<std::deque<DedupEntry>> dedup;
    /** First retransmit deadline; doubles per retry up to the cap.
     *  Wall-clock (the virtual clock never waits). Instance fields so
     *  ClusterConfig can tune the schedule per run. */
    std::uint64_t retransmitFirstNs = 2'000'000;
    std::uint64_t retransmitCapNs = 500'000'000;

    /** Liveness tracking (see setFailureDetector); null = disarmed. */
    FailureDetector *detector = nullptr;
    /** Per-peer recovery epochs already acted upon (service thread
     *  only): recovery hooks fire when the detector's seq advances. */
    std::vector<std::uint64_t> seenRecoverySeq;
    std::function<void(NodeId)> recoveryCb;
};

} // namespace dsm

#endif // DSM_NET_ENDPOINT_HH
