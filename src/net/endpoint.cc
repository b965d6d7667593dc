#include "net/endpoint.hh"

#include <algorithm>

#include "net/failure_detector.hh"
#include "util/buffer_pool.hh"
#include "util/logging.hh"

namespace dsm {

namespace {

/** Wake a caller parked on its reply slot: the fault-tolerant path's
 *  timed waits park on a raw futex, which std::atomic::notify_one does
 *  not reach; every other wait parks in std::atomic::wait. */
void
wakeCaller(std::atomic<std::uint32_t> &ready, bool faults_on)
{
    if (faults_on)
        futexWakeOne(ready);
    ready.notify_one();
}

} // namespace

Endpoint::Endpoint(Transport &network, NodeId self, VirtualClock &clock,
                   NodeStats &stats)
    : net(&network), id(self), vclock(clock), nodeStats(stats)
{}

void
Endpoint::rebindTransport(Transport &transport)
{
    DSM_ASSERT(!running.load(), "transport rebound while running");
    DSM_ASSERT(transport.nnodes() == net->nnodes(),
               "transport rebind changed cluster size %d -> %d",
               net->nnodes(), transport.nnodes());
    net = &transport;
}

Endpoint::~Endpoint()
{
    stop();
}

void
Endpoint::setHandler(Handler h)
{
    DSM_ASSERT(!running.load(), "handler installed while running");
    handler = std::move(h);
}

void
Endpoint::setFaultsEnabled(bool enabled)
{
    DSM_ASSERT(!running.load(), "fault mode flipped while running");
    faultsOn = enabled;
    if (enabled && dedup.empty())
        dedup.resize(static_cast<std::size_t>(net->nnodes()));
}

void
Endpoint::setBlockingDequeue(bool on)
{
    DSM_ASSERT(!running.load(), "blocking dequeue flipped while running");
    blockingDeqOn = on;
}

void
Endpoint::setFailureDetector(FailureDetector *fd)
{
    DSM_ASSERT(!running.load(), "detector armed while running");
    DSM_ASSERT(fd == nullptr || faultsOn,
               "failure detector requires the fault-tolerant path");
    detector = fd;
}

void
Endpoint::setRecoveryCallback(std::function<void(NodeId)> cb)
{
    DSM_ASSERT(!running.load(), "recovery hook installed while running");
    recoveryCb = std::move(cb);
}

void
Endpoint::setRetransmitTimeouts(std::uint64_t first_ns,
                                std::uint64_t cap_ns)
{
    DSM_ASSERT(!running.load(), "RTO changed while running");
    DSM_ASSERT(first_ns > 0 && cap_ns >= first_ns,
               "bad retransmit schedule %llu/%llu",
               static_cast<unsigned long long>(first_ns),
               static_cast<unsigned long long>(cap_ns));
    retransmitFirstNs = first_ns;
    retransmitCapNs = cap_ns;
}

void
Endpoint::start()
{
    DSM_ASSERT(!running.load(), "endpoint already started");
    running.store(true);
    if (detector != nullptr && seenRecoverySeq.empty()) {
        seenRecoverySeq.resize(static_cast<std::size_t>(net->nnodes()));
        for (NodeId n = 0; n < net->nnodes(); ++n)
            seenRecoverySeq[n] = detector->recoverySeqOf(n);
    }
    // Reply bypass engages with or without faults: the slot-occupancy
    // check in tryDeliverReply plus the per-pair ordering guard in
    // Network::send make a retransmitted duplicate reply lose the
    // race exactly once — the winner fills the slot, the loser drains
    // through the service thread's duplicate handling (see the
    // BypassedDuplicateReply regression test).
    net->setReplyReceiver(id, this);
    serviceThread = std::thread([this] { serviceLoop(); });
}

void
Endpoint::stop()
{
    if (!running.exchange(false))
        return;
    // Deregister first: setReplyReceiver synchronizes with in-flight
    // senders, so after this no peer thread can reach into our
    // pending map — replies sent while we are stopped (a checkpoint
    // quiesce) park in the inbox like any other message.
    net->setReplyReceiver(id, nullptr);
    // Wake our own service thread with a shutdown message.
    Message msg;
    msg.src = id;
    msg.dst = id;
    msg.type = MsgType::Shutdown;
    msg.vtSendNs = vclock.now();
    NodeStats scratch; // teardown traffic is not part of the run
    net->send(std::move(msg), scratch);
    if (serviceThread.joinable())
        serviceThread.join();
}

void
Endpoint::send(NodeId dst, MsgType type, std::vector<std::byte> payload,
               std::uint64_t reply_token)
{
    Message msg;
    msg.src = id;
    msg.dst = dst;
    msg.type = type;
    msg.replyToken = reply_token;
    msg.vtSendNs = clock().now();
    msg.payload = std::move(payload);
    net->send(std::move(msg), stats());
}

void
Endpoint::reply(NodeId dst, MsgType type, std::vector<std::byte> payload,
                std::uint64_t reply_token)
{
    DSM_ASSERT(reply_token != 0, "reply without token");
    Message msg;
    msg.src = id;
    msg.dst = dst;
    msg.type = type;
    msg.isReply = true;
    msg.replyToken = reply_token;
    msg.vtSendNs = clock().now();
    msg.payload = std::move(payload);
    if (faultsOn)
        recordReply(dst, type, msg.payload, reply_token);
    net->send(std::move(msg), stats());
}

void
Endpoint::waitActivity(std::uint32_t seen, std::uint64_t timeout_ns)
{
    activityWaiters.fetch_add(1, std::memory_order_seq_cst);
    // Re-check after advertising (Dekker): a bump between our stamp
    // read and the waiter registration must not be slept through.
    if (activityWord.load(std::memory_order_seq_cst) == seen)
        futexWaitTimed(activityWord, seen, timeout_ns);
    activityWaiters.fetch_sub(1, std::memory_order_relaxed);
}

bool
Endpoint::tryDeliverReply(Message &msg)
{
    std::lock_guard<std::mutex> g(pendingMu);
    auto it = pending.find(msg.replyToken);
    if (it == pending.end())
        return false; // no parked caller (e.g. quiesced): inbox path
    PendingReply *slot = it->second;
    if (slot->ready.load(std::memory_order_relaxed) != 0)
        return false; // already filled; cannot happen without faults
    slot->msg = std::move(msg);
    slot->viaBypass = true;
    slot->ready.store(1, std::memory_order_release);
    wakeCaller(slot->ready, faultsOn);
    return true;
}

Message
Endpoint::call(NodeId dst, MsgType type, std::vector<std::byte> payload)
{
    return call(dst, type, std::move(payload), nullptr);
}

Message
Endpoint::call(NodeId dst, MsgType type, std::vector<std::byte> payload,
               bool *peer_down)
{
    if (peer_down != nullptr)
        *peer_down = false;
    const std::uint64_t token = nextToken.fetch_add(1);
    PendingReply slot;
    {
        std::lock_guard<std::mutex> g(pendingMu);
        pending.emplace(token, &slot);
    }

    // Fault-tolerant round trips keep a payload copy for retransmits.
    const bool retransmittable =
        faultsOn && FaultInjector::droppable(type);
    std::vector<std::byte> retransmit_copy;
    if (retransmittable)
        retransmit_copy = payload;

    Message msg;
    msg.src = id;
    msg.dst = dst;
    msg.type = type;
    msg.replyToken = token;
    msg.vtSendNs = clock().now();
    msg.payload = std::move(payload);
    net->send(std::move(msg), stats());

    // Abandon the wait (typed PeerUnavailable outcome): unpark the
    // token under pendingMu so neither delivery path can fill a dead
    // stack slot. Both fills flip ready while holding pendingMu, so a
    // still-zero ready under the lock means no fill can race the
    // erase; a nonzero one means the reply landed after all — the
    // caller takes it instead of abandoning.
    auto tryAbandon = [&]() -> bool {
        std::lock_guard<std::mutex> g(pendingMu);
        if (slot.ready.load(std::memory_order_acquire) != 0)
            return false;
        pending.erase(token);
        return true;
    };

    if (!retransmittable) {
        if (detector == nullptr) {
            while (slot.ready.load(std::memory_order_acquire) == 0)
                slot.ready.wait(0, std::memory_order_acquire);
        } else {
            // Non-droppable traffic is never lost — during an outage
            // it parks in the down peer's inbox and is replayed after
            // the restore — so the wait only needs to surface the
            // degradation (counted retries, optional abandonment)
            // rather than silently hanging for the outage's duration.
            const std::uint64_t tick_ns =
                std::max(detector->deadlineNs(), retransmitFirstNs);
            while (slot.ready.load(std::memory_order_acquire) == 0) {
                if (futexWaitTimed(slot.ready, 0, tick_ns))
                    continue; // woken (or spurious): re-check ready
                if (detector->anyDown())
                    stats().peerUnavailableRetries++;
                if (peer_down != nullptr && detector->isDown(dst) &&
                    tryAbandon()) {
                    *peer_down = true;
                    return Message{};
                }
            }
        }
    } else {
        // Deadline + bounded exponential backoff: if the reply does
        // not land in time, resend the request with a bumped attempt
        // stamp. The injector never drops attempts past the immunity
        // threshold and the responder dedups (resending its recorded
        // reply at an immune attempt), so the loop terminates — a slow
        // responder (a barrier manager waiting for stragglers) just
        // sees periodic duplicates it ignores.
        std::uint64_t deadline_ns = retransmitFirstNs;
        std::uint32_t attempts = 0;
        while (slot.ready.load(std::memory_order_acquire) == 0) {
            if (futexWaitTimed(slot.ready, 0, deadline_ns))
                continue; // woken (or spurious): re-check ready
            if (detector != nullptr && detector->anyDown()) {
                stats().peerUnavailableRetries++;
                if (peer_down != nullptr && detector->isDown(dst) &&
                    tryAbandon()) {
                    *peer_down = true;
                    return Message{};
                }
                if (detector->isDown(dst)) {
                    // Resending into a down inbox is a retransmit
                    // storm with no listener; hold fire at the backoff
                    // cap until the detector revives the peer.
                    deadline_ns = retransmitCapNs;
                    continue;
                }
            }
            ++attempts;
            DSM_ASSERT(attempts < 10000,
                       "retransmit storm on node %d: %s -> %d never "
                       "answered",
                       id, toString(type), dst);
            Message retry;
            retry.src = id;
            retry.dst = dst;
            retry.type = type;
            retry.replyToken = token;
            retry.vtSendNs = clock().now();
            retry.attempt = static_cast<std::uint8_t>(
                std::min<std::uint32_t>(attempts, 255));
            retry.payload = retransmit_copy;
            stats().retransmissions++;
            net->send(std::move(retry), stats());
            deadline_ns = std::min(deadline_ns * 2, retransmitCapNs);
        }
    }
    Message out = std::move(slot.msg);
    {
        std::lock_guard<std::mutex> g(pendingMu);
        pending.erase(token);
    }
    if (slot.viaBypass) {
        // The reply never crossed the service thread: the receiver-
        // side wire accounting it would have done lands here instead,
        // in this caller's context (its private delta on SMP nodes —
        // the single-writer stats discipline holds). The node clock
        // is deliberately not advanced: only this caller's execution
        // depends on the reply's arrival time.
        stats().messagesReceived++;
        stats().bytesReceived += out.wireSize();
        // So does the liveness stamp the service thread would have
        // taken from the delivery (heard() is CAS-guarded and
        // thread-safe; the stats argument is this caller's private
        // delta, so the single-writer discipline still holds).
        if (detector != nullptr && out.src != id)
            detector->heard(out.src, stats());
    }
    // Causality: we cannot proceed before the reply arrived.
    clock().advanceTo(out.vtArriveNs);
    return out;
}

void
Endpoint::serviceLoop()
{
    Message msg;
    if (detector == nullptr) {
        while (net->recv(id, msg)) {
            if (!dispatch(msg))
                break;
        }
        return;
    }

    // Detector armed: timed receives double as the liveness prober.
    // Every drained message stamps the sender's liveness; every idle
    // tick stamps our own and runs the deadline scan, so a peer that
    // goes silent is declared down within ~1.5x the deadline without
    // a dedicated prober thread. Recovery hooks (orphaned-lock
    // re-forwarding) drain here too — always on the service thread.
    const std::uint64_t tick_ns =
        std::max<std::uint64_t>(detector->deadlineNs() / 2, 100'000);
    for (;;) {
        const RingPop st = net->recvTimed(id, msg, tick_ns);
        if (st == RingPop::Closed)
            break;
        detector->heartbeat(id);
        if (st == RingPop::Timeout) {
            detector->tick(id, nodeStats);
            runRecoveryHooks();
            continue;
        }
        if (msg.src != id) // self-sends are not peer liveness evidence
            detector->heard(msg.src, nodeStats);
        runRecoveryHooks();
        if (!dispatch(msg))
            break;
    }
}

bool
Endpoint::dispatch(Message &msg)
{
    if (msg.type == MsgType::Shutdown)
        return false;

    const NodeId src = msg.src;
    dispatchInner(msg);
    // Every earlier send from src is now fully applied: re-arm the
    // reply-bypass ordering guard for the pair (release-decrement
    // pairs with the guard's acquire load in Network::send).
    net->noteDispatched(id, src);
    // App-level blocking dequeues poll shared state this dispatch may
    // have advanced.
    bumpActivity();
    return true;
}

void
Endpoint::dispatchInner(Message &msg)
{
    // The handler runs "on this node's CPU": account arrival.
    vclock.advanceTo(msg.vtArriveNs);
    nodeStats.messagesReceived++;
    nodeStats.bytesReceived += msg.wireSize();

    if (msg.isReply) {
        // Fill + notify under pendingMu: the caller must reacquire
        // it to erase the token before its stack slot dies, so the
        // notify always lands on a live PendingReply even when the
        // waiter observes the ready store without ever sleeping.
        std::lock_guard<std::mutex> g(pendingMu);
        auto it = pending.find(msg.replyToken);
        if (it == pending.end()) {
            if (faultsOn)
                return; // duplicate of an already-taken (or
                        // abandoned) reply
            panic("reply token %llu has no waiter on node %d",
                  static_cast<unsigned long long>(msg.replyToken), id);
        }
        PendingReply *slot = it->second;
        if (slot->ready.load(std::memory_order_relaxed) != 0)
            return; // duplicate raced the caller's erase (one copy
                    // may have arrived via the bypass slot)
        slot->msg = std::move(msg);
        slot->ready.store(1, std::memory_order_release);
        wakeCaller(slot->ready, faultsOn);
        return;
    }

    if (faultsOn && dedupRequest(msg))
        return; // retransmitted duplicate, never re-dispatched

    DSM_ASSERT(handler != nullptr, "message with no handler");
    handler(msg);
    // The request payload is dead once handled; recycle it.
    BufferPool::instance().release(std::move(msg.payload));
}

void
Endpoint::runRecoveryHooks()
{
    for (NodeId n = 0; n < static_cast<NodeId>(seenRecoverySeq.size());
         ++n) {
        const std::uint64_t seq = detector->recoverySeqOf(n);
        if (seq == seenRecoverySeq[n])
            continue;
        seenRecoverySeq[n] = seq;
        if (recoveryCb)
            recoveryCb(n);
    }
}

bool
Endpoint::dedupRequest(const Message &msg)
{
    if (msg.replyToken == 0 || !FaultInjector::droppable(msg.type))
        return false;
    auto &window = dedup[msg.src];
    for (const DedupEntry &e : window) {
        if (e.token != msg.replyToken)
            continue;
        if (e.replied) {
            // The original reply was dropped (or is in flight and the
            // duplicate raced it): resend the recorded copy at an
            // immune attempt so this retry cycle terminates.
            Message re;
            re.src = id;
            re.dst = msg.src;
            re.type = e.replyType;
            re.isReply = true;
            re.replyToken = e.token;
            re.vtSendNs = vclock.now();
            re.attempt = FaultInjector::kAttemptImmunity;
            re.payload = e.replyPayload;
            net->send(std::move(re), nodeStats);
        }
        // Not replied yet (parked at a barrier manager or lock queue,
        // or mid-handler): the pending original will answer; drop the
        // duplicate.
        return true;
    }
    window.push_back({msg.replyToken, false, MsgType::Invalid, {}});
    if (window.size() > kDedupWindow)
        window.pop_front();
    return false;
}

void
Endpoint::recordReply(NodeId dst, MsgType type,
                      const std::vector<std::byte> &payload,
                      std::uint64_t token)
{
    if (token == 0 || !FaultInjector::droppable(type))
        return;
    for (DedupEntry &e : dedup[dst]) {
        if (e.token != token)
            continue;
        e.replied = true;
        e.replyType = type;
        e.replyPayload = payload;
        return;
    }
    // No window entry: the request predates fault arming or was
    // evicted; nothing to record (a retransmit would re-enter it).
}

} // namespace dsm
