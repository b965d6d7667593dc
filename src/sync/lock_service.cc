#include "sync/lock_service.hh"

#include <algorithm>

#include "util/logging.hh"

namespace dsm {

LockService::LockService(Endpoint &endpoint, int threads_per_node,
                         int local_handoff_bound, bool adaptive_fairness)
    : ep(endpoint), threadsPerNode(threads_per_node),
      handoffBound(local_handoff_bound),
      adaptiveFairness(adaptive_fairness)
{
    DSM_ASSERT(threadsPerNode >= 1, "bad threadsPerNode %d",
               threads_per_node);
    DSM_ASSERT(handoffBound >= 0, "bad lock fairness bound %d",
               local_handoff_bound);
}

void
LockService::setHooks(LockHooks h)
{
    hooks = std::move(h);
}

int
LockService::selfThread()
{
    ThreadContext *ctx = ThreadContext::current();
    return ctx ? ctx->threadId : LockService::kExternalThread;
}

LockService::LockLocal &
LockService::localState(LockId lock)
{
    auto [it, inserted] = locks.try_emplace(lock);
    if (inserted) {
        // The manager initially owns every lock it manages.
        it->second.owned = isManager(lock);
        if (adaptiveFairness) {
            it->second.bound = handoffBound > 0
                                   ? static_cast<std::uint32_t>(
                                         handoffBound)
                                   : kAdaptiveBoundSeed;
        }
    }
    return it->second;
}

std::uint32_t
LockService::currentFairnessBound(LockId lock) const
{
    std::lock_guard<std::mutex> g(mu);
    auto it = locks.find(lock);
    if (it == locks.end()) {
        return adaptiveFairness
                   ? (handoffBound > 0
                          ? static_cast<std::uint32_t>(handoffBound)
                          : kAdaptiveBoundSeed)
                   : static_cast<std::uint32_t>(handoffBound);
    }
    return effectiveBound(it->second);
}

bool
LockService::holds(LockId lock) const
{
    std::lock_guard<std::mutex> g(mu);
    auto it = locks.find(lock);
    return it != locks.end() &&
           (it->second.writeHolder != kNoHolder ||
            it->second.readHolders > 0);
}

bool
LockService::holdsExclusively(LockId lock) const
{
    std::lock_guard<std::mutex> g(mu);
    auto it = locks.find(lock);
    return it != locks.end() && it->second.writeHolder == selfThread();
}

int
LockService::localWaiterCount(LockId lock) const
{
    std::lock_guard<std::mutex> g(mu);
    auto it = locks.find(lock);
    return it == locks.end() ? 0 : it->second.localWaiters;
}

std::size_t
LockService::pendingRemoteCount(LockId lock) const
{
    std::lock_guard<std::mutex> g(mu);
    auto it = locks.find(lock);
    return it == locks.end() ? 0 : it->second.pending.size();
}

void
LockService::acquire(LockId lock, AccessMode mode)
{
    Message reply;
    {
        std::unique_lock<std::mutex> g(mu);
        LockLocal &state = localState(lock);
        const int me = selfThread();
        if (threadsPerNode == 1) {
            // The one-app-thread assert of the historical system.
            DSM_ASSERT(state.writeHolder == LockService::kNoHolder &&
                           state.readHolders == 0,
                       "recursive acquire of lock %u", lock);
        } else {
            DSM_ASSERT(state.writeHolder != me,
                       "recursive acquire of lock %u", lock);
        }

        bool waited = false;
        for (;;) {
            // Read holds do NOT exclude sibling writers: an EC read
            // lock is a consistency-transfer grant, not mutual
            // exclusion (reader/writer exclusion across phases comes
            // from barriers — the owner node writes while remote
            // readers hold cached copies, and the paper's programs
            // are phase-separated). A local read hold mirrors a
            // remote cached copy, so a sibling's write acquire must
            // not wait on it — only on another writer (and reads wait
            // for the writer's release, exactly like a remote read
            // request queued at a write-holding owner).
            const bool available = state.writeHolder == LockService::kNoHolder &&
                                   !state.fetching;
            if (available) {
                const bool local = mode == AccessMode::Write
                                       ? state.owned
                                       : (state.owned ||
                                          state.readCached);
                if (!local)
                    break; // remote acquisition

                // Local reacquire: the owner's copy of the associated
                // data is current, and a cached read grant is valid
                // until the next barrier; no messages (Midway/
                // TreadMarks fast path). When we parked behind a
                // sibling thread first, this completes an intra-node
                // hand-off: the transfer never touched the network.
                if (mode == AccessMode::Write)
                    state.writeHolder = me;
                else
                    state.readHolders++;
                // Every local grant at the *owner* — a hand-off to a
                // parked waiter or a fast-path reacquire barging past
                // one — extends the run the fairness bound caps: both
                // keep a queued remote requester waiting. Cached-read
                // reacquires at a non-owner are not counted: the
                // pending queue lives at the owner, so nobody can be
                // waiting here.
                if (state.owned) {
                    state.localHandoffRun++;
                    ep.stats().maxLocalHandoffRun =
                        std::max<std::uint64_t>(
                            ep.stats().maxLocalHandoffRun,
                            state.localHandoffRun);
                }
                if (waited) {
                    // Served locally after parking: either a sibling's
                    // release handed the lock over or a sibling's
                    // completed remote fetch is being shared. Order
                    // our clock past that transfer point; no message
                    // was sent either way.
                    ep.stats().intraNodeLockHandoffs++;
                    ep.clock().advanceTo(state.lastTransferNs);
                    ep.clock().add(ep.costModel().lockHandlingNs);
                }
                ep.stats().localLockHits++;
                if (mode == AccessMode::Write)
                    ep.stats().locksAcquired++;
                else
                    ep.stats().roLocksAcquired++;
                if (hooks.onAcquired)
                    hooks.onAcquired(lock, mode);
                return;
            }
            state.localWaiters++;
            waited = true;
            cv.wait(g);
            state.localWaiters--;
        }

        // At most one in-flight remote acquisition per lock: siblings
        // that miss while we fetch park above and take the lock by
        // local hand-off afterwards.
        state.fetching = true;
        std::vector<std::byte> info;
        if (hooks.makeRequest)
            info = hooks.makeRequest(lock, mode);

        if (isManager(lock)) {
            // Our own request at our own manager: run the manager step
            // here and send its forward under mu, as handleRequest
            // does, so forwards to one owner keep the manager's order.
            reply = ep.callHolding(g, [&](std::uint64_t token) {
                managerStep(lock, {ep.self(), token, mode, std::move(info)});
            });
        } else {
            g.unlock();
            WireWriter w;
            w.putU32(lock);
            w.putU8(static_cast<std::uint8_t>(mode));
            w.putBlob(info);
            reply = ep.call(managerOf(lock), MsgType::LockRequest, w.take());
        }
    }
    ep.clock().add(ep.costModel().lockHandlingNs);

    {
        std::lock_guard<std::mutex> g(mu);
        WireReader r(reply.payload);
        LockId granted = r.getU32();
        auto granted_mode = static_cast<AccessMode>(r.getU8());
        DSM_ASSERT(granted == lock && granted_mode == mode,
                   "grant does not match request");
        if (hooks.applyGrant)
            hooks.applyGrant(lock, mode, r);
        LockLocal &state = localState(lock);
        state.fetching = false;
        state.localHandoffRun = 0; // run restarts at a network grant
        if (mode == AccessMode::Write) {
            state.owned = true;
            state.writeHolder = selfThread();
            ep.stats().locksAcquired++;
        } else {
            state.readCached = true;
            state.readHolders++;
            ep.stats().roLocksAcquired++;
        }
        if (hooks.onAcquired)
            hooks.onAcquired(lock, mode);
        // Parked siblings resume from the grant's arrival, not from a
        // stale (or zero) release stamp.
        state.lastTransferNs = ep.clock().now();
    }
    cv.notify_all();
}

void
LockService::release(LockId lock)
{
    {
        std::lock_guard<std::mutex> g(mu);
        LockLocal &state = localState(lock);
        const int me = selfThread();
        if (state.writeHolder == me) {
            state.writeHolder = LockService::kNoHolder;
        } else {
            DSM_ASSERT(state.readHolders > 0,
                       "release of unheld lock %u", lock);
            state.readHolders--;
        }
        state.lastTransferNs = ep.clock().now();
        const bool free_now =
            state.writeHolder == LockService::kNoHolder &&
            state.readHolders == 0;
        const std::uint32_t bound = effectiveBound(state);
        if (state.localWaiters > 0) {
            // Local waiters win: the lock stays on the node and the
            // next holder takes it without a message. Queued remote
            // requests drain at the first release with no local
            // contention — unless the fairness bound says k
            // consecutive hand-offs have already run, in which case a
            // pending remote requester is served first (ownership
            // leaves; the woken waiters fall back to a remote
            // acquisition through the manager).
            if (bound > 0 && free_now && state.owned &&
                !state.pending.empty() &&
                state.localHandoffRun >= bound) {
                ep.stats().remoteHandoffsForced++;
                if (adaptiveFairness) {
                    // The bound bit: this lock's local appetite is
                    // starving remotes — tighten it.
                    state.bound =
                        std::max<std::uint32_t>(1, state.bound / 2);
                    ep.stats().fairnessBoundShrinks++;
                }
                state.localHandoffRun = 0;
                drainPending(lock, state);
            }
            cv.notify_all();
        } else if (free_now && state.owned) {
            // The run of intra-node hand-offs ends when a release
            // finds no local taker. A run that completed with no
            // remote request ever queued is evidence the bound is too
            // tight for this lock's sharing pattern — let it grow.
            if (adaptiveFairness && state.pending.empty() &&
                state.localHandoffRun > 0 &&
                state.bound < kAdaptiveBoundMax) {
                state.bound = std::min<std::uint32_t>(
                    kAdaptiveBoundMax, state.bound * 2);
                ep.stats().fairnessBoundGrows++;
            }
            state.localHandoffRun = 0;
            drainPending(lock, state);
        }
    }
    // App-level blocking dequeues (Runtime::pollIdle) may be parked
    // waiting for exactly the state this release published.
    ep.bumpActivity();
}

void
LockService::grantNow(LockId lock, LockLocal &state, const Forward &fwd)
{
    DSM_ASSERT(fwd.origin != ep.self(), "self-grant");
    std::vector<std::byte> payload;
    if (hooks.makeGrant) {
        WireReader rinfo(fwd.requestInfo);
        payload = hooks.makeGrant(lock, fwd.mode, fwd.origin, rinfo);
    }
    WireWriter w;
    w.putU32(lock);
    w.putU8(static_cast<std::uint8_t>(fwd.mode));
    w.putBytes(payload.data(), payload.size());
    if (fwd.mode == AccessMode::Write)
        state.owned = false;
    ep.clock().add(ep.costModel().lockHandlingNs);
    ep.reply(fwd.origin, MsgType::LockGrant, w.take(), fwd.token);
}

void
LockService::drainPending(LockId lock, LockLocal &state)
{
    while (!state.pending.empty()) {
        Forward fwd = std::move(state.pending.front());
        state.pending.pop_front();
        grantNow(lock, state, fwd);
        if (fwd.mode == AccessMode::Write) {
            // Ownership moved; later forwards are chained to the new
            // owner by the manager, never to us (FIFO channels make
            // anything still queued here a protocol bug).
            DSM_ASSERT(state.pending.empty(),
                       "forwards queued behind an exclusive transfer");
            break;
        }
    }
}

void
LockService::clearReadCaches()
{
    std::lock_guard<std::mutex> g(mu);
    for (auto &[lock, state] : locks)
        state.readCached = false;
}

void
LockService::handleMessage(Message &msg)
{
    switch (msg.type) {
      case MsgType::LockRequest:
        handleRequest(msg);
        break;
      case MsgType::LockForward:
        handleForward(msg);
        break;
      default:
        panic("lock service got %s", toString(msg.type));
    }
}

void
LockService::handleRequest(Message &msg)
{
    WireReader r(msg.payload);
    LockId lock = r.getU32();
    auto mode = static_cast<AccessMode>(r.getU8());
    std::vector<std::byte> info = r.getBlob();

    std::lock_guard<std::mutex> g(mu);
    managerStep(lock, {msg.src, msg.replyToken, mode, std::move(info)});
}

void
LockService::managerStep(LockId lock, Forward fwd)
{
    DSM_ASSERT(isManager(lock), "lock request at non-manager");
    ep.clock().add(ep.costModel().lockHandlingNs);
    ep.stats().lockForwards++;

    auto [it, inserted] = managed.try_emplace(lock);
    if (inserted)
        it->second.lastOwner = ep.self();
    const NodeId target = it->second.lastOwner;
    // The node that last requested the lock for write owns it, or is
    // fetching it while its siblings park, so its acquire is local.
    DSM_ASSERT(target != fwd.origin, "lock %u requested by its last owner %d",
               lock, target);
    if (fwd.mode == AccessMode::Write)
        it->second.lastOwner = fwd.origin;

    if (target == ep.self()) {
        LockLocal &state = localState(lock);
        if (idleForGrant(state))
            grantNow(lock, state, fwd);
        else
            state.pending.push_back(std::move(fwd));
        return;
    }
    // Record the forward before sending: if the target dies, the
    // recovery hook re-forwards from this last stable record.
    it->second.hasForward = true;
    it->second.forwardTarget = target;
    it->second.lastForward = fwd;
    WireWriter w;
    w.putU32(lock);
    w.putU8(static_cast<std::uint8_t>(fwd.mode));
    w.putU16(static_cast<std::uint16_t>(fwd.origin));
    w.putBlob(fwd.requestInfo);
    ep.send(target, MsgType::LockForward, w.take(), fwd.token);
}

void
LockService::onPeerRecovered(NodeId peer)
{
    std::lock_guard<std::mutex> g(mu);
    for (auto &[lock, m] : managed) {
        if (!m.hasForward || m.forwardTarget != peer)
            continue;
        // Re-grant from the last stable record: the recovered owner
        // either lost the forward with its wiped state (the replay
        // delivers it) or still has it parked/granted (its token
        // dedup window drops the duplicate).
        WireWriter w;
        w.putU32(lock);
        w.putU8(static_cast<std::uint8_t>(m.lastForward.mode));
        w.putU16(static_cast<std::uint16_t>(m.lastForward.origin));
        w.putBlob(m.lastForward.requestInfo);
        ep.send(peer, MsgType::LockForward, w.take(),
                m.lastForward.token);
        ep.stats().orphanForwardsReplayed++;
    }
}

void
LockService::handleForward(Message &msg)
{
    WireReader r(msg.payload);
    LockId lock = r.getU32();
    auto mode = static_cast<AccessMode>(r.getU8());
    NodeId origin = static_cast<NodeId>(r.getU16());
    std::vector<std::byte> info = r.getBlob();

    std::lock_guard<std::mutex> g(mu);
    ep.clock().add(ep.costModel().lockHandlingNs);
    // Token dedup: a manager's orphan replay may duplicate a forward
    // that survived the outage in our parked inbox (or was already
    // granted before the cut). Granting it twice would corrupt
    // ownership; the duplicate is dropped and the original's grant
    // (delivered or in flight) answers the origin.
    const auto key = std::make_pair(origin, msg.replyToken);
    if (std::find(forwardTokens.begin(), forwardTokens.end(), key) !=
        forwardTokens.end())
        return;
    forwardTokens.push_back(key);
    if (forwardTokens.size() > kForwardDedupWindow)
        forwardTokens.pop_front();
    Forward fwd{origin, msg.replyToken, mode, std::move(info)};
    LockLocal &state = localState(lock);
    if (idleForGrant(state))
        grantNow(lock, state, fwd);
    else
        state.pending.push_back(std::move(fwd));
}

void
LockService::serialize(WireWriter &w) const
{
    std::lock_guard<std::mutex> g(mu);
    w.putU32(static_cast<std::uint32_t>(locks.size()));
    for (const auto &[lock, s] : locks) {
        w.putU32(lock);
        w.putU8(s.owned);
        w.putU8(s.readCached);
        w.putI64(s.writeHolder);
        w.putI64(s.readHolders);
        w.putU8(s.fetching);
        w.putI64(s.localWaiters);
        w.putU32(s.localHandoffRun);
        w.putU32(s.bound);
        w.putU64(s.lastTransferNs);
        w.putU32(static_cast<std::uint32_t>(s.pending.size()));
        for (const Forward &f : s.pending) {
            w.putI64(f.origin);
            w.putU64(f.token);
            w.putU8(static_cast<std::uint8_t>(f.mode));
            w.putBlob(f.requestInfo);
        }
    }
    w.putU32(static_cast<std::uint32_t>(managed.size()));
    for (const auto &[lock, m] : managed) {
        w.putU32(lock);
        w.putI64(m.lastOwner);
        w.putU8(m.hasForward);
        w.putI64(m.forwardTarget);
        w.putI64(m.lastForward.origin);
        w.putU64(m.lastForward.token);
        w.putU8(static_cast<std::uint8_t>(m.lastForward.mode));
        w.putBlob(m.lastForward.requestInfo);
    }
    w.putU32(static_cast<std::uint32_t>(forwardTokens.size()));
    for (const auto &[origin, token] : forwardTokens) {
        w.putI64(origin);
        w.putU64(token);
    }
}

void
LockService::restoreFrom(WireReader &r)
{
    std::lock_guard<std::mutex> g(mu);
    locks.clear();
    managed.clear();
    const std::uint32_t nlocks = r.getU32();
    for (std::uint32_t i = 0; i < nlocks; ++i) {
        const LockId lock = r.getU32();
        LockLocal s;
        s.owned = r.getU8() != 0;
        s.readCached = r.getU8() != 0;
        s.writeHolder = static_cast<int>(r.getI64());
        s.readHolders = static_cast<int>(r.getI64());
        s.fetching = r.getU8() != 0;
        s.localWaiters = static_cast<int>(r.getI64());
        s.localHandoffRun = r.getU32();
        s.bound = r.getU32();
        s.lastTransferNs = r.getU64();
        const std::uint32_t npending = r.getU32();
        for (std::uint32_t p = 0; p < npending; ++p) {
            Forward f;
            f.origin = static_cast<NodeId>(r.getI64());
            f.token = r.getU64();
            f.mode = static_cast<AccessMode>(r.getU8());
            f.requestInfo = r.getBlob();
            s.pending.push_back(std::move(f));
        }
        // At a quiesced cut no thread can be mid-fetch or parked.
        DSM_ASSERT(!s.fetching && s.localWaiters == 0,
                   "snapshot of lock %u taken while in motion", lock);
        locks.emplace(lock, std::move(s));
    }
    const std::uint32_t nmanaged = r.getU32();
    for (std::uint32_t i = 0; i < nmanaged; ++i) {
        const LockId lock = r.getU32();
        ManagerState &m = managed[lock];
        m.lastOwner = static_cast<NodeId>(r.getI64());
        m.hasForward = r.getU8() != 0;
        m.forwardTarget = static_cast<NodeId>(r.getI64());
        m.lastForward.origin = static_cast<NodeId>(r.getI64());
        m.lastForward.token = r.getU64();
        m.lastForward.mode = static_cast<AccessMode>(r.getU8());
        m.lastForward.requestInfo = r.getBlob();
    }
    const std::uint32_t ntokens = r.getU32();
    forwardTokens.clear();
    for (std::uint32_t i = 0; i < ntokens; ++i) {
        const NodeId origin = static_cast<NodeId>(r.getI64());
        const std::uint64_t token = r.getU64();
        forwardTokens.emplace_back(origin, token);
    }
}

void
LockService::wipeForRecovery()
{
    std::lock_guard<std::mutex> g(mu);
    locks.clear();
    managed.clear();
    forwardTokens.clear();
}

} // namespace dsm
