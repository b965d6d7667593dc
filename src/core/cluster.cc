#include "core/cluster.hh"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <thread>

#include "driver/proc_launcher.hh"
#include "net/failure_detector.hh"
#include "net/socket_transport.hh"
#include "util/buffer_pool.hh"
#include "util/logging.hh"

namespace dsm {

Cluster::Node::Node(const ClusterConfig &config, Transport &net, NodeId id)
    : arena(config.arenaBytes, config.pageSize),
      ep(net, id, clock, stats),
      locks(ep, config.threadsPerNode, config.lockLocalHandoffBound,
            config.lockFairnessAdaptive > 0),
      barriers(ep, config.threadsPerNode)
{
    Runtime::Deps deps;
    deps.self = id;
    deps.nprocs = config.nprocs;
    deps.threadsPerNode = config.threadsPerNode;
    deps.arena = &arena;
    deps.endpoint = &ep;
    deps.locks = &locks;
    deps.barriers = &barriers;
    deps.regions = &regions;
    deps.nodeLocks = &nlocks;
    deps.cluster = &config;
    if (config.runtime.model == Model::EC)
        rt = std::make_unique<EcRuntime>(deps);
    else
        rt = std::make_unique<LrcRuntime>(deps);
}

Cluster::Cluster(const ClusterConfig &config)
{
    std::string fallback;
    cfg = config.resolved(&fallback);
    if (!fallback.empty())
        warn("%s", fallback.c_str());
    cfg.runtime.validate();
    // The pool is process-wide; the newest cluster's ablation setting
    // wins (clusters run sequentially in tests and benches).
    BufferPool::instance().setEnabled(cfg.pooledBuffers);

    net = std::make_unique<Network>(cfg.nprocs, cfg.cost);
    if (cfg.blockingDequeue > 0)
        net->setAdaptiveInboxSpin(true);

    // Real (unmodeled) message drops; null when the knob is off, so
    // the send hot path pays only a pointer test. A silent-peer
    // outage needs the injector too (rate 0 is fine — silence is
    // checked before the rate gate), it is the silence lever.
    const bool outageArmed =
        cfg.faultOutageNode >= 0 && cfg.faultOutageEpoch >= 1;
    if (cfg.faultMsgDrop > 0 || outageArmed) {
        faults = std::make_unique<FaultInjector>(
            static_cast<std::uint64_t>(cfg.faultSeed), cfg.faultMsgDrop);
        net->setFaultInjector(faults.get());
    }

    // Liveness tracking: one shared detector — any service thread's
    // stamp of a peer is visible to (and revives it for) the whole
    // cluster, mirroring how a real network's arrivals update every
    // observer that hears the node.
    if (cfg.fdDeadlineMs > 0) {
        detector = std::make_unique<FailureDetector>(
            *net, cfg.nprocs,
            static_cast<std::uint64_t>(cfg.fdDeadlineMs) * 1'000'000,
            faults.get());
    }

    nodes.reserve(cfg.nprocs);
    for (int i = 0; i < cfg.nprocs; ++i)
        nodes.push_back(std::make_unique<Node>(cfg, *net, i));

    for (auto &node : nodes) {
        Node *n = node.get();
        // The detector's PeerUnavailable returns ride the
        // fault-tolerant request path, drops or not.
        if (faults || detector)
            n->ep.setFaultsEnabled(true);
        n->ep.setBlockingDequeue(cfg.blockingDequeue > 0);
        n->ep.setRetransmitTimeouts(
            static_cast<std::uint64_t>(cfg.faultRtoFirstUs) * 1'000,
            static_cast<std::uint64_t>(cfg.faultRtoCapUs) * 1'000);
        if (detector) {
            n->ep.setFailureDetector(detector.get());
            // Down -> healthy transition of a peer: re-forward any
            // lock grant the outage orphaned at that peer.
            n->ep.setRecoveryCallback(
                [n](NodeId peer) { n->locks.onPeerRecovered(peer); });
            n->rt->setFailureDetector(detector.get());
        }
        if (cfg.checkpointEvery > 0) {
            n->ckpt = std::make_unique<CheckpointCoordinator>(
                n->ep.self(), cfg, faults.get(), detector.get(), *net,
                n->ep, n->locks, n->barriers);
            n->rt->setCheckpoint(n->ckpt.get());
        }
        n->ep.setHandler([n](Message &msg) {
            switch (msg.type) {
              case MsgType::LockRequest:
              case MsgType::LockForward:
                n->locks.handleMessage(msg);
                break;
              case MsgType::BarrierArrive:
                n->barriers.handleMessage(msg);
                break;
              default:
                n->rt->handleMessage(msg);
            }
        });
    }
}

Cluster::~Cluster()
{
    for (auto &node : nodes)
        node->ep.stop();
    if (net)
        net->shutdown();
}

std::exception_ptr
Cluster::runWorkers(int first_node, int last_node,
                    const std::function<void(Runtime &)> &app_main,
                    const std::function<void()> &quiesce)
{
    const int T = cfg.threadsPerNode;
    const int span = last_node - first_node;
    // SPMD allocation replay starts from the log as it stands *now*
    // (one snapshot per node, before any worker runs): allocations a
    // test performed before run() are skipped by every worker, and the
    // first worker to reach a new position allocates for its siblings.
    std::vector<std::uint32_t> allocBase(span);
    for (int i = 0; i < span; ++i)
        allocBase[i] = nodes[first_node + i]->rt->allocLogSize();
    std::vector<std::exception_ptr> errors(span * T);
    std::vector<std::unique_ptr<ThreadContext>> ctxs(span * T);
    std::vector<std::thread> threads;
    threads.reserve(span * T);
    for (int s = 0; s < span; ++s) {
        const int i = first_node + s;
        for (int t = 0; t < T; ++t) {
            ThreadContext &ctx = *(ctxs[s * T + t] =
                                       std::make_unique<ThreadContext>());
            ctx.node = static_cast<NodeId>(i);
            ctx.threadId = t;
            // Worker numbering is cluster-global regardless of how
            // many nodes this process hosts: the SPMD partition must
            // be identical across transport tiers.
            ctx.worker = i * T + t;
            ctx.numWorkers = cfg.nprocs * T;
            // T == 1: the worker shares the node clock with the
            // service thread (the paper's uniprocessor node, where
            // the SIGIO handler stole application cycles) — the
            // historical accounting, bit for bit. T > 1: each
            // worker is its own CPU; the node clock plays the
            // protocol processor, and the clocks meet at sync
            // points and at run end.
            ctx.clock = T == 1 ? &nodes[i]->clock : &ctx.ownClock;
            ctx.allocCursor = allocBase[s];
            threads.emplace_back([&, i, s, t] {
                ThreadContext::Scope scope(ctxs[s * T + t].get());
                try {
                    app_main(*nodes[i]->rt);
                } catch (...) {
                    errors[s * T + t] = std::current_exception();
                }
            });
        }
    }
    for (auto &t : threads)
        t.join();
    if (quiesce)
        quiesce();
    for (int i = first_node; i < last_node; ++i)
        nodes[i]->ep.stop();

    // Fold the workers' private counters and clocks into their nodes
    // only now: every worker has joined and every service thread has
    // stopped, so this is plain single-threaded summation.
    for (int s = 0; s < span; ++s) {
        for (int t = 0; t < T; ++t) {
            const ThreadContext &ctx = *ctxs[s * T + t];
            nodes[first_node + s]->stats += ctx.stats;
            nodes[first_node + s]->clock.advanceTo(ctx.clock->now());
        }
    }

    for (auto &err : errors) {
        if (err)
            return err;
    }
    return nullptr;
}

RunResult
Cluster::run(const std::function<void(Runtime &)> &app_main)
{
    DSM_ASSERT(!ran, "a Cluster instance runs exactly one application");
    ran = true;

    if (cfg.transport != "ring")
        return runAsProcesses(app_main);

    for (auto &node : nodes)
        node->ep.start();

    if (std::exception_ptr err = runWorkers(0, cfg.nprocs, app_main))
        std::rethrow_exception(err);

    RunResult result;
    for (auto &node : nodes) {
        const std::uint64_t t = node->clock.now();
        result.nodeTimesNs.push_back(t);
        result.execTimeNs = std::max(result.execTimeNs, t);
        result.perNode.push_back(node->stats);
        result.total += node->stats;
    }
    result.networkMessages = net->totalMessages();
    for (auto &node : nodes) {
        if (!node->ckpt)
            continue;
        result.checkpointBytes =
            std::max(result.checkpointBytes, node->ckpt->lastBlobBytes());
        result.restoreTimeNs =
            std::max(result.restoreTimeNs, node->ckpt->lastRestoreNs());
    }
    return result;
}

RunResult
Cluster::runAsProcesses(const std::function<void(Runtime &)> &app_main)
{
    std::string dir = cfg.socketDir;
    const bool ephemeralDir = dir.empty();
    if (ephemeralDir) {
        dir = makeRendezvousDir();
    } else {
        // A pinned directory is created on demand but never removed —
        // the caller owns it (and its leftovers, e.g. for debugging).
        DSM_ASSERT(::mkdir(dir.c_str(), 0700) == 0 || errno == EEXIST,
                   "mkdir(%s): %s", dir.c_str(), std::strerror(errno));
    }

    // Fork before any endpoint starts: the whole cluster was built
    // single-threaded, so every child inherits identical pre-run
    // state — arenas, allocation logs, resolved config. Flush stdio
    // first: a forked copy of the parent's buffered output would be
    // re-flushed by every child at its own exit.
    std::fflush(nullptr);
    std::vector<pid_t> pids;
    const int rank = forkNodeProcesses(cfg.nprocs, pids);
    if (rank >= 0)
        runChildNode(rank, dir, app_main);

    std::string failure;
    std::vector<int> appErrorRanks;
    const bool ok = awaitNodeProcesses(pids, failure, appErrorRanks);

    RunResult result;
    std::string appError;
    if (ok) {
        for (int i = 0; i < cfg.nprocs; ++i) {
            NodeResult r = readNodeResult(dir, i);
            if (!r.error.empty() && appError.empty())
                appError = "node " + std::to_string(i) + ": " + r.error;
            // Fold the child's end state into the parent's node
            // objects so memory(), runtime() and the RunResult shape
            // are transport-neutral.
            Node &node = *nodes[i];
            node.stats = r.stats;
            node.clock.advanceTo(r.clockNs);
            DSM_ASSERT(r.arena.size() == node.arena.size(),
                       "node %d dumped a %zu-byte arena, expected %zu",
                       i, r.arena.size(), node.arena.size());
            std::memcpy(node.arena.at(0), r.arena.data(),
                        r.arena.size());
            result.networkMessages += r.transportMessages;
        }
    }
    if (ephemeralDir)
        removeRendezvousDir(dir);
    DSM_ASSERT(ok, "socket-transport run failed: %s", failure.c_str());
    if (!appError.empty())
        throw std::runtime_error(appError);

    for (auto &node : nodes) {
        const std::uint64_t t = node->clock.now();
        result.nodeTimesNs.push_back(t);
        result.execTimeNs = std::max(result.execTimeNs, t);
        result.perNode.push_back(node->stats);
        result.total += node->stats;
    }
    return result;
}

void
Cluster::runChildNode(int rank, const std::string &dir,
                      const std::function<void(Runtime &)> &app_main)
{
    NodeResult res;
    res.rank = rank;

    SocketTransport st(rank, cfg.nprocs, cfg.cost,
                       cfg.transport == "tcp" ? SocketKind::Tcp
                                              : SocketKind::Unix,
                       dir);
    if (cfg.blockingDequeue > 0)
        st.setAdaptiveInboxSpin(true);
    if (faults)
        st.setFaultInjector(faults.get());

    Node &node = *nodes[rank];
    node.ep.rebindTransport(st);
    st.connectPeers();
    node.ep.start();

    // The goodbye rendezvous runs between worker join and endpoint
    // stop, even when the app threw: SPMD apps throw symmetrically
    // (an asymmetric throw deadlocks the in-process tier too), so
    // every rank reaches it and the rounds complete.
    const std::exception_ptr err = runWorkers(
        rank, rank + 1, app_main, [&st] { st.finishRun(); });
    if (err) {
        try {
            std::rethrow_exception(err);
        } catch (const std::exception &e) {
            res.error = e.what();
        } catch (...) {
            res.error = "non-standard application exception";
        }
        if (res.error.empty())
            res.error = "application exception";
    }

    res.clockNs = node.clock.now();
    res.transportMessages = st.totalMessages();
    res.stats = node.stats;
    res.arena.assign(node.arena.at(0),
                     node.arena.at(0) + node.arena.size());
    writeNodeResult(dir, res);
    // _exit, not exit: the child inherited the parent's Cluster and
    // must not run its destructors (they would stop endpoints that
    // point at the dying transport). _exit skips stdio flushing, so
    // push out anything the app printed (block-buffered on pipes)
    // before the buffers evaporate.
    std::fflush(nullptr);
    ::_exit(res.error.empty() ? 0 : kAppErrorExit);
}

} // namespace dsm
