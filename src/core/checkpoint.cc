#include "core/checkpoint.hh"

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "core/runtime.hh"
#include "mem/wide_scan.hh"
#include "net/failure_detector.hh"
#include "net/fault_injector.hh"
#include "util/logging.hh"

namespace dsm {

CheckpointCoordinator::CheckpointCoordinator(
    NodeId self, const ClusterConfig &config, FaultInjector *fault_injector,
    FailureDetector *failure_detector, Network &network, Endpoint &endpoint,
    LockService &lock_service, BarrierService &barrier_service)
    : id(self), cfg(config), injector(fault_injector),
      detector(failure_detector), net(network), ep(endpoint),
      locks(lock_service), barriers(barrier_service)
{
    DSM_ASSERT(cfg.checkpointEvery >= 1, "checkpoint interval %d",
               cfg.checkpointEvery);
}

void
CheckpointCoordinator::atBarrier(Runtime &rt, BarrierId)
{
    std::unique_lock<std::mutex> g(mu);
    if (++arrived < cfg.threadsPerNode) {
        // Not the node's last thread: park until the leader finishes
        // the whole stop/snapshot/[restore]/restart sequence. The
        // rendezvous is what guarantees no sibling is mid-access or
        // mid-acquire while the leader reads protocol state.
        const std::uint64_t gen = generation;
        cv.wait(g, [&] { return generation != gen; });
        return;
    }
    arrived = 0;
    if (++barrierSeq % cfg.checkpointEvery == 0)
        checkpointAsLeader(rt);
    ++generation;
    g.unlock();
    cv.notify_all();
}

void
CheckpointCoordinator::checkpointAsLeader(Runtime &rt)
{
    // Quiesce: the service thread drains the inbox up to the
    // self-addressed Shutdown marker and joins. Peer messages behind
    // the marker park in the ring — it is the holdback queue — and
    // are processed after the restart, i.e. after the cut.
    ep.stop();

    std::vector<std::byte> image = snapshot(rt);
    ++epochsDone;
    // Anchor cadence: epoch 1 and every anchorEvery-th cut after it
    // are full; between anchors only the runs that changed against
    // the previous cut's image are stored. lastBlob always keeps the
    // materialized image (the in-memory restore tier and the next
    // delta's base); lastBytes reports what a store actually costs.
    const bool full = cfg.ckptDelta == 0 || lastBlob.empty() ||
                      (epochsDone - 1) % cfg.ckptAnchorEvery == 0;
    if (full) {
        lastBytes = image.size();
        lastBlob = std::move(image);
        if (!cfg.ckptDir.empty())
            persist(rt, lastBlob, true);
    } else {
        const std::vector<std::byte> delta =
            makeDelta(lastBlob, image, epochsDone - 1);
        lastBytes = delta.size();
        ep.stats().checkpointDeltaBytes += delta.size();
        lastBlob = std::move(image);
        if (!cfg.ckptDir.empty())
            persist(rt, delta, false);
    }
    ep.stats().checkpointsTaken++;

    if (id == cfg.faultOutageNode &&
        epochsDone == static_cast<std::uint64_t>(cfg.faultOutageEpoch)) {
        // Silent-peer outage: go dark for faultOutageMs. The injector
        // drops all our droppable traffic — attempt immunity included
        // — and with the service thread already joined no heartbeat is
        // stamped, so survivors' failure detectors genuinely declare
        // us down and their blocked waits degrade into counted
        // retries. Then rebuild from the latest checkpoint tier and
        // rejoin; our first deliveries stamp us alive again and the
        // survivors' recovery hooks run.
        DSM_ASSERT(injector != nullptr,
                   "outage armed without a fault injector");
        injector->setSilenced(id, true);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(cfg.faultOutageMs));
        const auto t0 = std::chrono::steady_clock::now();
        rt.wipeForRecovery();
        locks.wipeForRecovery();
        barriers.wipeForRecovery();
        restore(rt, restoreSource());
        const auto t1 = std::chrono::steady_clock::now();
        restoreNs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
        ep.stats().recoveryReplays++;
        injector->setSilenced(id, false);
    }

    if (id == cfg.faultKillNode &&
        epochsDone == static_cast<std::uint64_t>(cfg.faultKillEpoch)) {
        // Chaos kill: this node "dies" at the cut and is rebuilt from
        // the snapshot alone. Mark the inbox down while the node is
        // dead so a recovery-aware consumer would see a typed
        // PeerDown instead of blocking, then restore and clear.
        net.markNodeDown(id);
        const auto t0 = std::chrono::steady_clock::now();
        rt.wipeForRecovery();
        locks.wipeForRecovery();
        barriers.wipeForRecovery();
        restore(rt, restoreSource());
        const auto t1 = std::chrono::steady_clock::now();
        restoreNs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
        ep.stats().recoveryReplays++;
        net.clearNodeDown(id);
    }

    // A long cut must not read as an outage to peers' detectors.
    if (detector != nullptr)
        detector->heartbeat(id);

    // Restart: the fresh service thread drains the parked messages —
    // the node replays forward from the cut. Restart depends on no
    // peer, so recovery cannot deadlock.
    ep.start();
}

std::vector<std::byte>
CheckpointCoordinator::restoreSource() const
{
    if (cfg.ckptDir.empty())
        return lastBlob;
    if (cfg.ckptDelta > 0) {
        PersistedImage p = loadLatestImage(cfg.ckptDir, id);
        DSM_ASSERT(p.epoch == epochsDone,
                   "persisted chain at epoch %llu, cut at %llu",
                   static_cast<unsigned long long>(p.epoch),
                   static_cast<unsigned long long>(epochsDone));
        return std::move(p.image);
    }
    return loadPersisted();
}

std::vector<std::byte>
CheckpointCoordinator::snapshot(Runtime &rt) const
{
    WireWriter w;
    w.putU64(kMagic);
    w.putU32(kVersion);
    w.putI64(id);
    w.putU64(epochsDone + 1);
    rt.serialize(w);
    locks.serialize(w);
    barriers.serialize(w);
    return w.take();
}

void
CheckpointCoordinator::restore(Runtime &rt,
                               const std::vector<std::byte> &blob)
{
    WireReader r(blob);
    DSM_ASSERT(r.getU64() == kMagic, "bad checkpoint magic");
    DSM_ASSERT(r.getU32() == kVersion, "bad checkpoint version");
    DSM_ASSERT(r.getI64() == id, "checkpoint of a different node");
    DSM_ASSERT(r.getU64() == epochsDone, "checkpoint of a different cut");
    rt.restoreFrom(r);
    locks.restoreFrom(r);
    barriers.restoreFrom(r);
    DSM_ASSERT(r.done(), "trailing bytes in checkpoint blob");
}

std::string
CheckpointCoordinator::blobPath() const
{
    return cfg.ckptDir + "/node" + std::to_string(id) + "-epoch" +
           std::to_string(epochsDone) + ".bin";
}

void
CheckpointCoordinator::persist(Runtime &rt,
                               const std::vector<std::byte> &blob,
                               bool full) const
{
    std::filesystem::create_directories(cfg.ckptDir);
    {
        std::ofstream out(blobPath(), std::ios::binary | std::ios::trunc);
        DSM_ASSERT(out.good(), "cannot write checkpoint %s",
                   blobPath().c_str());
        out.write(reinterpret_cast<const char *>(blob.data()),
                  static_cast<std::streamsize>(blob.size()));
        DSM_ASSERT(out.good(), "short checkpoint write to %s",
                   blobPath().c_str());
    }
    // One manifest per node (no cross-thread file contention): one
    // line per cut with its kind (a delta records the epoch it is
    // based on; base+delta chains materialize through applyDelta) and
    // the vector-time frontier of the snapshot.
    const std::string manifest =
        cfg.ckptDir + "/manifest-node" + std::to_string(id) + ".txt";
    std::ofstream out(manifest,
                      manifestOwned ? std::ios::app : std::ios::trunc);
    manifestOwned = true;
    DSM_ASSERT(out.good(), "cannot write manifest %s", manifest.c_str());
    out << "node " << id << " epoch " << epochsDone << " bytes "
        << blob.size() << " kind " << (full ? "full" : "delta")
        << " base " << (full ? 0 : epochsDone - 1) << " frontier";
    const std::vector<std::uint32_t> frontier = rt.vectorFrontier();
    if (frontier.empty()) {
        out << " -"; // EC: no vector clock, consistency rides on locks
    } else {
        for (std::uint32_t v : frontier)
            out << ' ' << v;
    }
    out << '\n';
}

std::vector<std::byte>
CheckpointCoordinator::makeDelta(const std::vector<std::byte> &prev,
                                 const std::vector<std::byte> &cur,
                                 std::uint64_t base_epoch)
{
    // Runs cover the common word-aligned prefix; a verbatim tail
    // covers whatever lies past it, so images may change length
    // between cuts (a growing alloc log, a fatter interval log).
    const std::size_t common = std::min(prev.size(), cur.size()) /
                               kScanWordBytes * kScanWordBytes;
    const std::uint32_t words =
        static_cast<std::uint32_t>(common / kScanWordBytes);
    WireWriter w;
    w.putU64(kDeltaMagic);
    w.putU64(base_epoch);
    w.putU64(cur.size());
    w.putU64(prev.size());
    std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;
    scanChangedRuns(cur.data(), prev.data(), words, bestScanKernel(),
                    [&](std::uint32_t first, std::uint32_t end) {
                        runs.emplace_back(first, end);
                    });
    w.putU32(static_cast<std::uint32_t>(runs.size()));
    for (const auto &[first, end] : runs) {
        w.putU32(first);
        w.putU32(end - first);
        w.putBytes(cur.data() + std::size_t{first} * kScanWordBytes,
                   std::size_t{end - first} * kScanWordBytes);
    }
    const std::size_t tail = cur.size() - common;
    w.putU32(static_cast<std::uint32_t>(tail));
    if (tail > 0)
        w.putBytes(cur.data() + common, tail);
    return w.take();
}

std::vector<std::byte>
CheckpointCoordinator::applyDelta(const std::vector<std::byte> &prev,
                                  const std::vector<std::byte> &delta,
                                  std::uint64_t base_epoch)
{
    WireReader r(delta);
    DSM_ASSERT(r.getU64() == kDeltaMagic, "bad delta magic");
    const std::uint64_t base = r.getU64();
    DSM_ASSERT(base_epoch == 0 || base == base_epoch,
               "delta based on epoch %llu, expected %llu",
               static_cast<unsigned long long>(base),
               static_cast<unsigned long long>(base_epoch));
    const std::uint64_t cur_size = r.getU64();
    const std::uint64_t prev_size = r.getU64();
    DSM_ASSERT(prev_size == prev.size(),
               "delta against a %llu-byte image, have %llu",
               static_cast<unsigned long long>(prev_size),
               static_cast<unsigned long long>(prev.size()));
    const std::size_t common =
        std::min<std::size_t>(prev.size(),
                              static_cast<std::size_t>(cur_size)) /
        kScanWordBytes * kScanWordBytes;
    std::vector<std::byte> out(static_cast<std::size_t>(cur_size));
    std::memcpy(out.data(), prev.data(), common);
    const std::uint32_t nruns = r.getU32();
    for (std::uint32_t i = 0; i < nruns; ++i) {
        const std::uint32_t first = r.getU32();
        const std::uint32_t n = r.getU32();
        DSM_ASSERT((std::size_t{first} + n) * kScanWordBytes <= common,
                   "delta run past the common prefix");
        r.getBytes(out.data() + std::size_t{first} * kScanWordBytes,
                   std::size_t{n} * kScanWordBytes);
    }
    const std::uint32_t tail = r.getU32();
    DSM_ASSERT(common + tail == cur_size, "delta tail mismatch");
    if (tail > 0)
        r.getBytes(out.data() + common, tail);
    DSM_ASSERT(r.done(), "trailing bytes in delta blob");
    return out;
}

CheckpointCoordinator::PersistedImage
CheckpointCoordinator::loadLatestImage(const std::string &dir,
                                       NodeId node)
{
    PersistedImage out;
    const std::string manifest =
        dir + "/manifest-node" + std::to_string(node) + ".txt";
    std::ifstream in(manifest);
    if (!in.good())
        return out; // nothing persisted yet: epoch 0
    struct Cut
    {
        bool full = true;
        std::vector<std::uint32_t> frontier;
    };
    std::map<std::uint64_t, Cut> cuts;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string tok, kind = "full";
        std::uint64_t epoch = 0, skip = 0;
        ls >> tok >> skip >> tok >> epoch >> tok >> skip;
        ls >> tok;
        if (tok == "kind") { // pre-delta manifests lack the field
            ls >> kind >> tok >> skip; // "base" B
            ls >> tok;                 // "frontier"
        }
        DSM_ASSERT(tok == "frontier", "malformed manifest line '%s'",
                   line.c_str());
        Cut cut;
        cut.full = kind == "full";
        std::string f;
        while (ls >> f) {
            if (f == "-")
                break;
            cut.frontier.push_back(
                static_cast<std::uint32_t>(std::stoul(f)));
        }
        cuts[epoch] = std::move(cut);
    }
    if (cuts.empty())
        return out;
    const std::uint64_t latest = cuts.rbegin()->first;
    // Walk back to the newest full anchor, then replay the deltas
    // forward (each is based on its immediate predecessor).
    std::uint64_t anchor = latest;
    while (!cuts.at(anchor).full) {
        DSM_ASSERT(anchor > 1 && cuts.count(anchor - 1) != 0,
                   "delta chain of node %d has no anchor",
                   static_cast<int>(node));
        --anchor;
    }
    auto read_blob = [&](std::uint64_t epoch) {
        const std::string path = dir + "/node" + std::to_string(node) +
                                 "-epoch" + std::to_string(epoch) +
                                 ".bin";
        std::ifstream f(path, std::ios::binary | std::ios::ate);
        DSM_ASSERT(f.good(), "cannot read checkpoint %s", path.c_str());
        const std::streamsize size = f.tellg();
        f.seekg(0);
        std::vector<std::byte> blob(static_cast<std::size_t>(size));
        f.read(reinterpret_cast<char *>(blob.data()), size);
        DSM_ASSERT(f.good(), "short checkpoint read from %s",
                   path.c_str());
        return blob;
    };
    out.image = read_blob(anchor);
    for (std::uint64_t e = anchor + 1; e <= latest; ++e)
        out.image = applyDelta(out.image, read_blob(e), e - 1);
    out.epoch = latest;
    out.frontier = std::move(cuts.at(latest).frontier);
    return out;
}

std::vector<std::byte>
CheckpointCoordinator::loadPersisted() const
{
    std::ifstream in(blobPath(), std::ios::binary | std::ios::ate);
    DSM_ASSERT(in.good(), "cannot read checkpoint %s", blobPath().c_str());
    const std::streamsize size = in.tellg();
    in.seekg(0);
    std::vector<std::byte> blob(static_cast<std::size_t>(size));
    in.read(reinterpret_cast<char *>(blob.data()), size);
    DSM_ASSERT(in.good(), "short checkpoint read from %s",
               blobPath().c_str());
    return blob;
}

} // namespace dsm
