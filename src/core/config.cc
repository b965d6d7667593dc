#include "core/config.hh"

#include <cstdlib>

#include "util/logging.hh"

namespace dsm {

const char *
toString(Model model)
{
    return model == Model::EC ? "EC" : "LRC";
}

const char *
toString(TrapMethod trap)
{
    return trap == TrapMethod::CompilerInstrumentation ? "ci" : "twin";
}

const char *
toString(CollectMethod collect)
{
    return collect == CollectMethod::Timestamping ? "time" : "diff";
}

std::string
RuntimeConfig::name() const
{
    std::string base = toString(model);
    if (trap == TrapMethod::CompilerInstrumentation)
        return base + "-ci";
    return base + (collect == CollectMethod::Timestamping ? "-time"
                                                          : "-diff");
}

void
RuntimeConfig::validate() const
{
    if (trap == TrapMethod::CompilerInstrumentation &&
        collect == CollectMethod::Diffing) {
        fatal("compiler instrumentation + diffing is not supported: its "
              "memory requirements are prohibitive (Section 1 of the "
              "paper)");
    }
}

RuntimeConfig
RuntimeConfig::parse(const std::string &name)
{
    for (const RuntimeConfig &config : all()) {
        if (config.name() == name)
            return config;
    }
    fatal("unknown runtime configuration '%s' (expected one of EC-ci, "
          "EC-time, EC-diff, LRC-ci, LRC-time, LRC-diff)", name.c_str());
}

std::string
ClusterConfig::resolvedTransport(std::string *fallback) const
{
    std::string t = transport;
    if (t.empty()) {
        if (const char *v = std::getenv("DSM_TRANSPORT"))
            t = v;
        else
            t = "ring";
    }
    DSM_ASSERT(t == "ring" || t == "socket" || t == "tcp",
               "unknown transport '%s' (expected ring, socket or tcp)",
               t.c_str());
    if (t == "ring")
        return t;
    // In-process-only features reach across node state in ways only
    // one address space allows (checkpoint wipe+restore of a sibling,
    // marking a remote inbox down, shared liveness stamps): their
    // presence pins the run to tier 0. The probabilistic message-drop
    // layer alone is transport-neutral (send-side injector, per-node
    // retransmit/dedup) and stays on the socket tiers.
    const char *inProcessOnly =
        resolvedCheckpointEvery() > 0    ? "checkpointing"
        : resolvedFaultKillNode() >= 0   ? "chaos kill"
        : resolvedFaultOutageNode() >= 0 ? "the silent-peer outage"
        : resolvedFdDeadlineNs() > 0     ? "the failure detector"
                                         : nullptr;
    if (inProcessOnly == nullptr)
        return t;
    if (fallback != nullptr) {
        *fallback = "transport '" + t + "' falls back to 'ring': " +
                    inProcessOnly + " runs in-process only";
    }
    return "ring";
}

std::string
ClusterConfig::resolvedSocketDir() const
{
    if (!socketDir.empty())
        return socketDir;
    if (const char *v = std::getenv("DSM_SOCKET_DIR"))
        return v;
    return {};
}

int
ClusterConfig::resolvedThreadsPerNode() const
{
    int t = threadsPerNode;
    if (t == 0) {
        t = 1;
        if (const char *v = std::getenv("DSM_THREADS")) {
            const int parsed = std::atoi(v);
            if (parsed > 0)
                t = parsed;
        }
    }
    DSM_ASSERT(t >= 1 && t <= 64, "unreasonable threadsPerNode %d", t);
    return t;
}

namespace {

/** -1 = "take the environment variable, else @p fallback". */
int
resolveEnvDefault(int configured, const char *env, int fallback)
{
    if (configured >= 0)
        return configured;
    if (const char *v = std::getenv(env))
        return std::atoi(v);
    return fallback;
}

} // namespace

int
ClusterConfig::resolvedLockFairness() const
{
    const int k =
        resolveEnvDefault(lockLocalHandoffBound, "DSM_LOCK_FAIRNESS", 0);
    DSM_ASSERT(k >= 0 && k <= 1 << 20,
               "unreasonable lock fairness bound %d", k);
    return k;
}

bool
ClusterConfig::resolvedHomeLastWriter() const
{
    return resolveEnvDefault(homeMigrateLastWriter,
                             "DSM_HOME_LAST_WRITER", 0) != 0;
}

std::uint32_t
ClusterConfig::resolvedHomePingPongLimit() const
{
    // With the last-writer policy on, an uncapped follow-the-writer
    // chase of a truly migratory page never settles; a small default
    // budget makes it converge to a pinned home.
    const int fallback = resolvedHomeLastWriter() ? 8 : 0;
    const int limit =
        resolveEnvDefault(homePingPongLimit, "DSM_HOME_PINGPONG",
                          fallback);
    DSM_ASSERT(limit >= 0, "bad homePingPongLimit %d", limit);
    return static_cast<std::uint32_t>(limit);
}

bool
ClusterConfig::resolvedHomeFlushDefer() const
{
    return resolveEnvDefault(homeFlushDefer, "DSM_HOME_DEFER", 0) != 0;
}

bool
ClusterConfig::resolvedOptimisticHomeReads() const
{
    return resolveEnvDefault(optimisticHomeReads, "DSM_OPT_READ", 0) != 0;
}

bool
ClusterConfig::resolvedReplyBypass() const
{
    return resolveEnvDefault(replyBypass, "DSM_REPLY_BYPASS", 1) != 0;
}

bool
ClusterConfig::resolvedBlockingDequeue() const
{
    return resolveEnvDefault(blockingDequeue, "DSM_BLOCKING_DEQ", 0) != 0;
}

bool
ClusterConfig::resolvedLockFairnessAdaptive() const
{
    return resolveEnvDefault(lockFairnessAdaptive,
                             "DSM_LOCK_FAIRNESS_ADAPT", 0) != 0;
}

std::uint64_t
ClusterConfig::resolvedFaultSeed() const
{
    if (faultSeed >= 0)
        return static_cast<std::uint64_t>(faultSeed);
    if (const char *v = std::getenv("DSM_FAULT_SEED"))
        return static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
    return 1;
}

double
ClusterConfig::resolvedFaultMsgDrop() const
{
    double rate = faultMsgDrop;
    if (rate < 0) {
        rate = 0;
        if (const char *v = std::getenv("DSM_FAULT_MSG_DROP"))
            rate = std::atof(v);
    }
    DSM_ASSERT(rate >= 0 && rate < 1, "bad drop rate %f", rate);
    return rate;
}

int
ClusterConfig::resolvedFaultKillNode() const
{
    const int node =
        resolveEnvDefault(faultKillNode, "DSM_FAULT_KILL_NODE", -1);
    return node >= 0 && node < nprocs ? node : -1;
}

int
ClusterConfig::resolvedFaultKillEpoch() const
{
    if (resolvedFaultKillNode() < 0)
        return 0;
    const int epoch =
        resolveEnvDefault(faultKillEpoch, "DSM_FAULT_KILL_EPOCH", 2);
    return epoch >= 1 ? epoch : 0;
}

int
ClusterConfig::resolvedCheckpointEvery() const
{
    // A kill or outage needs a snapshot to restore from, and a
    // DSM_CKPT_DIR run wants blobs on disk: all engage every-barrier
    // checkpoints unless the knob pins something else.
    const bool engaged = resolvedFaultKillEpoch() >= 1 ||
                         resolvedFaultOutageEpoch() >= 1 ||
                         !resolvedCkptDir().empty();
    const int every = resolveEnvDefault(checkpointEvery, "DSM_CKPT_EVERY",
                                        engaged ? 1 : 0);
    return every >= 0 ? every : 0;
}

std::string
ClusterConfig::resolvedCkptDir() const
{
    if (!ckptDir.empty())
        return ckptDir;
    if (const char *v = std::getenv("DSM_CKPT_DIR"))
        return v;
    return {};
}

int
ClusterConfig::resolvedFaultOutageNode() const
{
    const int node =
        resolveEnvDefault(faultOutageNode, "DSM_FAULT_OUTAGE_NODE", -1);
    return node >= 0 && node < nprocs ? node : -1;
}

int
ClusterConfig::resolvedFaultOutageEpoch() const
{
    if (resolvedFaultOutageNode() < 0)
        return 0;
    const int epoch =
        resolveEnvDefault(faultOutageEpoch, "DSM_FAULT_OUTAGE_EPOCH", 2);
    return epoch >= 1 ? epoch : 0;
}

int
ClusterConfig::resolvedFaultOutageMs() const
{
    const int ms =
        resolveEnvDefault(faultOutageMs, "DSM_FAULT_OUTAGE_MS", 120);
    DSM_ASSERT(ms >= 1 && ms <= 60'000, "unreasonable outage %d ms", ms);
    return ms;
}

std::uint64_t
ClusterConfig::resolvedFdDeadlineNs() const
{
    const int fallback = resolvedFaultOutageEpoch() >= 1 ? 50 : 0;
    const int ms =
        resolveEnvDefault(fdDeadlineMs, "DSM_FD_DEADLINE_MS", fallback);
    DSM_ASSERT(ms >= 0 && ms <= 60'000, "unreasonable detector "
               "deadline %d ms", ms);
    return static_cast<std::uint64_t>(ms) * 1'000'000;
}

namespace {

/** -1 = "take the environment variable, else @p fallback" (64-bit). */
long long
resolveEnvDefaultLL(long long configured, const char *env,
                    long long fallback)
{
    if (configured >= 0)
        return configured;
    if (const char *v = std::getenv(env))
        return std::atoll(v);
    return fallback;
}

} // namespace

std::uint64_t
ClusterConfig::resolvedRtoFirstNs() const
{
    const long long us =
        resolveEnvDefaultLL(faultRtoFirstUs, "DSM_FAULT_RTO_FIRST_US",
                            2'000);
    DSM_ASSERT(us >= 1, "bad RTO first %lld us", us);
    return static_cast<std::uint64_t>(us) * 1'000;
}

std::uint64_t
ClusterConfig::resolvedRtoCapNs() const
{
    const long long us = resolveEnvDefaultLL(
        faultRtoCapUs, "DSM_FAULT_RTO_CAP_US", 500'000);
    const std::uint64_t cap = static_cast<std::uint64_t>(us) * 1'000;
    DSM_ASSERT(cap >= resolvedRtoFirstNs(),
               "RTO cap %lld us below first deadline", us);
    return cap;
}

bool
ClusterConfig::resolvedCkptDelta() const
{
    return resolveEnvDefault(ckptDelta, "DSM_CKPT_DELTA", 0) != 0;
}

int
ClusterConfig::resolvedCkptAnchorEvery() const
{
    const int every =
        resolveEnvDefault(ckptAnchorEvery, "DSM_CKPT_ANCHOR", 8);
    DSM_ASSERT(every >= 1, "bad anchor cadence %d", every);
    return every;
}

bool
ClusterConfig::faultsEngaged() const
{
    return resolvedFaultMsgDrop() > 0 || resolvedFaultKillEpoch() >= 1 ||
           resolvedFaultOutageEpoch() >= 1;
}

const std::vector<RuntimeConfig> &
RuntimeConfig::all()
{
    static const std::vector<RuntimeConfig> kAll = {
        {Model::EC, TrapMethod::CompilerInstrumentation,
         CollectMethod::Timestamping},
        {Model::EC, TrapMethod::Twinning, CollectMethod::Timestamping},
        {Model::EC, TrapMethod::Twinning, CollectMethod::Diffing},
        {Model::LRC, TrapMethod::CompilerInstrumentation,
         CollectMethod::Timestamping},
        {Model::LRC, TrapMethod::Twinning, CollectMethod::Timestamping},
        {Model::LRC, TrapMethod::Twinning, CollectMethod::Diffing},
    };
    return kAll;
}

} // namespace dsm
