#include "core/config.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>
#include <variant>

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

namespace {

using C = ClusterConfig;

/** The field a row resolves, by type. */
using Field = std::variant<int C::*, std::uint32_t C::*, std::uint64_t C::*,
                           long long C::*, bool C::*, double C::*,
                           std::string C::*>;

/** Default of an unset row, as the text its variable would hold:
 *  fixed, or derived from the rows resolved above it. */
struct Default
{
    Default() = default;
    Default(const char *text) : text(text) {}
    Default(const char *(*derive)(const C &)) : derive(derive) {}

    explicit operator bool() const { return text || derive; }
    const char *of(const C &c) const { return derive ? derive(c) : text; }

    const char *text = nullptr;
    const char *(*derive)(const C &) = nullptr;
};

struct Knob
{
    const char *key; ///< record key
    Field field;
    const char *env; ///< environment variable, or null
    Default def;     ///< null: the field initializer is the default
    double lo, hi;   ///< allowed range (numeric rows)
    const char *doc;
};

bool
inCluster(int node, const C &c)
{
    return node >= 0 && node < c.nprocs;
}

/** A kill or an outage is armed by a victim inside the cluster and an
 *  epoch of at least 1. */
bool
armed(int node, int epoch, const C &c)
{
    return inCluster(node, c) && epoch >= 1;
}

const char *
pingPongDefault(const C &c)
{
    // An uncapped follow-the-writer chase of a truly migratory page
    // never settles; a small budget makes it converge to a pinned home.
    return c.homeMigrateLastWriter > 0 ? "8" : "0";
}

const char *
fdDeadlineDefault(const C &c)
{
    return armed(c.faultOutageNode, c.faultOutageEpoch, c) ? "50" : "0";
}

const char *
checkpointEveryDefault(const C &c)
{
    // A kill or outage needs a snapshot to restore from, and a
    // snapshot directory wants blobs on disk.
    const bool engaged = armed(c.faultKillNode, c.faultKillEpoch, c) ||
                         armed(c.faultOutageNode, c.faultOutageEpoch, c) ||
                         !c.ckptDir.empty();
    return engaged ? "1" : "0";
}

constexpr double kIntMax = std::numeric_limits<int>::max();
constexpr double kNoLimit = 9.2e18;

/**
 * The knob table: one row per ClusterConfig field except runtime and
 * cost, in resolution order, so a derived default reads only rows
 * above it. A row with a variable or a default is unset while its
 * field is below the row's range (-1, 0 for threads) or empty (text);
 * it then takes the variable if set, else the default. Values from
 * the field or the variable must lie in the range; a retired row
 * allows exactly one value.
 */
const Knob kKnobs[] = {
    {"nprocs", &C::nprocs, nullptr, {}, 1, 64, "simulated nodes"},
    {"threads_per_node", &C::threadsPerNode, "DSM_THREADS", "1", 1, 64,
     "application threads per node"},
    {"arena_bytes", &C::arenaBytes, nullptr, {}, 1, kNoLimit,
     "shared arena per node"},
    {"page_size", &C::pageSize, nullptr, {}, 64, 1 << 20,
     "coherence unit in bytes"},
    {"loss_every_nth", &C::lossEveryNth, nullptr, {}, 0, 0,
     "the modeled stop-and-wait loss is retired (use fault_msg_drop)"},
    {"hierarchical_dirty", &C::hierarchicalDirty, nullptr, {}, 0, 1,
     "page-level + word-level dirty bits for LRC-ci"},
    {"ec_eager_small_twin", &C::ecEagerSmallTwin, nullptr, {}, 0, 1,
     "twin small EC objects at write-lock acquire"},
    {"wide_diff_scan", &C::wideDiffScan, nullptr, {}, 1, 1,
     "the config switch to the seed scalar scan is retired"},
    {"diff_gap_words", &C::diffGapWords, nullptr, {}, 0, 0,
     "gap-coalesced diffs are retired (runs are word-exact)"},
    {"batch_diff_fetch", &C::batchDiffFetch, nullptr, {}, 0, 1,
     "cross-page piggybacking on homeless misses"},
    {"pooled_buffers", &C::pooledBuffers, nullptr, {}, 0, 1,
     "recycle wire and twin buffers"},
    {"piggyback_write_notices", &C::piggybackWriteNotices, nullptr, {}, 1,
     1, "write notices always ride on LRC fetch replies"},
    {"gc_at_barriers", &C::gcAtBarriers, nullptr, {}, 1, 1,
     "barrier GC is always on (gc_interval_threshold at its maximum "
     "runs none)"},
    {"gc_interval_threshold", &C::gcIntervalThreshold, nullptr, {}, 0,
     kIntMax, "interval records that trigger barrier GC"},
    {"adaptive_gc_threshold", &C::adaptiveGcThreshold, nullptr, {}, 0, 0,
     "the arena-pressure GC trigger is retired"},
    {"gc_pressure_pages", &C::gcPressurePages, nullptr, {}, 2048, 2048,
     "the arena-pressure GC trigger is retired"},
    {"home_based_lrc", &C::homeBasedLrc, nullptr, {}, 0, 1,
     "home-based LRC-diff"},
    {"home_migrate_threshold", &C::homeMigrateThreshold, nullptr, {}, 0,
     kIntMax, "remote accesses before a home migrates (0 = never)"},
    {"home_decay_window", &C::homeDecayWindow, nullptr, {}, 1024, 1024,
     "the migration counters' decay window is fixed at 1024"},
    {"lock_local_handoff_bound", &C::lockLocalHandoffBound,
     "DSM_LOCK_FAIRNESS", "0", 0, 1 << 20,
     "consecutive local lock grants before a remote one (0 = unbounded)"},
    {"home_migrate_last_writer", &C::homeMigrateLastWriter,
     "DSM_HOME_LAST_WRITER", "0", 0, 1, "migrate homes to the last writer"},
    {"home_writer_switch_threshold", &C::homeWriterSwitchThreshold,
     nullptr, {}, 3, 3, "the writer-switch threshold is fixed at 3"},
    {"home_pingpong_limit", &C::homePingPongLimit, "DSM_HOME_PINGPONG",
     pingPongDefault, 0, kIntMax,
     "migrations before a home is pinned (0 = no cap)"},
    {"optimistic_home_reads", &C::optimisticHomeReads, nullptr, {}, 0, 0,
     "optimistic home reads are retired"},
    {"opt_read_max_retries", &C::optReadMaxRetries, nullptr, {}, 3, 3,
     "optimistic home reads are retired"},
    {"home_flush_defer", &C::homeFlushDefer, "DSM_HOME_DEFER", "0", 0, 1,
     "merge deferred home flushes per home"},
    {"reply_bypass", &C::replyBypass, nullptr, {}, 1, 1,
     "the reply-bypass-off switch is retired"},
    {"blocking_dequeue", &C::blockingDequeue, "DSM_BLOCKING_DEQ", "0", 0, 1,
     "park idle polls on the activity futex"},
    {"coalesce_sends", &C::coalesceSends, nullptr, {}, 0, 0,
     "send coalescing is retired (the protocol batches home traffic)"},
    {"lock_fairness_adaptive", &C::lockFairnessAdaptive, nullptr, {}, 0, 1,
     "per-lock adaptive hand-off bound"},
    {"fault_seed", &C::faultSeed, "DSM_FAULT_SEED", "1", 0, kNoLimit,
     "seed of the message-drop injector"},
    {"fault_msg_drop", &C::faultMsgDrop, "DSM_FAULT_MSG_DROP", "0", 0,
     0.999999, "fraction of droppable messages dropped"},
    {"fault_kill_node", &C::faultKillNode, "DSM_FAULT_KILL_NODE", "-1", 0,
     63, "node chaos-killed at a barrier (outside the cluster = none)"},
    {"fault_kill_epoch", &C::faultKillEpoch, "DSM_FAULT_KILL_EPOCH",
     "2", 0, kIntMax, "barrier arrival at which the kill fires"},
    {"fault_outage_node", &C::faultOutageNode, "DSM_FAULT_OUTAGE_NODE",
     "-1", 0, 63, "node silenced at a barrier (outside the cluster = none)"},
    {"fault_outage_epoch", &C::faultOutageEpoch, "DSM_FAULT_OUTAGE_EPOCH",
     "2", 0, kIntMax, "barrier arrival at which the outage fires"},
    {"fault_outage_ms", &C::faultOutageMs, "DSM_FAULT_OUTAGE_MS", "120", 1,
     60000, "outage length in wall-clock ms"},
    {"fd_deadline_ms", &C::fdDeadlineMs, "DSM_FD_DEADLINE_MS",
     fdDeadlineDefault, 0, 60000,
     "failure-detector deadline in ms (0 = detector off)"},
    {"rto_first_us", &C::faultRtoFirstUs, nullptr, {}, 1, kNoLimit,
     "first retransmit deadline in us"},
    {"rto_cap_us", &C::faultRtoCapUs, nullptr, {}, 1, kNoLimit,
     "retransmit backoff cap in us"},
    {"ckpt_dir", &C::ckptDir, "DSM_CKPT_DIR", "", 0, 0,
     "file-backed snapshot directory (empty = in memory)"},
    {"checkpoint_every", &C::checkpointEvery, nullptr,
     checkpointEveryDefault, 0, kIntMax, "barrier cuts per checkpoint"},
    {"ckpt_delta", &C::ckptDelta, nullptr, {}, 0, 1,
     "delta checkpoints between anchors"},
    {"ckpt_anchor_every", &C::ckptAnchorEvery, nullptr, {}, 1, kIntMax,
     "checkpoints per full anchor"},
    {"transport", &C::transport, "DSM_TRANSPORT", "ring", 0, 0,
     "ring, socket or tcp"},
    {"socket_dir", &C::socketDir, "DSM_SOCKET_DIR", "", 0, 0,
     "socket-tier rendezvous directory (empty = fresh per run)"},
};

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (const char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += ch;
    }
    return out + "\"";
}

template <typename T>
std::string
jsonValue(const T &v)
{
    if constexpr (std::is_same_v<T, std::string>) {
        return quote(v);
    } else if constexpr (std::is_same_v<T, bool>) {
        return v ? "true" : "false";
    } else if constexpr (std::is_floating_point_v<T>) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.12g", v);
        return buf;
    } else {
        return std::to_string(v);
    }
}

void
checkRange(const Knob &k, double v, const std::string &text,
           const char *env)
{
    if (v >= k.lo && v <= k.hi)
        return;
    fatal("%s = %s%s%s%s is outside [%.15g, %.15g]: %s", k.key,
          text.c_str(), env ? " (from " : "", env ? env : "",
          env ? ")" : "", k.lo, k.hi, k.doc);
}

/** Resolve one row in place (see kKnobs). */
template <typename T>
void
resolveRow(const Knob &k, T &v, const char *env_text, const C &c)
{
    if constexpr (std::is_same_v<T, std::string>) {
        if (k.def && v.empty())
            v = env_text ? env_text : k.def.of(c);
    } else {
        if (!k.def || static_cast<double>(v) >= k.lo) {
            checkRange(k, static_cast<double>(v), jsonValue(v), nullptr);
            return;
        }
        const char *text = env_text ? env_text : k.def.of(c);
        char *end = nullptr;
        errno = 0;
        const auto n = [&] {
            if constexpr (std::is_floating_point_v<T>)
                return std::strtod(text, &end);
            else
                return std::strtoll(text, &end, 10);
        }();
        if (*text == '\0' || *end != '\0' || errno != 0) {
            fatal("%s: %s '%s' is not %s", k.key,
                  env_text ? k.env : "default", text,
                  std::is_floating_point_v<T> ? "a number"
                                              : "a whole integer");
        }
        // Defaults are part of the table and stay unchecked: a victim
        // row's "-1" means "none".
        if (env_text)
            checkRange(k, static_cast<double>(n), text, k.env);
        v = static_cast<T>(n);
    }
}

} // namespace

ClusterConfig
ClusterConfig::resolved(std::string *fallback) const
{
    ClusterConfig out = *this;
    for (const Knob &k : kKnobs) {
        const char *env_text = k.env ? std::getenv(k.env) : nullptr;
        std::visit([&](auto field) { resolveRow(k, out.*field, env_text, out); },
                   k.field);
    }

    // Cross-row rules. A victim outside the cluster arms nothing: the
    // nightly sweeps rotate victims over every cluster size.
    if (!inCluster(out.faultKillNode, out)) {
        out.faultKillNode = -1;
        out.faultKillEpoch = 0;
    }
    if (!inCluster(out.faultOutageNode, out)) {
        out.faultOutageNode = -1;
        out.faultOutageEpoch = 0;
    }
    if (out.faultRtoCapUs < out.faultRtoFirstUs) {
        fatal("rto_cap_us = %lld is below rto_first_us = %lld",
              out.faultRtoCapUs, out.faultRtoFirstUs);
    }
    const std::string &t = out.transport;
    if (t != "ring" && t != "socket" && t != "tcp") {
        fatal("transport = '%s' (field or DSM_TRANSPORT) is not ring, "
              "socket or tcp", t.c_str());
    }
    // In-process-only features reach across node state in ways only
    // one address space allows (checkpoint wipe+restore of a sibling,
    // marking a remote inbox down, shared liveness stamps): their
    // presence pins the run to tier 0. The probabilistic message-drop
    // layer alone is transport-neutral (send-side injector, per-node
    // retransmit/dedup) and stays on the socket tiers.
    const char *inProcessOnly =
        out.checkpointEvery > 0    ? "checkpointing"
        : out.faultKillNode >= 0   ? "chaos kill"
        : out.faultOutageNode >= 0 ? "the silent-peer outage"
        : out.fdDeadlineMs > 0     ? "the failure detector"
                                   : nullptr;
    if (t != "ring" && inProcessOnly != nullptr) {
        if (fallback != nullptr) {
            *fallback = "transport '" + t + "' falls back to 'ring': " +
                        inProcessOnly + " runs in-process only";
        }
        out.transport = "ring";
    }
    return out;
}

std::string
ClusterConfig::toJson() const
{
    std::string out = "{\"runtime\":" + quote(runtime.name()) +
                      ",\"cost_model\":" + quote(cost.toString());
    for (const Knob &k : kKnobs) {
        std::visit(
            [&](auto field) {
                out += ",\"" + std::string(k.key) + "\":" +
                       jsonValue(this->*field);
            },
            k.field);
    }
    return out + "}";
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
