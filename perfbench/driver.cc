/**
 * @file
 * End-to-end Table 3 benchmark driver.
 *
 * Runs one workload's fixed (application x protocol x tier) set per
 * pass through the public driver/app API — makeApp, runSequential,
 * Cluster construction, Cluster::run, validate — timing each call from
 * outside, and prints one JSON line per run with the times, the
 * virtual clock, the counters and the resolved configuration.
 * perfbench/run.py turns those lines into the benchmark's metrics.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    [--scale paper|test] [--trace-out FILE]
 *
 * After one discarded warm-up pass, passes run back to back (closed
 * loop) until S seconds have elapsed. With --trace 1 untraced and
 * traced passes alternate; traced passes record spans in memory and
 * write them to FILE at exit.
 */

#include <malloc.h>
#include <sys/stat.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "driver/proc_launcher.hh"
#include "mem/wide_scan.hh"

extern char **environ;

namespace {

using namespace dsm;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             kEpoch)
            .count());
}

double
spanSeconds(std::uint64_t start_ns, std::uint64_t end_ns)
{
    return static_cast<double>(end_ns - start_ns) * 1e-9;
}

// ---------------------------------------------------------------------
// Minimal JSON line writer.

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

class JsonObject
{
  public:
    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        body += (body.empty() ? "" : ",") + quote(key) + ":" + json;
        return *this;
    }
    JsonObject &
    str(const std::string &key, const std::string &v)
    {
        return raw(key, quote(v));
    }
    JsonObject &
    num(const std::string &key, double v)
    {
        return raw(key, number(v));
    }
    JsonObject &
    u64(const std::string &key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }
    JsonObject &
    boolean(const std::string &key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }
    std::string text() const { return "{" + body + "}"; }

  private:
    std::string body;
};

template <typename T, typename F>
std::string
array(const std::vector<T> &values, F &&render)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? "," : "") + render(values[i]);
    return out + "]";
}

void
emit(const JsonObject &obj)
{
    std::printf("%s\n", obj.text().c_str());
    std::fflush(stdout);
}

// ---------------------------------------------------------------------
// Spans of the traced passes, kept in memory until exit.

struct Span
{
    std::string name;
    int id = 0;
    int parent = -1; ///< -1: a root span
    int run = -1;    ///< -1: not inside one application run
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
};

class Tracer
{
  public:
    int
    add(const std::string &name, int parent, int run,
        std::uint64_t start_ns, std::uint64_t end_ns)
    {
        const int id = static_cast<int>(spans.size());
        spans.push_back({name, id, parent, run, start_ns, end_ns});
        return id;
    }

    void close(int id, std::uint64_t end_ns) { spans[id].endNs = end_ns; }

    void
    write(const std::string &path, const std::string &header) const
    {
        std::ofstream out(path);
        out << header << "\n";
        for (const Span &s : spans) {
            out << JsonObject()
                       .str("name", s.name)
                       .u64("id", static_cast<std::uint64_t>(s.id))
                       .raw("parent", std::to_string(s.parent))
                       .raw("run", std::to_string(s.run))
                       .u64("start_ns", s.startNs)
                       .u64("end_ns", s.endNs)
                       .text()
                << "\n";
        }
    }

  private:
    std::vector<Span> spans;
};

// ---------------------------------------------------------------------
// What a workload runs.

constexpr int kNodes = 4;

/** Table 3's best EC implementation per application (the paper's
 *  choice, fixed here: the benchmark never selects by measured time). */
std::string
paperBestEc(const std::string &app)
{
    static const std::map<std::string, std::string> kBest = {
        {"SOR", "EC-time"},        {"IS", "EC-time"},
        {"Barnes-Hut", "EC-time"}, {"QS", "EC-diff"},
        {"Water", "EC-ci"},        {"3D-FFT", "EC-ci"},
    };
    return kBest.at(app);
}

struct Workload
{
    std::string name;
    std::string tier;
    std::vector<std::string> apps;
    std::vector<std::string> columns; ///< EC, LRC, LRC-home
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> kWorkloads = {
        {"barrier-apps", "ring", {"SOR", "IS", "3D-FFT", "Barnes-Hut"},
         {"EC", "LRC", "LRC-home"}},
        {"lock-apps", "ring", {"QS", "Water"}, {"EC", "LRC", "LRC-home"}},
        {"socket-apps", "socket", {"SOR", "QS"}, {"EC", "LRC"}},
    };
    return kWorkloads;
}

/**
 * Every ClusterConfig knob pinned to an explicit value (the program's
 * defaults at the time the benchmark was written), so nothing resolves
 * from the environment. The sentinels left at -1 (kill/outage nodes
 * and epochs) have no other "off" spelling; main() refuses to run with
 * any DSM_* variable set, so they resolve to off.
 */
ClusterConfig
pinnedConfig(const std::string &tier, const std::string &column,
             const std::string &app, std::size_t arena_bytes)
{
    ClusterConfig cc;
    cc.nprocs = kNodes;
    cc.threadsPerNode = 1;
    cc.runtime = RuntimeConfig::parse(
        column == "EC" ? paperBestEc(app) : std::string("LRC-diff"));
    cc.arenaBytes = arena_bytes;
    cc.pageSize = 4096;
    cc.cost = CostModel{};
    cc.lossEveryNth = 0;
    cc.hierarchicalDirty = true;
    cc.ecEagerSmallTwin = true;
    cc.wideDiffScan = true;
    cc.diffGapWords = 0;
    cc.batchDiffFetch = true;
    cc.pooledBuffers = true;
    cc.piggybackWriteNotices = true;
    cc.gcAtBarriers = true;
    cc.gcIntervalThreshold = 256;
    cc.adaptiveGcThreshold = false;
    cc.gcPressurePages = 2048;
    cc.homeBasedLrc = column == "LRC-home";
    cc.homeMigrateThreshold = 64;
    cc.homeDecayWindow = 1024;
    cc.lockLocalHandoffBound = 0;
    cc.homeMigrateLastWriter = 0;
    cc.homeWriterSwitchThreshold = 3;
    cc.homePingPongLimit = 0;
    cc.optimisticHomeReads = 0;
    cc.optReadMaxRetries = 3;
    cc.homeFlushDefer = 0;
    cc.replyBypass = 1;
    cc.blockingDequeue = 0;
    cc.coalesceSends = 0;
    cc.lockFairnessAdaptive = 0;
    cc.faultSeed = 1;
    cc.faultMsgDrop = 0.0;
    cc.faultOutageMs = 120;
    cc.fdDeadlineMs = 0;
    cc.faultRtoFirstUs = 2000;
    cc.faultRtoCapUs = 500000;
    cc.checkpointEvery = 0;
    cc.ckptDelta = 0;
    cc.ckptAnchorEvery = 8;
    cc.transport = tier;
    return cc;
}

/** The configuration as Cluster resolved it, fallbacks included. */
std::string
configJson(const ClusterConfig &requested, const ClusterConfig &c)
{
    return JsonObject()
        .u64("nprocs", static_cast<std::uint64_t>(c.nprocs))
        .u64("threads_per_node", static_cast<std::uint64_t>(c.threadsPerNode))
        .str("runtime", c.runtime.name())
        .u64("arena_bytes", c.arenaBytes)
        .u64("page_size", c.pageSize)
        .str("cost_model", c.cost.toString())
        .u64("loss_every_nth", c.lossEveryNth)
        .boolean("hierarchical_dirty", c.hierarchicalDirty)
        .boolean("ec_eager_small_twin", c.ecEagerSmallTwin)
        .boolean("wide_diff_scan", c.wideDiffScan)
        .u64("diff_gap_words", c.diffGapWords)
        .boolean("batch_diff_fetch", c.batchDiffFetch)
        .boolean("pooled_buffers", c.pooledBuffers)
        .boolean("piggyback_write_notices", c.piggybackWriteNotices)
        .boolean("gc_at_barriers", c.gcAtBarriers)
        .u64("gc_interval_threshold", c.gcIntervalThreshold)
        .boolean("adaptive_gc_threshold", c.adaptiveGcThreshold)
        .u64("gc_pressure_pages", c.gcPressurePages)
        .boolean("home_based_lrc", c.homeBasedLrc)
        .u64("home_migrate_threshold", c.homeMigrateThreshold)
        .u64("home_decay_window", c.homeDecayWindow)
        .raw("lock_local_handoff_bound",
             std::to_string(c.lockLocalHandoffBound))
        .raw("home_migrate_last_writer",
             std::to_string(c.homeMigrateLastWriter))
        .u64("home_writer_switch_threshold", c.homeWriterSwitchThreshold)
        .raw("home_pingpong_limit", std::to_string(c.homePingPongLimit))
        .raw("optimistic_home_reads", std::to_string(c.optimisticHomeReads))
        .raw("opt_read_max_retries", std::to_string(c.optReadMaxRetries))
        .raw("home_flush_defer", std::to_string(c.homeFlushDefer))
        .raw("reply_bypass", std::to_string(c.replyBypass))
        .raw("blocking_dequeue", std::to_string(c.blockingDequeue))
        .raw("coalesce_sends", std::to_string(c.coalesceSends))
        .raw("lock_fairness_adaptive",
             std::to_string(c.lockFairnessAdaptive))
        .raw("fault_seed", std::to_string(c.faultSeed))
        .num("fault_msg_drop", c.faultMsgDrop)
        .raw("fault_kill_node", std::to_string(c.faultKillNode))
        .raw("fault_outage_node", std::to_string(c.faultOutageNode))
        .raw("fd_deadline_ms", std::to_string(c.fdDeadlineMs))
        .raw("rto_first_us", std::to_string(c.faultRtoFirstUs))
        .raw("rto_cap_us", std::to_string(c.faultRtoCapUs))
        .raw("checkpoint_every", std::to_string(c.checkpointEvery))
        .str("ckpt_dir", c.ckptDir)
        .raw("ckpt_delta", std::to_string(c.ckptDelta))
        .raw("ckpt_anchor_every", std::to_string(c.ckptAnchorEvery))
        .str("transport_requested", requested.transport)
        .str("transport", c.transport)
        .boolean("transport_fallback", c.transport != requested.transport)
        .str("socket_dir", c.socketDir)
        .text();
}

std::string
countersJson(const NodeStats &stats)
{
    JsonObject obj;
    for (const auto &[name, value] : stats.items())
        obj.u64(name, value);
    return obj.text();
}

// ---------------------------------------------------------------------
// Host fingerprint.

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        const std::string key = line.substr(0, line.find_last_not_of(
                                                   " \t", colon - 1) +
                                                   1);
        if (key == "model name" || key == "Model" || key == "cpu model") {
            const auto start = line.find_first_not_of(" \t", colon + 1);
            return start == std::string::npos ? "" : line.substr(start);
        }
    }
    return "unknown";
}

JsonObject
fingerprint(std::uint64_t seed, const std::string &scale,
            const std::string &workload)
{
    utsname u{};
    ::uname(&u);
    return JsonObject()
        .str("type", "fingerprint")
        .str("cpu", cpuModel())
        .u64("nproc",
             static_cast<std::uint64_t>(::sysconf(_SC_NPROCESSORS_ONLN)))
        .str("kernel", std::string(u.sysname) + " " + u.release + " " +
                           u.machine)
#ifdef __clang__
        .str("compiler", std::string("clang ") + __VERSION__)
#else
        .str("compiler", std::string("gcc ") + __VERSION__)
#endif
        .str("build_type", DSM_BUILD_TYPE)
        .str("scan_kernel", toString(bestScanKernel()))
        .u64("seed", seed)
        .str("scale", scale)
        .str("workload", workload)
        .u64("nodes", kNodes)
        .u64("threads_per_node", 1);
}

// ---------------------------------------------------------------------
// Runs.

/** Arena per application at paper scale: the smallest power of two
 *  each application's shared data fits in (Barnes-Hut, whose tree size
 *  depends on the bodies, gets one doubling of headroom), so Cluster
 *  construction — zero-filling the arenas — stays small next to
 *  Cluster::run. */
std::size_t
arenaBytes(const std::string &scale, const std::string &app)
{
    static const std::map<std::string, std::size_t> kMiB = {
        {"SOR", 4}, {"IS", 16}, {"3D-FFT", 8}, {"Barnes-Hut", 16},
        {"QS", 2},  {"Water", 1},
    };
    return (scale == "test" ? 4 : kMiB.at(app)) << 20;
}

/**
 * Input sets per run: pass p runs on AppParams::seed = kInputSets x
 * --seed + (p mod kInputSets), so one run averages over several inputs
 * of the seed-dependent applications (QS, Water, Barnes-Hut, IS,
 * 3D-FFT) and distinct --seed values never share an input.
 */
constexpr int kInputSets = 4;

/** One application with one input set and its sequential reference. */
struct AppSlot
{
    std::string name;
    AppParams params;
    std::unique_ptr<App> app;
};

class Bench
{
  public:
    Bench(const Workload &w, const std::string &scale, bool tracing)
        : workload(w), scale(scale), tracing(tracing)
    {}

    /** Sequential references: once per process and input set, outside
     *  every metric. */
    void
    prepare(const AppParams &base, std::uint64_t seed)
    {
        for (int k = 0; k < kInputSets; ++k) {
            std::vector<AppSlot> set;
            for (const std::string &name : workload.apps) {
                AppSlot slot{name, base, makeApp(name)};
                slot.params.seed = seed * kInputSets + k;
                const std::uint64_t t0 = nowNs();
                slot.app->runSequential(slot.params);
                const std::uint64_t t1 = nowNs();
                if (tracing)
                    tracer.add("runSequential:" + name, -1, -1, t0, t1);
                emit(JsonObject()
                         .str("type", "sequential")
                         .str("app", name)
                         .u64("input_seed", slot.params.seed)
                         .num("seconds", spanSeconds(t0, t1)));
                set.push_back(std::move(slot));
            }
            inputSets.push_back(std::move(set));
        }
    }

    void
    runPass(int pass, bool traced)
    {
        const std::uint64_t t0 = nowNs();
        const int passSpan =
            traced ? tracer.add("pass", -1, -1, t0, t0) : -1;
        if (traced)
            launchProbe(pass, passSpan);
        for (AppSlot &slot : inputSets[pass < 0 ? 0 : pass % kInputSets]) {
            for (const std::string &column : workload.columns)
                runOne(slot, column, pass, traced, passSpan);
        }
        if (traced)
            tracer.close(passSpan, nowNs());
        emit(JsonObject()
                 .str("type", "pass")
                 .raw("pass", std::to_string(pass))
                 .boolean("traced", traced)
                 .num("seconds", spanSeconds(t0, nowNs())));
    }

    void
    writeTrace(const std::string &path, const std::string &header) const
    {
        tracer.write(path, header);
    }

  private:
    /** A fresh socket rendezvous directory inside the working tree
     *  (relative, so socket paths stay short). */
    std::string
    socketDir()
    {
        ::mkdir(".bench_build", 0700);
        ::mkdir(".bench_build/sock", 0700);
        std::string tmpl = ".bench_build/sock/run-XXXXXX";
        if (::mkdtemp(tmpl.data()) == nullptr)
            throw std::runtime_error("mkdtemp failed for socket dir");
        return tmpl;
    }

    void
    launchProbe(int pass, int parent)
    {
        const int run = nextRun++;
        ClusterConfig cc = pinnedConfig(workload.tier, "LRC", "SOR",
                                        1u << 20);
        std::string dir;
        JsonObject rec;
        rec.str("type", "probe").raw("pass", std::to_string(pass));
        bool ok = true;
        std::string error;
        double seconds = 0;
        try {
            if (workload.tier != "ring")
                cc.socketDir = dir = socketDir();
            Cluster cluster(cc);
            const std::uint64_t t0 = nowNs();
            cluster.run([](Runtime &rt) { rt.barrier(0); });
            const std::uint64_t t1 = nowNs();
            tracer.add("launch_probe", parent, run, t0, t1);
            seconds = spanSeconds(t0, t1);
        } catch (const std::exception &e) {
            ok = false;
            error = e.what();
        }
        if (!dir.empty())
            removeRendezvousDir(dir);
        emit(rec.raw("run", std::to_string(run))
                 .boolean("ok", ok)
                 .str("error", error)
                 .num("launch_s", seconds));
    }

    void
    runOne(AppSlot &slot, const std::string &column, int pass, bool traced,
           int parent)
    {
        const int run = nextRun++;
        const ClusterConfig requested =
            pinnedConfig(workload.tier, column, slot.name,
                         arenaBytes(scale, slot.name));
        JsonObject rec;
        rec.str("type", "run")
            .raw("pass", std::to_string(pass))
            .raw("run", std::to_string(run))
            .boolean("traced", traced)
            .str("app", slot.name)
            .u64("input_seed", slot.params.seed)
            .str("column", column)
            .str("impl", requested.runtime.name() +
                             (requested.homeBasedLrc ? "+home" : ""))
            .str("tier", workload.tier);
        emit(JsonObject()
                 .str("type", "begin")
                 .raw("run", std::to_string(run))
                 .str("app", slot.name)
                 .str("column", column));

        std::vector<std::pair<std::uint64_t, std::uint64_t>> workerSpans(
            kNodes, {0, 0});
        const std::function<void(Runtime &)> plain = [&](Runtime &rt) {
            slot.app->runNode(rt, slot.params);
        };
        const std::function<void(Runtime &)> spanned = [&](Runtime &rt) {
            const std::uint64_t a = nowNs();
            slot.app->runNode(rt, slot.params);
            workerSpans[rt.worker()] = {a, nowNs()};
        };

        bool ok = false;
        std::string error;
        std::string dir;
        try {
            ClusterConfig cc = requested;
            if (workload.tier != "ring")
                cc.socketDir = dir = socketDir();
            const std::uint64_t c0 = nowNs();
            Cluster cluster(cc);
            const std::uint64_t c1 = nowNs();
            const RunResult result = cluster.run(traced ? spanned : plain);
            const std::uint64_t c2 = nowNs();
            const Verdict verdict = slot.app->validate(cluster, slot.params);
            const std::uint64_t c3 = nowNs();
            ok = verdict.ok;
            if (!ok)
                error = "validation: " + verdict.detail;

            rec.num("setup_s", spanSeconds(c0, c1))
                .num("run_s", spanSeconds(c1, c2))
                .num("validate_s", spanSeconds(c2, c3))
                .num("virt_s", result.execSeconds())
                .u64("msgs", result.total.messagesSent)
                .u64("bytes", result.total.bytesSent)
                .num("mb_sent", result.megabytesSent())
                .u64("work_unit_ns", cc.cost.workUnitNs)
                .raw("node_times_ns",
                     array(result.nodeTimesNs,
                           [](std::uint64_t v) { return std::to_string(v); }))
                .raw("counters", countersJson(result.total))
                .raw("config", configJson(requested, cluster.config()));

            if (traced) {
                const int row = tracer.add(slot.name + "/" + column, parent,
                                           run, c0, c3);
                tracer.add("construct", row, run, c0, c1);
                const int runSpan = tracer.add("run", row, run, c1, c2);
                tracer.add("validate", row, run, c2, c3);
                std::vector<double> spans;
                if (workload.tier == "ring") {
                    for (int w = 0; w < kNodes; ++w) {
                        const auto &[a, b] = workerSpans[w];
                        tracer.add("runNode:" + std::to_string(w), runSpan,
                                   run, a, b);
                        spans.push_back(spanSeconds(a, b));
                    }
                }
                rec.raw("worker_s", array(spans, number));
            }
        } catch (const std::exception &e) {
            ok = false;
            error = std::string("exception: ") + e.what();
        }
        if (!dir.empty())
            removeRendezvousDir(dir);
        emit(rec.boolean("ok", ok).str("error", error));
    }

    const Workload &workload;
    std::string scale;
    bool tracing;
    std::vector<std::vector<AppSlot>> inputSets;
    Tracer tracer;
    int nextRun = 0;
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string scale = "paper";
    std::string traceOut;
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver --workload "
                 "NAME --seed N --seconds S --trace 0|1 [--scale "
                 "paper|test] [--trace-out FILE]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    bool haveSeed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i], value = argv[i + 1];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
            haveSeed = true;
        }
        else if (key == "--seconds")
            args.seconds = std::atof(value.c_str());
        else if (key == "--trace")
            args.trace = value == "1";
        else if (key == "--scale")
            args.scale = value;
        else if (key == "--trace-out")
            args.traceOut = value;
        else
            return usage(("unknown argument " + key).c_str());
    }
    if (argc % 2 != 1 || !haveSeed || args.seconds <= 0)
        return usage("missing or malformed arguments");
    if (args.scale != "paper" && args.scale != "test")
        return usage("--scale must be paper or test");

    // The library resolves ~28 knobs from DSM_* variables; a stray one
    // would silently change what a workload measures.
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "DSM_", 4) == 0) {
            std::fprintf(stderr,
                         "perfbench_driver: refusing to run with %s set; "
                         "the benchmark pins its whole configuration\n",
                         *e);
            return 2;
        }
    }

    // Keep freed memory in the process (fixed mmap threshold, no
    // trimming): after the warm-up pass, arenas, twins and message
    // buffers reuse memory that is already mapped, so timings do not
    // depend on how fast the host backs fresh pages at that moment.
    ::mallopt(M_MMAP_THRESHOLD, 32 << 20);
    ::mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());

    const Workload *workload = nullptr;
    for (const Workload &w : workloads()) {
        if (w.name == args.workload)
            workload = &w;
    }
    if (workload == nullptr)
        return usage(("unknown workload " + args.workload).c_str());

    const AppParams params = args.scale == "test"
                                 ? AppParams::testScale()
                                 : AppParams::paperScale();

    const JsonObject fp = fingerprint(args.seed, args.scale, args.workload);
    emit(fp);

    Bench bench(*workload, args.scale, args.trace);
    bench.prepare(params, args.seed);
    bench.runPass(-1, false); // warm-up, discarded

    const std::uint64_t start = nowNs();
    int pass = 0;
    do {
        bench.runPass(pass, false);
        if (args.trace)
            bench.runPass(pass, true);
        ++pass;
    } while (spanSeconds(start, nowNs()) < args.seconds);

    if (args.trace && !args.traceOut.empty())
        bench.writeTrace(args.traceOut, fp.text());
    emit(JsonObject().str("type", "done").raw("passes",
                                              std::to_string(pass)));
    return 0;
}
