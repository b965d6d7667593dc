/**
 * @file
 * Property tests sweeping the whole configuration space: a randomized
 * "chaos counter" workload whose invariant (every increment survives)
 * must hold under every model x trapping x collection combination,
 * several page sizes, random schedules, and an unreliable network.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "core/cluster.hh"
#include "core/page_home.hh"
#include "core/shared_array.hh"
#include "util/rng.hh"

namespace dsm {
namespace {

struct ChaosCase
{
    std::string config;
    std::size_t pageSize;
    std::uint64_t seed;
    /** Drop a tenth of the droppable messages (fault injector), so
     *  the endpoint retransmits and dedups. */
    bool lossy = false;
    bool homeBased = false;
};

/** Nightly-stress knobs: DSM_CHAOS_SEED offsets every case's seed so
 *  repeated CI iterations explore fresh schedules, and DSM_HOME_MIG
 *  overrides the home-migration threshold (the nightly job sweeps the
 *  4-8 range that exposed the PR 4 lost-update window). */
std::uint64_t
chaosEnvU64(const char *name, std::uint64_t fallback)
{
    if (const char *v = std::getenv(name))
        return std::strtoull(v, nullptr, 10);
    return fallback;
}

std::string
caseName(const ChaosCase &c)
{
    std::string n = c.config + (c.homeBased ? "_home" : "") + "_p" +
                    std::to_string(c.pageSize) + "_s" +
                    std::to_string(c.seed) +
                    (c.lossy ? "_lossy" : "");
    for (char &ch : n) {
        if (ch == '-')
            ch = '_';
    }
    return n;
}

class ChaosCounter : public ::testing::TestWithParam<ChaosCase>
{};

/**
 * K counter arrays, each protected by (and, under EC, bound to) a
 * lock. Every node performs R rounds; each round picks a pseudo-random
 * lock, increments a pseudo-random slot of its array, and occasionally
 * hits a barrier. Finally every slot's value must equal the number of
 * increments applied to it, which each node tallied locally.
 */
TEST_P(ChaosCounter, NoLostUpdates)
{
    const ChaosCase &c = GetParam();
    constexpr int kLocks = 5;
    constexpr int kSlots = 24;
    constexpr int kRounds = 60;
    const int nprocs = 4;
    const std::uint64_t seed =
        c.seed + 1000 * chaosEnvU64("DSM_CHAOS_SEED", 0);

    ClusterConfig cc;
    cc.nprocs = nprocs;
    cc.arenaBytes = 1u << 20;
    cc.pageSize = c.pageSize;
    cc.runtime = RuntimeConfig::parse(c.config);
    if (c.lossy) {
        cc.faultMsgDrop = 0.1;
        cc.faultSeed = static_cast<long long>(seed);
    }
    cc.homeBasedLrc = c.homeBased;
    // Aggressive migration so home hand-offs happen mid-chaos
    // (nightly stress sweeps DSM_HOME_MIG over 4-8).
    cc.homeMigrateThreshold =
        c.homeBased
            ? static_cast<std::uint32_t>(chaosEnvU64("DSM_HOME_MIG", 6))
            : 0;
    Cluster cluster(cc);

    // Expected tallies are deterministic given the seeds. Workers,
    // not nodes: under DSM_THREADS > 1 every node runs several chaos
    // workers, which makes this the intra-node mixed-lock stressor.
    std::vector<std::uint64_t> expected(kLocks * kSlots, 0);
    for (int p = 0; p < cluster.nworkers(); ++p) {
        Rng rng(seed * 977 + p);
        for (int r = 0; r < kRounds; ++r) {
            const int lock = static_cast<int>(rng.below(kLocks));
            const int slot = static_cast<int>(rng.below(kSlots));
            expected[lock * kSlots + slot]++;
            rng.below(7); // mirrors the barrier dice below
        }
    }

    RunResult result = cluster.run([&](Runtime &rt) {
        const bool ec = rt.clusterConfig().runtime.model == Model::EC;
        std::vector<SharedArray<std::uint64_t>> arrays;
        for (int l = 0; l < kLocks; ++l) {
            arrays.push_back(SharedArray<std::uint64_t>::alloc(
                rt, kSlots, 4, "chaos"));
            if (ec)
                rt.bindLock(100 + l, {arrays.back().wholeRange()});
        }
        rt.barrier(0);

        Rng rng(seed * 977 + rt.worker());
        BarrierId sync_round = 0;
        int since_barrier = 0;
        for (int r = 0; r < kRounds; ++r) {
            const int lock = static_cast<int>(rng.below(kLocks));
            const int slot = static_cast<int>(rng.below(kSlots));
            rt.acquire(100 + lock, AccessMode::Write);
            arrays[lock].set(slot, arrays[lock].get(slot) + 1);
            rt.release(100 + lock);
            // Occasional barriers, decided identically on every node
            // per round index... each node rolls its own dice; barriers
            // must be collective, so use the round index instead.
            rng.below(7);
            if (++since_barrier == 10) {
                rt.barrier(1 + sync_round++);
                since_barrier = 0;
            }
        }
        while (sync_round < kRounds / 10)
            rt.barrier(1 + sync_round++);
        rt.barrier(900);

        // Worker 0 (on node 0) collects every array via the protocol.
        if (rt.worker() == 0) {
            for (int l = 0; l < kLocks; ++l) {
                if (ec) {
                    rt.acquire(100 + l, AccessMode::Read);
                    rt.release(100 + l);
                }
                for (int s = 0; s < kSlots; ++s)
                    arrays[l].get(s);
            }
        }
        rt.barrier(901);
    });

    for (int l = 0; l < kLocks; ++l) {
        for (int s = 0; s < kSlots; ++s) {
            std::uint64_t got;
            std::memcpy(&got,
                        cluster.memory(0, (static_cast<GlobalAddr>(l) *
                                               kSlots +
                                           s) *
                                              8),
                        8);
            ASSERT_EQ(got, expected[l * kSlots + s])
                << "lock " << l << " slot " << s;
        }
    }

    // Whether a lossy run drops anything depends on the schedule (how
    // many droppable messages it sends), but every drop must have been
    // recovered by a retransmission.
    if (result.total.messagesDropped > 0) {
        EXPECT_GT(result.total.retransmissions, 0u)
            << result.total.messagesDropped
            << " messages were dropped and none was retransmitted";
    }
}

std::vector<ChaosCase>
chaosCases()
{
    std::vector<ChaosCase> cases;
    for (const RuntimeConfig &config : RuntimeConfig::all()) {
        for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
            cases.push_back({config.name(), 1024, seed, false});
        }
        // Cross-page behaviour and the lossy network, one seed each.
        cases.push_back({config.name(), 256, 7, false});
        cases.push_back({config.name(), 1024, 11, true});
    }
    // The home-based LRC variant, with migrations mid-run.
    for (std::uint64_t seed : {1ull, 2ull, 3ull})
        cases.push_back({"LRC-diff", 1024, seed, false, true});
    cases.push_back({"LRC-diff", 256, 7, false, true});
    cases.push_back({"LRC-diff", 1024, 11, true, true});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChaosCounter,
                         ::testing::ValuesIn(chaosCases()),
                         [](const auto &info) {
                             return caseName(info.param);
                         });

/**
 * Homeless vs home-based diff application: a randomized multi-writer
 * page history — causally ordered rounds of 1-3 concurrent writers
 * touching disjoint words, with byte-granularity (non-word-aligned)
 * writes — must converge to the same page bytes whether the diffs are applied
 * in happens-before (sum) order, as the homeless protocol does after
 * collecting a diff chain, or in an adversarially shuffled arrival
 * order through the home's sum-guarded in-place application.
 */
TEST(HomeDiffApplication, ConvergesWithHomelessOrder)
{
    constexpr std::uint32_t kPageBytes = 512;
    constexpr std::uint32_t kPageWords = kPageBytes / 4;

    for (std::uint64_t trial = 0; trial < 60; ++trial) {
        Rng rng(0xd1f5ull * 131 + trial);

        std::vector<std::byte> truth(kPageBytes);
        for (auto &b : truth)
            b = static_cast<std::byte>(rng.below(256));
        const std::vector<std::byte> base = truth;

        struct HistoryDiff
        {
            Diff diff;
            std::uint64_t vtSum;
            std::uint64_t order; ///< tiebreak within equal sums
        };
        std::vector<HistoryDiff> history;

        const int rounds = static_cast<int>(rng.range(2, 6));
        for (int round = 0; round < rounds; ++round) {
            const std::vector<std::byte> twin = truth;
            const int writers = static_cast<int>(rng.range(1, 3));
            // Concurrent writers of a data-race-free program touch
            // disjoint words: partition the page among this round's
            // writers.
            const std::uint32_t band = kPageWords / writers;
            for (int w = 0; w < writers; ++w) {
                std::vector<std::byte> copy = twin;
                const std::uint32_t lo_word = w * band;
                const std::uint32_t hi_word =
                    (w == writers - 1) ? kPageWords : lo_word + band;
                const int nwrites = static_cast<int>(rng.range(1, 6));
                for (int i = 0; i < nwrites; ++i) {
                    // Byte-granularity writes, deliberately unaligned.
                    const std::uint32_t lo = lo_word * 4;
                    const std::uint32_t hi = hi_word * 4;
                    const std::uint32_t off = static_cast<std::uint32_t>(
                        lo + rng.below(hi - lo));
                    const std::uint32_t len =
                        std::min<std::uint32_t>(
                            static_cast<std::uint32_t>(1 +
                                                       rng.below(21)),
                            hi - off);
                    for (std::uint32_t b = 0; b < len; ++b) {
                        copy[off + b] =
                            static_cast<std::byte>(rng.below(256));
                    }
                }
                Diff d = Diff::create(copy.data(), twin.data(),
                                      kPageBytes);
                // Later rounds dominate earlier ones: strictly larger
                // sums. Concurrent writers get arbitrary close sums.
                const std::uint64_t vt_sum =
                    static_cast<std::uint64_t>(round + 1) * 100 +
                    rng.below(10);
                history.push_back(
                    {std::move(d), vt_sum, history.size()});
                // Fold this writer's words into the evolving truth.
                for (std::uint32_t word = lo_word; word < hi_word;
                     ++word) {
                    std::copy_n(copy.begin() + word * 4, 4,
                                truth.begin() + word * 4);
                }
            }
        }

        // Homeless replay: happens-before (sum) order, as the
        // faulting node applies a collected diff chain.
        std::vector<std::size_t> order(history.size());
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (history[a].vtSum != history[b].vtSum)
                          return history[a].vtSum < history[b].vtSum;
                      return history[a].order < history[b].order;
                  });
        std::vector<std::byte> homeless = base;
        for (std::size_t i : order)
            history[i].diff.apply(homeless.data());
        ASSERT_EQ(homeless, truth) << "trial " << trial;

        // Home replay: adversarially shuffled arrival order through
        // the guarded in-place application.
        for (std::size_t i = history.size(); i > 1; --i) {
            std::swap(history[i - 1],
                      history[rng.below(i)]);
        }
        std::vector<std::byte> home = base;
        std::vector<std::uint64_t> word_sums(kPageWords, 0);
        for (const HistoryDiff &h : history)
            applyDiffGuarded(home.data(), word_sums, h.diff, h.vtSum);
        ASSERT_EQ(home, truth) << "trial " << trial;
    }
}

/**
 * Trimming a writer's diffs for shipping (DESIGN.md §10): random
 * histories of one area in which writer X rewrites overlapping words
 * interval after interval, and other writers' diffs fall between X's
 * in sum order. A concurrent writer's words are disjoint from X's; a
 * happens-before ordered one may overlap them. From every threshold k,
 * X's diffs above k shipped trimmed (each without the words its later
 * ones rewrite), applied in sum order with all the others, must give
 * the same bytes as shipping them whole. So must a server that stored
 * them trimmed from an earlier threshold and trims them again.
 */
TEST(DiffTrim, LaterDiffsOfTheWriterRestoreEveryTrimmedWord)
{
    struct Entry
    {
        Diff diff;
        std::uint64_t vtSum;
        bool ofX;
    };
    // Trim X's diffs as one reply ships them: newest to oldest, each
    // without the union of the later ones' runs.
    const auto trim = [](const std::vector<Diff> &diffs) {
        std::vector<Diff> out(diffs.size());
        ByteRanges rewritten;
        for (std::size_t i = diffs.size(); i-- > 0;) {
            out[i] = diffs[i].without(rewritten);
            diffs[i].addRunsTo(rewritten);
        }
        return out;
    };

    std::uint64_t saved = 0;
    for (std::uint64_t trial = 0; trial < 200; ++trial) {
        Rng rng(0x7e1full * 131 + trial);
        // A trailing short word in some trials.
        const auto len =
            static_cast<std::uint32_t>(509 + rng.below(4));
        const std::uint32_t words = (len + 3) / 4;

        std::vector<std::byte> truth(len);
        for (auto &b : truth)
            b = static_cast<std::byte>(rng.below(256));
        const std::vector<std::byte> base = truth;

        std::vector<Entry> history; // sum order
        const int rounds = static_cast<int>(rng.range(2, 8));
        for (int round = 0; round < rounds; ++round) {
            const std::vector<std::byte> twin = truth;
            // Writer 0 is X. Each word goes to at most one of this
            // round's concurrent writers, X most often.
            const int writers = static_cast<int>(rng.range(1, 3));
            std::vector<int> owner(words);
            for (int &o : owner) {
                o = rng.below(4) == 0
                        ? -1
                        : (rng.below(3) != 0
                               ? 0
                               : static_cast<int>(rng.below(writers)));
            }
            std::vector<Entry> round_entries;
            for (int w = 0; w < writers; ++w) {
                std::vector<std::byte> copy = twin;
                const int nwrites = static_cast<int>(rng.range(1, 8));
                for (int i = 0; i < nwrites; ++i) {
                    const auto off =
                        static_cast<std::uint32_t>(rng.below(len));
                    const auto n = std::min<std::uint32_t>(
                        static_cast<std::uint32_t>(1 + rng.below(40)),
                        len - off);
                    for (std::uint32_t b = off; b < off + n; ++b) {
                        if (owner[b / 4] == w)
                            copy[b] = static_cast<std::byte>(rng.below(256));
                    }
                }
                for (std::uint32_t b = 0; b < len; ++b) {
                    if (owner[b / 4] == w)
                        truth[b] = copy[b];
                }
                const std::uint64_t vt_sum =
                    static_cast<std::uint64_t>(round + 1) * 100 +
                    rng.below(10);
                round_entries.push_back(
                    {Diff::create(copy.data(), twin.data(), len), vt_sum,
                     w == 0});
            }
            std::sort(round_entries.begin(), round_entries.end(),
                      [](const Entry &a, const Entry &b) {
                          return a.vtSum < b.vtSum;
                      });
            for (Entry &e : round_entries)
                history.push_back(std::move(e));
        }

        std::vector<Diff> xs; // X's diffs, oldest first
        for (const Entry &e : history) {
            if (e.ofX)
                xs.push_back(e.diff);
        }
        // Apply the history in sum order, X's i-th diff replaced by
        // shipped[i - k] above threshold k.
        const auto replay = [&](std::size_t k,
                                const std::vector<Diff> &shipped) {
            std::vector<std::byte> page = base;
            std::size_t x = 0;
            for (const Entry &e : history) {
                if (!e.ofX)
                    e.diff.apply(page.data());
                else if (x++ < k)
                    e.diff.apply(page.data());
                else
                    shipped[x - 1 - k].apply(page.data());
            }
            return page;
        };

        for (std::size_t k = 0; k <= xs.size(); ++k) {
            SCOPED_TRACE("trial " + std::to_string(trial) +
                         " threshold " + std::to_string(k));
            const std::vector<Diff> whole(xs.begin() + k, xs.end());
            ASSERT_EQ(replay(k, whole), truth);
            const std::vector<Diff> trimmed = trim(whole);
            ASSERT_EQ(replay(k, trimmed), truth);
            for (std::size_t i = 0; i < whole.size(); ++i) {
                // Never larger on the wire; word-exact runs carrying
                // the stored bytes.
                EXPECT_LE(trimmed[i].wireBytes(), whole[i].wireBytes());
                saved += whole[i].wireBytes() - trimmed[i].wireBytes();
                std::vector<std::byte> page = base;
                whole[i].apply(page.data());
                const std::vector<std::byte> before = page;
                trimmed[i].apply(page.data());
                EXPECT_EQ(page, before);
                for (const DiffRun &run : trimmed[i].diffRuns()) {
                    EXPECT_EQ(run.offset % 4, 0u);
                    const std::uint32_t end = run.offset + run.size;
                    EXPECT_TRUE(end % 4 == 0 || end == len);
                }
            }
            if (!whole.empty()) {
                EXPECT_EQ(trimmed.back(), whole.back());
            }
            // A server stored these trimmed and ships them again from
            // any later threshold, trimming once more.
            for (std::size_t k2 = k; k2 <= xs.size(); ++k2) {
                const std::vector<Diff> stored(trimmed.begin() + (k2 - k),
                                               trimmed.end());
                ASSERT_EQ(replay(k2, trim(stored)), truth)
                    << "reshipped from threshold " << k2;
            }
        }
    }
    // The histories overlap enough that trimming has work to do.
    EXPECT_GT(saved, 0u);
}

} // namespace
} // namespace dsm
