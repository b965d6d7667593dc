/**
 * @file
 * Storage for twins: unmodified copies of shared data used by the
 * twinning write-trapping method (Section 4.2 of the paper).
 *
 * Two kinds are kept:
 *  - page twins, used by LRC and by EC for large objects
 *    (copy-on-write via the software MMU);
 *  - range twins keyed by lock, used by EC for small objects, which
 *    are copied eagerly when the write lock is acquired (the paper's
 *    improvement over the Midway VM implementation).
 */

#ifndef DSM_MEM_TWIN_STORE_HH
#define DSM_MEM_TWIN_STORE_HH

#include <cstddef>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/serde.hh"
#include "util/types.hh"

namespace dsm {

/**
 * Thread-safety (SMP nodes): the map *structure* is guarded by an
 * internal leaf mutex, so lookups/inserts/erases from concurrent
 * threads are safe on their own. The twin *bytes* a returned reference
 * points at are guarded by the caller's lock discipline instead: page
 * twin contents are only touched while holding that page's memory
 * shard lock, range twin contents under the protocol core lock — the
 * same holder that makes or drops the twin, so a reference can never
 * outlive its entry.
 */
class TwinStore
{
  public:
    /** Copy @p size bytes at @p src as the twin of @p page. */
    void makePage(PageId page, const std::byte *src, std::size_t size);

    bool
    hasPage(PageId page) const
    {
        std::lock_guard<std::mutex> g(structMu);
        return pageTwins.count(page) != 0;
    }

    /** Twin bytes of @p page; page must be twinned. */
    const std::vector<std::byte> &pageTwin(PageId page) const;

    /** Mutable twin bytes (for refreshing after a flush). */
    std::vector<std::byte> &pageTwinMut(PageId page);

    void dropPage(PageId page);

    /** Pages currently twinned (unordered). */
    std::vector<PageId> twinnedPages() const;

    /** Copy the concatenated bytes of a lock's bound ranges. */
    void makeRange(LockId lock, std::vector<std::byte> bytes);

    bool
    hasRange(LockId lock) const
    {
        std::lock_guard<std::mutex> g(structMu);
        return rangeTwins.count(lock) != 0;
    }

    const std::vector<std::byte> &rangeTwin(LockId lock) const;

    void dropRange(LockId lock);

    void clear();

    /** Checkpoint support: capture / rebuild both twin maps (takes
     *  the structure mutex itself). */
    void serialize(WireWriter &w) const;
    void restoreFrom(WireReader &r);

  private:
    /** Leaf lock: guards the maps, never held while calling out. */
    mutable std::mutex structMu;
    std::unordered_map<PageId, std::vector<std::byte>> pageTwins;
    std::unordered_map<LockId, std::vector<std::byte>> rangeTwins;
};

} // namespace dsm

#endif // DSM_MEM_TWIN_STORE_HH
