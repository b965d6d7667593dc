/**
 * @file
 * Fundamental identifiers and value types shared by every dsmcmp module.
 */

#ifndef DSM_UTIL_TYPES_HH
#define DSM_UTIL_TYPES_HH

#include <cstddef>
#include <cstdint>

namespace dsm {

/** Identifier of a node (simulated processor) in the cluster. */
using NodeId = int;

/** Identifier of a distributed lock. */
using LockId = std::uint32_t;

/** Identifier of a barrier. */
using BarrierId = std::uint32_t;

/**
 * Address in the shared virtual address space. A GlobalAddr is an offset
 * into the shared arena; because every node performs the same allocation
 * sequence, the same GlobalAddr names the same object on every node.
 */
using GlobalAddr = std::uint64_t;

/** Sentinel for "no address". */
constexpr GlobalAddr kNullAddr = ~static_cast<GlobalAddr>(0);

/** Index of a virtual memory page within the shared arena. */
using PageId = std::uint32_t;

/** A contiguous byte range of the shared address space. */
struct Range
{
    GlobalAddr addr = 0;
    std::uint64_t size = 0;

    GlobalAddr end() const { return addr + size; }

    bool operator==(const Range &other) const = default;
};

/**
 * Mode of a lock acquire. Read corresponds to EC's read-only locks
 * (shared, consistency-only); Write is an exclusive lock.
 */
enum class AccessMode : std::uint8_t { Read, Write };

/** Human-readable name of an access mode. */
inline const char *
toString(AccessMode mode)
{
    return mode == AccessMode::Read ? "read" : "write";
}

} // namespace dsm

#endif // DSM_UTIL_TYPES_HH
