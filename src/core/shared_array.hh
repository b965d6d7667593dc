/**
 * @file
 * Typed convenience view over a shared allocation. All element
 * accesses go through the runtime's instrumented access layer, so the
 * correct write-trapping code runs for every store.
 */

#ifndef DSM_CORE_SHARED_ARRAY_HH
#define DSM_CORE_SHARED_ARRAY_HH

#include <vector>

#include "core/runtime.hh"

namespace dsm {

template <typename T>
class SharedArray
{
  public:
    SharedArray() = default;

    SharedArray(Runtime &rt, GlobalAddr base, std::size_t n)
        : rt(&rt), baseAddr(base), count(n)
    {}

    /** Allocate a fresh shared array (call symmetrically on all
     *  nodes). @p block_size: trapping granularity (4 or 8). */
    static SharedArray
    alloc(Runtime &rt, std::size_t n, std::uint32_t block_size = 4,
          const std::string &name = "")
    {
        GlobalAddr base = rt.sharedAlloc(n * sizeof(T), alignof(T) > 8
                                             ? alignof(T) : 8,
                                         block_size, name);
        return SharedArray(rt, base, n);
    }

    T get(std::size_t i) const { return rt->read<T>(addr(i)); }

    void set(std::size_t i, const T &v) { rt->write(addr(i), v); }

    /** Bulk load [i, i+n) into @p dst. */
    void
    load(std::size_t i, T *dst, std::size_t n) const
    {
        rt->readBuf(addr(i), dst, n);
    }

    /** Bulk store @p src into [i, i+n) (split-loop instrumentation). */
    void
    store(std::size_t i, const T *src, std::size_t n)
    {
        rt->writeBuf(addr(i), src, n);
    }

    GlobalAddr
    addr(std::size_t i) const
    {
        return baseAddr + i * sizeof(T);
    }

    /** Byte range of elements [i, i+n), for lock binding. */
    Range
    range(std::size_t i, std::size_t n) const
    {
        return {addr(i), n * sizeof(T)};
    }

    Range wholeRange() const { return range(0, count); }

    std::size_t size() const { return count; }

    GlobalAddr base() const { return baseAddr; }

  private:
    Runtime *rt = nullptr;
    GlobalAddr baseAddr = 0;
    std::size_t count = 0;
};

} // namespace dsm

#endif // DSM_CORE_SHARED_ARRAY_HH
