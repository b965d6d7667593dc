/**
 * @file
 * Byte-oriented wire serialization. All protocol payloads are encoded
 * through WireWriter/WireReader so byte counts (which the cost model
 * charges) are well defined and platform independent.
 */

#ifndef DSM_NET_SERDE_HH
#define DSM_NET_SERDE_HH

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/buffer_pool.hh"
#include "util/logging.hh"

namespace dsm {

/**
 * Append-only little-endian encoder. The backing buffer comes from the
 * process-wide BufferPool, so a writer whose payload is taken and
 * later recycled costs no allocation in steady state; a writer that is
 * destroyed without take() parks its buffer back in the pool.
 */
class WireWriter
{
  public:
    WireWriter() : buf(BufferPool::instance().acquire()) {}

    ~WireWriter()
    {
        BufferPool::instance().release(std::move(buf));
    }

    WireWriter(const WireWriter &) = delete;
    WireWriter &operator=(const WireWriter &) = delete;

    void putU8(std::uint8_t v) { putPod(v); }
    void putU16(std::uint16_t v) { putPod(v); }
    void putU32(std::uint32_t v) { putPod(v); }
    void putU64(std::uint64_t v) { putPod(v); }
    void putI64(std::int64_t v) { putPod(v); }
    void putF64(double v) { putPod(v); }

    /** Raw byte copy of a trivially copyable value. */
    template <typename T>
    void
    putPod(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto *p = reinterpret_cast<const std::byte *>(&v);
        buf.insert(buf.end(), p, p + sizeof(T));
    }

    /** Raw bytes. */
    void
    putBytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::byte *>(data);
        buf.insert(buf.end(), p, p + n);
    }

    /** Length-prefixed byte vector. */
    void
    putBlob(const std::vector<std::byte> &blob)
    {
        putU32(static_cast<std::uint32_t>(blob.size()));
        buf.insert(buf.end(), blob.begin(), blob.end());
    }

    /** Length-prefixed string. */
    void
    putString(const std::string &s)
    {
        putU32(static_cast<std::uint32_t>(s.size()));
        putBytes(s.data(), s.size());
    }

    std::size_t size() const { return buf.size(); }

    /**
     * Grow the buffer by @p n uninitialized-content bytes and return
     * the region's offset, to be filled in place through data().
     * Growth invalidates pointers into the buffer, so producers that
     * interleave appends address their regions by offset.
     */
    std::size_t
    appendRegion(std::size_t n)
    {
        const std::size_t off = buf.size();
        buf.resize(off + n);
        return off;
    }

    /** Mutable view of the accumulated bytes (for appendRegion). */
    std::byte *data() { return buf.data(); }

    /** Move the accumulated bytes out. */
    std::vector<std::byte> take() { return std::move(buf); }

  private:
    std::vector<std::byte> buf;
};

/** Sequential decoder over a byte span; panics on underrun (internal
 *  protocol error, not user input). */
class WireReader
{
  public:
    explicit WireReader(std::span<const std::byte> data)
        : data(data), pos(0)
    {}

    std::uint8_t getU8() { return getPod<std::uint8_t>(); }
    std::uint16_t getU16() { return getPod<std::uint16_t>(); }
    std::uint32_t getU32() { return getPod<std::uint32_t>(); }
    std::uint64_t getU64() { return getPod<std::uint64_t>(); }
    std::int64_t getI64() { return getPod<std::int64_t>(); }
    double getF64() { return getPod<double>(); }

    template <typename T>
    T
    getPod()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        DSM_ASSERT(pos + sizeof(T) <= data.size(), "wire underrun");
        T v;
        std::memcpy(&v, data.data() + pos, sizeof(T));
        pos += sizeof(T);
        return v;
    }

    void
    getBytes(void *out, std::size_t n)
    {
        DSM_ASSERT(pos + n <= data.size(), "wire underrun");
        std::memcpy(out, data.data() + pos, n);
        pos += n;
    }

    /** Consume @p n bytes without copying them out. */
    void
    skip(std::size_t n)
    {
        DSM_ASSERT(pos + n <= data.size(), "wire underrun");
        pos += n;
    }

    std::vector<std::byte>
    getBlob()
    {
        std::uint32_t n = getU32();
        std::vector<std::byte> out(n);
        if (n)
            getBytes(out.data(), n);
        return out;
    }

    std::string
    getString()
    {
        std::uint32_t n = getU32();
        std::string out(n, '\0');
        if (n)
            getBytes(out.data(), n);
        return out;
    }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return data.size() - pos; }

    bool done() const { return pos == data.size(); }

  private:
    std::span<const std::byte> data;
    std::size_t pos;
};

} // namespace dsm

#endif // DSM_NET_SERDE_HH
