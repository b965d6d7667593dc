/**
 * @file
 * Small deterministic pseudo-random generators. Tests and workload
 * generators must not depend on std::mt19937 state layout or on
 * platform entropy, so we ship our own splitmix64/xorshift generators.
 */

#ifndef DSM_UTIL_RNG_HH
#define DSM_UTIL_RNG_HH

#include <cstdint>

namespace dsm {

/** splitmix64: good avalanche, used for seeding and hashing. */
inline std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Deterministic xorshift128+ generator with convenience helpers. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedull)
    {
        std::uint64_t s = seed;
        state0 = splitmix64(s);
        state1 = splitmix64(s);
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = state0;
        const std::uint64_t y = state1;
        state0 = y;
        x ^= x << 23;
        state1 = x ^ y ^ (x >> 17) ^ (y >> 26);
        return state1 + y;
    }

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform integer in [lo, hi]. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        return lo + static_cast<std::int64_t>(
                        below(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

  private:
    std::uint64_t state0;
    std::uint64_t state1;
};

} // namespace dsm

#endif // DSM_UTIL_RNG_HH
