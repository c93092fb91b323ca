/**
 * @file
 * A fixed-geometry hash table living inside a shared memory region.
 *
 * Layout (offsets in the region):
 *
 *   [0]    header { magic, bucketCount, entriesPerBucket, size }
 *   [64]   bucketCount buckets, each entriesPerBucket slots of
 *          { flags u32, pad u32, key[16], value[40] } = 64 B
 *
 * Like the networking rings, all structural accesses go through a
 * RegionIo (EPT-checked when it is a guest view); time is charged by
 * the clients as the calibrated kvsGetCoreNs / kvsPutCoreNs lumps plus
 * the access scheme's transition cost. Keys/values are fixed-size
 * (16 B / 40 B), the geometry the paper-style microbenchmarks use.
 */

#ifndef ELISA_KVS_SHM_KVS_HH
#define ELISA_KVS_SHM_KVS_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "net/desc_ring.hh" // RegionIo lives there

namespace elisa::kvs
{

using net::RegionIo;

/** Fixed key size. */
inline constexpr std::uint32_t keyBytes = 16;

/** Fixed value size. */
inline constexpr std::uint32_t valueBytes = 40;

/**
 * Slots per bucket (collision chain bound). Eight slots keep the
 * per-bucket overflow probability below ~1e-6 at one key per bucket
 * on average, so uniform workloads never hit spurious failures.
 */
inline constexpr std::uint32_t entriesPerBucket = 8;

/** A key. */
using Key = std::array<std::uint8_t, keyBytes>;

/** A value. */
using Value = std::array<std::uint8_t, valueBytes>;

/** Build a Key from an integer (workloads). */
Key makeKey(std::uint64_t id);

/** Build a Value whose content encodes @p id (verifiable). */
Value makeValue(std::uint64_t id);

/** Hash a key to a bucket index. */
std::uint64_t hashKey(const Key &key, std::uint64_t bucket_count);

/**
 * The table operations, stateless over a RegionIo.
 *
 * GET, PUT, remove and CAS take the bucket count the table was
 * formatted with, as its owner holds it, never the header's copy that
 * a direct-mapped peer can rewrite; so every slot they touch lies
 * inside the region. A region whose header lost its magic fails the
 * operation (a miss or false).
 */
class ShmKvs
{
  public:
    /** Region bytes needed for @p bucket_count buckets. */
    static std::uint64_t regionBytesFor(std::uint64_t bucket_count);

    /** Initialize an empty table with @p bucket_count buckets. */
    static void format(RegionIo &io, std::uint64_t bucket_count);

    /** True when the region holds a formatted table. */
    static bool formatted(RegionIo &io);

    /** Number of stored entries. */
    static std::uint64_t size(RegionIo &io);

    /**
     * Bucket count in the header of a formatted table; panics on an
     * unformatted region. For the host, right after it formats one.
     */
    static std::uint64_t bucketCount(RegionIo &io);

    /**
     * Insert or update in a table of @p buckets buckets.
     * @return false when the destination bucket is full.
     */
    static bool put(RegionIo &io, std::uint64_t buckets, const Key &key,
                    const Value &value);

    /** Look up @p key in a table of @p buckets buckets. */
    static std::optional<Value> get(RegionIo &io, std::uint64_t buckets,
                                    const Key &key);

    /**
     * Delete @p key from a table of @p buckets buckets.
     * @return false when the key was absent.
     */
    static bool remove(RegionIo &io, std::uint64_t buckets,
                       const Key &key);

    /**
     * Compare-and-swap in a table of @p buckets buckets: replace the
     * value of @p key with @p desired only if the current value equals
     * @p expected. (Atomicity is the caller's concern — clients wrap
     * this in the bucket lock, like put.)
     * @return true when the swap happened.
     */
    static bool cas(RegionIo &io, std::uint64_t buckets, const Key &key,
                    const Value &expected, const Value &desired);

    /**
     * Host-side hint: start loading the first slot of @p key's bucket
     * into the host's cache, in a table of @p buckets buckets.
     */
    static void
    prefetchBucket(const net::HostRegionIo &io, std::uint64_t buckets,
                   const Key &key)
    {
        io.prefetch(slotOff(hashKey(key, buckets), 0));
    }

  private:
    struct Header
    {
        std::uint64_t magic;
        std::uint64_t buckets;
        std::uint64_t perBucket;
        std::uint64_t entries;
    };

    struct Slot
    {
        std::uint32_t flags; ///< bit 0: valid
        std::uint32_t pad;
        std::uint8_t key[keyBytes];
        std::uint8_t value[valueBytes];
    };
    static_assert(sizeof(Slot) == 64);

    static constexpr std::uint64_t magicValue = 0x454c49534b565331ull;
    static constexpr std::uint64_t bucketsOff = 64;

    static std::uint64_t
    slotOff(std::uint64_t bucket, std::uint32_t slot)
    {
        return bucketsOff +
               (bucket * entriesPerBucket + slot) * sizeof(Slot);
    }
};

} // namespace elisa::kvs

#endif // ELISA_KVS_SHM_KVS_HH
