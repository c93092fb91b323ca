/**
 * @file
 * A log-structured KVS store living inside a shared memory region —
 * the cluster-scale backend (scalio's kv_bucket_log/kv_circular_log
 * idiom, adapted to the ELISA shm layout rules).
 *
 * Layout (offsets in the region):
 *
 *   [0]      header { magic, buckets, logSlots, head, tail, seq,
 *                     entries }
 *   [64]     bucket index: buckets x entriesPerBucket slots of
 *            { flags u32, pad u32, logIdx u64, key[16] } = 32 B
 *   [logOff] circular log: logSlots records of 96 B each
 *            { checksum u64, seq u64, type u32, pad u32,
 *              key[16], value[40], reserved[16] }
 *
 * The *log* is the durable truth: a PUT appends a record (payload
 * first, header tail-commit second) and only then updates the bucket
 * index, so a crash between the two steps loses nothing — replay()
 * rebuilds the index area from the records in [head, tail). GETs walk
 * the bucket index and read the referenced record. DELETEs append a
 * tombstone. When the log wraps, cleaning advances head over obsolete
 * records and relocates live ones to the tail (their index slot is
 * repointed), exactly like a cleaning circular log.
 *
 * Every structural access goes through a RegionIo (EPT-checked when it
 * is a guest view); time is charged by the callers as calibrated
 * lumps, like ShmKvs. Records carry an FNV checksum so replay stops at
 * torn or corrupted records instead of resurrecting garbage.
 */

#ifndef ELISA_KVS_KV_LOG_HH
#define ELISA_KVS_KV_LOG_HH

#include <cstdint>
#include <functional>
#include <optional>

#include "kvs/shm_kvs.hh" // Key/Value/keyBytes/valueBytes/hashKey

namespace elisa::kvs
{

/**
 * The log-structured table operations, stateless over a RegionIo.
 */
class LogKvs
{
  public:
    /** Record kinds in the log. */
    enum class RecordType : std::uint32_t
    {
        Put = 1,
        Tombstone = 2,
    };

    /** Fixed on-log record size. */
    static constexpr std::uint64_t recordBytes = 96;

    /** Index slots per bucket (collision chain bound, like ShmKvs). */
    static constexpr std::uint32_t slotsPerBucket = 8;

    /** Region bytes needed for the given geometry. */
    static std::uint64_t regionBytesFor(std::uint64_t bucket_count,
                                        std::uint64_t log_slots);

    /** Initialize an empty store. */
    static void format(RegionIo &io, std::uint64_t bucket_count,
                       std::uint64_t log_slots);

    /** True when the region holds a formatted log store. */
    static bool formatted(RegionIo &io);

    /** Number of live (non-deleted) keys. */
    static std::uint64_t liveEntries(RegionIo &io);

    /** Records currently occupying the log (tail - head). */
    static std::uint64_t logDepth(RegionIo &io);

    /** Bucket count of a formatted store. */
    static std::uint64_t bucketCount(RegionIo &io);

    /**
     * Insert or update: append a Put record (cleaning the log head
     * first when the circle is full), commit the tail, then point the
     * key's index slot at the new record.
     * @return false when the log stays full after cleaning (all
     *         records live) or the destination bucket overflows.
     */
    static bool put(RegionIo &io, const Key &key, const Value &value);

    /** Look up @p key through the bucket index. */
    static std::optional<Value> get(RegionIo &io, const Key &key);

    /**
     * Delete @p key: append a tombstone and clear the index slot.
     * @return false when the key was absent (no record appended).
     */
    static bool remove(RegionIo &io, const Key &key);

    /**
     * Rebuild the bucket index (and the header's entry count) from
     * the records in [head, tail), applying them in log order — the
     * recovery path after a killed server VM. Stops early at a torn
     * or corrupted record (checksum mismatch) and clamps the tail
     * there, so an interrupted append can never be half-applied.
     * @return the number of records applied.
     */
    static std::uint64_t replay(RegionIo &io);

    /**
     * Order-independent fingerprint of the live table: an XOR fold of
     * one FNV-1a hash per live (key, value) pair, mixed with the live
     * count. Two stores hold byte-identical logical content iff their
     * fingerprints match, regardless of slot placement or log layout.
     */
    static std::uint64_t fingerprint(RegionIo &io);

    /** Bucket index of @p key (lock selection in callers). */
    static std::uint64_t bucketOf(RegionIo &io, const Key &key);

    /**
     * Visit every live (key, value) pair in bucket-slot order (the
     * reshard migration walk). @p visit returns false to stop early.
     */
    static void forEachLive(
        RegionIo &io,
        const std::function<bool(const Key &, const Value &)> &visit);

  private:
    struct Header
    {
        std::uint64_t magic;
        std::uint64_t buckets;
        std::uint64_t logSlots;
        std::uint64_t head; ///< first occupied log slot (monotonic)
        std::uint64_t tail; ///< one past the last committed record
        std::uint64_t seq;  ///< next record sequence number
        std::uint64_t entries; ///< live keys (derived, rebuilt by replay)
    };
    static_assert(sizeof(Header) <= 64);

    struct IndexSlot
    {
        std::uint32_t flags; ///< bit 0: valid
        std::uint32_t pad;
        std::uint64_t logIdx; ///< monotonic log index of the record
        std::uint8_t key[keyBytes];
    };
    static_assert(sizeof(IndexSlot) == 32);

    struct Record
    {
        std::uint64_t checksum;
        std::uint64_t seq;
        std::uint32_t type;
        std::uint32_t pad;
        std::uint8_t key[keyBytes];
        std::uint8_t value[valueBytes];
        std::uint8_t reserved[16];
    };
    static_assert(sizeof(Record) == recordBytes);

    static constexpr std::uint64_t magicValue = 0x454c49534b564c31ull;
    static constexpr std::uint64_t indexOff = 64;

    static std::uint64_t
    slotOff(std::uint64_t bucket, std::uint32_t slot)
    {
        return indexOff +
               (bucket * slotsPerBucket + slot) * sizeof(IndexSlot);
    }

    static std::uint64_t
    logOff(const Header &h, std::uint64_t log_idx)
    {
        return indexOff +
               h.buckets * slotsPerBucket * sizeof(IndexSlot) +
               (log_idx % h.logSlots) * recordBytes;
    }

    /** FNV-1a over the record body (everything but the checksum). */
    static std::uint64_t recordChecksum(const Record &rec);

    /**
     * Append one record at the tail: payload write, then header
     * tail/seq commit. The caller must have ensured a free slot.
     */
    static void appendRecord(RegionIo &io, Header &h, RecordType type,
                             const Key &key, const Value &value);

    /**
     * Point @p key's index slot at @p log_idx, claiming a free slot
     * on first insertion. @return false on bucket overflow.
     */
    static bool indexPoint(RegionIo &io, const Header &h,
                           const Key &key, std::uint64_t log_idx,
                           bool &was_new);

    /** Clear @p key's index slot. @return true when it existed. */
    static bool indexClear(RegionIo &io, const Header &h,
                           const Key &key);

    /**
     * Look up @p key's index slot. @return the slot's log index, or
     * nullopt when absent.
     */
    static std::optional<std::uint64_t>
    indexFind(RegionIo &io, const Header &h, const Key &key);

    /**
     * Make room for one more record when the circle is full: advance
     * head over obsolete records, relocating live ones to the tail.
     * @return false when every record is live (the store is full).
     */
    static bool cleanForAppend(RegionIo &io, Header &h);
};

} // namespace elisa::kvs

#endif // ELISA_KVS_KV_LOG_HH
