#include "kvs/kv_log.hh"

#include <cstring>

#include "base/logging.hh"

namespace elisa::kvs
{

namespace
{

/** FNV-1a fold of @p len raw bytes into @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const void *bytes, std::uint64_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(bytes);
    for (std::uint64_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

constexpr std::uint64_t fnvOffset = 0xcbf29ce484222325ull;

} // namespace

std::uint64_t
LogKvs::regionBytesFor(std::uint64_t bucket_count,
                       std::uint64_t log_slots)
{
    return indexOff +
           bucket_count * slotsPerBucket * sizeof(IndexSlot) +
           log_slots * recordBytes;
}

void
LogKvs::format(RegionIo &io, std::uint64_t bucket_count,
               std::uint64_t log_slots)
{
    panic_if(bucket_count == 0, "log store needs at least one bucket");
    panic_if(log_slots < 2, "log store needs at least two log slots");
    Header h{magicValue, bucket_count, log_slots, 0, 0, 0, 0};
    io.write(0, &h, sizeof(h));
    IndexSlot empty{};
    for (std::uint64_t b = 0; b < bucket_count; ++b) {
        for (std::uint32_t s = 0; s < slotsPerBucket; ++s)
            io.write(slotOff(b, s), &empty, sizeof(empty));
    }
}

bool
LogKvs::formatted(RegionIo &io)
{
    Header h;
    io.read(0, &h, sizeof(h));
    return h.magic == magicValue;
}

std::uint64_t
LogKvs::liveEntries(RegionIo &io)
{
    Header h;
    io.read(0, &h, sizeof(h));
    panic_if(h.magic != magicValue, "unformatted log-KVS region");
    return h.entries;
}

std::uint64_t
LogKvs::logDepth(RegionIo &io)
{
    Header h;
    io.read(0, &h, sizeof(h));
    panic_if(h.magic != magicValue, "unformatted log-KVS region");
    return h.tail - h.head;
}

std::uint64_t
LogKvs::bucketCount(RegionIo &io)
{
    Header h;
    io.read(0, &h, sizeof(h));
    panic_if(h.magic != magicValue, "unformatted log-KVS region");
    return h.buckets;
}

std::uint64_t
LogKvs::bucketOf(RegionIo &io, const Key &key)
{
    return hashKey(key, bucketCount(io));
}

std::uint64_t
LogKvs::recordChecksum(const Record &rec)
{
    std::uint64_t h = fnvOffset;
    h = fnv1a(h, &rec.seq, sizeof(rec.seq));
    h = fnv1a(h, &rec.type, sizeof(rec.type));
    h = fnv1a(h, rec.key, keyBytes);
    h = fnv1a(h, rec.value, valueBytes);
    return h;
}

void
LogKvs::appendRecord(RegionIo &io, Header &h, RecordType type,
                     const Key &key, const Value &value)
{
    panic_if(h.tail - h.head >= h.logSlots,
             "appendRecord without a free log slot");
    Record rec{};
    rec.seq = h.seq;
    rec.type = static_cast<std::uint32_t>(type);
    std::memcpy(rec.key, key.data(), keyBytes);
    std::memcpy(rec.value, value.data(), valueBytes);
    rec.checksum = recordChecksum(rec);
    // Payload first, then the header tail-commit: a crash between the
    // two writes leaves an uncommitted (invisible) record.
    io.write(logOff(h, h.tail), &rec, sizeof(rec));
    ++h.tail;
    ++h.seq;
    io.write(0, &h, sizeof(h));
}

std::optional<std::uint64_t>
LogKvs::indexFind(RegionIo &io, const Header &h, const Key &key)
{
    const std::uint64_t bucket = hashKey(key, h.buckets);
    for (std::uint32_t s = 0; s < slotsPerBucket; ++s) {
        IndexSlot slot;
        io.read(slotOff(bucket, s), &slot, sizeof(slot));
        if ((slot.flags & 1) &&
            std::memcmp(slot.key, key.data(), keyBytes) == 0) {
            return slot.logIdx;
        }
    }
    return std::nullopt;
}

bool
LogKvs::indexPoint(RegionIo &io, const Header &h, const Key &key,
                   std::uint64_t log_idx, bool &was_new)
{
    const std::uint64_t bucket = hashKey(key, h.buckets);
    std::int32_t free_slot = -1;
    for (std::uint32_t s = 0; s < slotsPerBucket; ++s) {
        IndexSlot slot;
        io.read(slotOff(bucket, s), &slot, sizeof(slot));
        if (slot.flags & 1) {
            if (std::memcmp(slot.key, key.data(), keyBytes) == 0) {
                slot.logIdx = log_idx;
                io.write(slotOff(bucket, s), &slot, sizeof(slot));
                was_new = false;
                return true;
            }
        } else if (free_slot < 0) {
            free_slot = static_cast<std::int32_t>(s);
        }
    }
    if (free_slot < 0)
        return false; // bucket full
    IndexSlot slot;
    slot.flags = 1;
    slot.pad = 0;
    slot.logIdx = log_idx;
    std::memcpy(slot.key, key.data(), keyBytes);
    io.write(slotOff(bucket, static_cast<std::uint32_t>(free_slot)),
             &slot, sizeof(slot));
    was_new = true;
    return true;
}

bool
LogKvs::indexClear(RegionIo &io, const Header &h, const Key &key)
{
    const std::uint64_t bucket = hashKey(key, h.buckets);
    for (std::uint32_t s = 0; s < slotsPerBucket; ++s) {
        IndexSlot slot;
        io.read(slotOff(bucket, s), &slot, sizeof(slot));
        if ((slot.flags & 1) &&
            std::memcmp(slot.key, key.data(), keyBytes) == 0) {
            slot.flags = 0;
            io.write(slotOff(bucket, s), &slot, sizeof(slot));
            return true;
        }
    }
    return false;
}

bool
LogKvs::cleanForAppend(RegionIo &io, Header &h)
{
    // Each pass inspects the head record: obsolete records are
    // reclaimed for free; a live record is relocated to the tail —
    // possible only if reclaiming already opened a slot. Worst case,
    // every record is live and the store is genuinely full.
    while (h.tail - h.head >= h.logSlots) {
        if (h.entries >= h.logSlots)
            return false; // every record is live: genuinely full
        Record head_rec;
        io.read(logOff(h, h.head), &head_rec, sizeof(head_rec));
        Key key;
        std::memcpy(key.data(), head_rec.key, keyBytes);
        const auto idx = indexFind(io, h, key);
        const bool live =
            head_rec.type == static_cast<std::uint32_t>(RecordType::Put)
            && idx && *idx == h.head;
        if (!live) {
            // Tombstone, or a Put superseded by a newer record.
            ++h.head;
            io.write(0, &h, sizeof(h));
            continue;
        }
        // Relocate: consume the head slot, re-append at the tail, and
        // repoint the index. Order matters for crash safety — the
        // head advance and the re-append commit through the same
        // header write, so replay sees either the old record (head
        // not yet advanced) or the relocated one, never neither.
        Record rec = head_rec;
        rec.seq = h.seq;
        rec.checksum = recordChecksum(rec);
        io.write(logOff(h, h.tail), &rec, sizeof(rec));
        const std::uint64_t new_idx = h.tail;
        ++h.tail;
        ++h.seq;
        ++h.head;
        io.write(0, &h, sizeof(h));
        bool was_new = false;
        const bool ok = indexPoint(io, h, key, new_idx, was_new);
        panic_if(!ok || was_new,
                 "relocating a live record must repoint its slot");
    }
    return true;
}

bool
LogKvs::put(RegionIo &io, const Key &key, const Value &value)
{
    Header h;
    io.read(0, &h, sizeof(h));
    panic_if(h.magic != magicValue, "unformatted log-KVS region");

    if (!cleanForAppend(io, h))
        return false; // log full of live records

    // Probe the bucket before appending so a full bucket does not
    // burn a log slot on a record the index can never reference.
    const bool exists = indexFind(io, h, key).has_value();
    if (!exists) {
        const std::uint64_t bucket = hashKey(key, h.buckets);
        bool has_free = false;
        for (std::uint32_t s = 0; s < slotsPerBucket; ++s) {
            IndexSlot slot;
            io.read(slotOff(bucket, s), &slot, sizeof(slot));
            if (!(slot.flags & 1)) {
                has_free = true;
                break;
            }
        }
        if (!has_free)
            return false; // bucket full
    }

    const std::uint64_t log_idx = h.tail;
    appendRecord(io, h, RecordType::Put, key, value);
    bool was_new = false;
    const bool pointed = indexPoint(io, h, key, log_idx, was_new);
    panic_if(!pointed, "bucket filled between probe and point");
    if (was_new) {
        ++h.entries;
        io.write(0, &h, sizeof(h));
    }
    return true;
}

std::optional<Value>
LogKvs::get(RegionIo &io, const Key &key)
{
    Header h;
    io.read(0, &h, sizeof(h));
    panic_if(h.magic != magicValue, "unformatted log-KVS region");
    const auto idx = indexFind(io, h, key);
    if (!idx)
        return std::nullopt;
    Record rec;
    io.read(logOff(h, *idx), &rec, sizeof(rec));
    Value value;
    std::memcpy(value.data(), rec.value, valueBytes);
    return value;
}

bool
LogKvs::remove(RegionIo &io, const Key &key)
{
    Header h;
    io.read(0, &h, sizeof(h));
    panic_if(h.magic != magicValue, "unformatted log-KVS region");
    if (!indexFind(io, h, key))
        return false;
    // Unindex first: the key's own Put record becomes obsolete, so
    // the cleaner can always make room for the tombstone, even when
    // every log slot was live. Durability is unaffected — replay
    // rebuilds the index from the log, so the removal only becomes
    // permanent once the tombstone commits (or cleaning reclaims the
    // record); a crash before that recovers the key.
    const bool cleared = indexClear(io, h, key);
    panic_if(!cleared, "tombstoned key vanished from the index");
    --h.entries;
    io.write(0, &h, sizeof(h));
    const bool room = cleanForAppend(io, h);
    panic_if(!room, "no room for a tombstone with entries < logSlots");
    appendRecord(io, h, RecordType::Tombstone, key, Value{});
    return true;
}

std::uint64_t
LogKvs::replay(RegionIo &io)
{
    Header h;
    io.read(0, &h, sizeof(h));
    panic_if(h.magic != magicValue, "unformatted log-KVS region");

    // Forget the index entirely: recovery trusts only the log.
    IndexSlot empty{};
    for (std::uint64_t b = 0; b < h.buckets; ++b) {
        for (std::uint32_t s = 0; s < slotsPerBucket; ++s)
            io.write(slotOff(b, s), &empty, sizeof(empty));
    }
    h.entries = 0;

    std::uint64_t applied = 0;
    for (std::uint64_t idx = h.head; idx < h.tail; ++idx) {
        Record rec;
        io.read(logOff(h, idx), &rec, sizeof(rec));
        if (rec.checksum != recordChecksum(rec)) {
            // Torn or corrupted: everything from here on is garbage.
            h.tail = idx;
            break;
        }
        Key key;
        std::memcpy(key.data(), rec.key, keyBytes);
        if (rec.type == static_cast<std::uint32_t>(RecordType::Put)) {
            bool was_new = false;
            const bool ok = indexPoint(io, h, key, idx, was_new);
            panic_if(!ok, "replay overflowed a bucket the writer fit");
            if (was_new)
                ++h.entries;
        } else {
            if (indexClear(io, h, key))
                --h.entries;
        }
        ++applied;
    }
    io.write(0, &h, sizeof(h));
    return applied;
}

std::uint64_t
LogKvs::fingerprint(RegionIo &io)
{
    Header h;
    io.read(0, &h, sizeof(h));
    panic_if(h.magic != magicValue, "unformatted log-KVS region");
    std::uint64_t fold = 0;
    std::uint64_t live = 0;
    for (std::uint64_t b = 0; b < h.buckets; ++b) {
        for (std::uint32_t s = 0; s < slotsPerBucket; ++s) {
            IndexSlot slot;
            io.read(slotOff(b, s), &slot, sizeof(slot));
            if (!(slot.flags & 1))
                continue;
            Record rec;
            io.read(logOff(h, slot.logIdx), &rec, sizeof(rec));
            std::uint64_t e = fnvOffset;
            e = fnv1a(e, rec.key, keyBytes);
            e = fnv1a(e, rec.value, valueBytes);
            fold ^= e; // XOR: independent of slot/log placement
            ++live;
        }
    }
    // Mix in the live count so {} and {k XOR k} cannot collide.
    return fold ^ (live * 0x9e3779b97f4a7c15ull);
}

void
LogKvs::forEachLive(
    RegionIo &io,
    const std::function<bool(const Key &, const Value &)> &visit)
{
    Header h;
    io.read(0, &h, sizeof(h));
    panic_if(h.magic != magicValue, "unformatted log-KVS region");
    for (std::uint64_t b = 0; b < h.buckets; ++b) {
        for (std::uint32_t s = 0; s < slotsPerBucket; ++s) {
            IndexSlot slot;
            io.read(slotOff(b, s), &slot, sizeof(slot));
            if (!(slot.flags & 1))
                continue;
            Record rec;
            io.read(logOff(h, slot.logIdx), &rec, sizeof(rec));
            Key key;
            Value value;
            std::memcpy(key.data(), rec.key, keyBytes);
            std::memcpy(value.data(), rec.value, valueBytes);
            if (!visit(key, value))
                return;
        }
    }
}

} // namespace elisa::kvs
