#include "kvs/shm_kvs.hh"

#include <cstring>

#include "base/logging.hh"

namespace elisa::kvs
{

Key
makeKey(std::uint64_t id)
{
    Key key{};
    std::memcpy(key.data(), &id, sizeof(id));
    const std::uint64_t mixed = id * 0x9e3779b97f4a7c15ull;
    std::memcpy(key.data() + 8, &mixed, sizeof(mixed));
    return key;
}

Value
makeValue(std::uint64_t id)
{
    Value value{};
    for (std::uint32_t i = 0; i < valueBytes; i += 8) {
        const std::uint64_t word = id ^ (0x0101010101010101ull * i);
        std::memcpy(value.data() + i, &word, 8);
    }
    return value;
}

std::uint64_t
hashKey(const Key &key, std::uint64_t bucket_count)
{
    std::uint64_t h;
    std::memcpy(&h, key.data(), 8);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h % bucket_count;
}

std::uint64_t
ShmKvs::regionBytesFor(std::uint64_t bucket_count)
{
    return bucketsOff +
           bucket_count * entriesPerBucket * sizeof(Slot);
}

void
ShmKvs::format(RegionIo &io, std::uint64_t bucket_count)
{
    panic_if(bucket_count == 0, "table needs at least one bucket");
    Header h{magicValue, bucket_count, entriesPerBucket, 0};
    io.write(0, &h, sizeof(h));
    // Invalidate every slot (flags word only; payload can stay).
    Slot empty{};
    for (std::uint64_t b = 0; b < bucket_count; ++b) {
        for (std::uint32_t s = 0; s < entriesPerBucket; ++s)
            io.write(slotOff(b, s), &empty, sizeof(empty));
    }
}

bool
ShmKvs::formatted(RegionIo &io)
{
    Header h;
    io.read(0, &h, sizeof(h));
    return h.magic == magicValue;
}

std::uint64_t
ShmKvs::size(RegionIo &io)
{
    Header h;
    io.read(0, &h, sizeof(h));
    return h.entries;
}

std::uint64_t
ShmKvs::bucketCount(RegionIo &io)
{
    Header h;
    io.read(0, &h, sizeof(h));
    panic_if(h.magic != magicValue, "unformatted KVS region");
    return h.buckets;
}

std::uint64_t
ShmKvs::bucketOf(RegionIo &io, const Key &key)
{
    return hashKey(key, bucketCount(io));
}

bool
ShmKvs::put(RegionIo &io, const Key &key, const Value &value)
{
    Header h;
    io.read(0, &h, sizeof(h));
    panic_if(h.magic != magicValue, "unformatted KVS region");
    const std::uint64_t bucket = hashKey(key, h.buckets);

    std::int32_t free_slot = -1;
    for (std::uint32_t s = 0; s < entriesPerBucket; ++s) {
        Slot slot;
        io.read(slotOff(bucket, s), &slot, sizeof(slot));
        if (slot.flags & 1) {
            if (std::memcmp(slot.key, key.data(), keyBytes) == 0) {
                // Update in place.
                std::memcpy(slot.value, value.data(), valueBytes);
                io.write(slotOff(bucket, s), &slot, sizeof(slot));
                return true;
            }
        } else if (free_slot < 0) {
            free_slot = static_cast<std::int32_t>(s);
        }
    }
    if (free_slot < 0)
        return false; // bucket full

    Slot slot;
    slot.flags = 1;
    slot.pad = 0;
    std::memcpy(slot.key, key.data(), keyBytes);
    std::memcpy(slot.value, value.data(), valueBytes);
    io.write(slotOff(bucket, static_cast<std::uint32_t>(free_slot)),
             &slot, sizeof(slot));
    ++h.entries;
    io.write(0, &h, sizeof(h));
    return true;
}

std::optional<Value>
ShmKvs::get(RegionIo &io, const Key &key)
{
    Header h;
    io.read(0, &h, sizeof(h));
    panic_if(h.magic != magicValue, "unformatted KVS region");
    const std::uint64_t bucket = hashKey(key, h.buckets);

    for (std::uint32_t s = 0; s < entriesPerBucket; ++s) {
        Slot slot;
        io.read(slotOff(bucket, s), &slot, sizeof(slot));
        if ((slot.flags & 1) &&
            std::memcmp(slot.key, key.data(), keyBytes) == 0) {
            Value value;
            std::memcpy(value.data(), slot.value, valueBytes);
            return value;
        }
    }
    return std::nullopt;
}

bool
ShmKvs::cas(RegionIo &io, const Key &key, const Value &expected,
            const Value &desired)
{
    Header h;
    io.read(0, &h, sizeof(h));
    panic_if(h.magic != magicValue, "unformatted KVS region");
    const std::uint64_t bucket = hashKey(key, h.buckets);

    for (std::uint32_t s = 0; s < entriesPerBucket; ++s) {
        Slot slot;
        io.read(slotOff(bucket, s), &slot, sizeof(slot));
        if ((slot.flags & 1) &&
            std::memcmp(slot.key, key.data(), keyBytes) == 0) {
            if (std::memcmp(slot.value, expected.data(),
                            valueBytes) != 0) {
                return false;
            }
            std::memcpy(slot.value, desired.data(), valueBytes);
            io.write(slotOff(bucket, s), &slot, sizeof(slot));
            return true;
        }
    }
    return false; // absent keys never match
}

bool
ShmKvs::remove(RegionIo &io, const Key &key)
{
    Header h;
    io.read(0, &h, sizeof(h));
    panic_if(h.magic != magicValue, "unformatted KVS region");
    const std::uint64_t bucket = hashKey(key, h.buckets);

    for (std::uint32_t s = 0; s < entriesPerBucket; ++s) {
        Slot slot;
        io.read(slotOff(bucket, s), &slot, sizeof(slot));
        if ((slot.flags & 1) &&
            std::memcmp(slot.key, key.data(), keyBytes) == 0) {
            slot.flags = 0;
            io.write(slotOff(bucket, s), &slot, sizeof(slot));
            --h.entries;
            io.write(0, &h, sizeof(h));
            return true;
        }
    }
    return false;
}

} // namespace elisa::kvs
