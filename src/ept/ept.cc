#include "ept/ept.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "base/bitops.hh"
#include "base/logging.hh"

namespace elisa::ept
{

namespace
{

/**
 * EPTP low bits per SDM: memory type WB (6) in bits 2:0, page-walk
 * length minus one (3) in bits 5:3.
 */
constexpr std::uint64_t eptpConfigBits = 0x6 | (0x3 << 3);

/** Core translation walk shared by the const and A/D-updating paths. */
struct RawWalk
{
    Hpa slot = 0;       ///< HPA of the leaf entry slot
    EptEntry entry;     ///< the leaf entry
    unsigned level = 0; ///< 0 = 4 KiB leaf, 1 = 2 MiB leaf
};

std::optional<RawWalk>
rawWalk(const mem::HostMemory &memory, std::uint64_t eptp_value, Gpa gpa)
{
    if (gpa > maxGpa)
        return std::nullopt;
    Hpa table = Ept::rootOfEptp(eptp_value);
    for (unsigned level = eptLevels - 1; level > 0; --level) {
        const Hpa slot = table + eptIndex(gpa, level) * 8;
        EptEntry entry(memory.read64(slot));
        if (!entry.present())
            return std::nullopt;
        if (level == 1 && entry.isLarge())
            return RawWalk{slot, entry, 1};
        table = entry.addr();
    }
    const Hpa slot = table + eptIndex(gpa, 0) * 8;
    EptEntry leaf(memory.read64(slot));
    if (!leaf.present())
        return std::nullopt;
    return RawWalk{slot, leaf, 0};
}

Translation
toTranslation(const RawWalk &walk, Gpa gpa)
{
    const std::uint64_t offset_mask =
        walk.level == 1 ? largePageMask : pageMask;
    return Translation{walk.entry.addr() | (gpa & offset_mask),
                       walk.entry.perms()};
}

/** Bytes from @p gpa to the end of its 2 MiB chunk, at most @p left. */
std::uint64_t
chunkBytes(Gpa gpa, std::uint64_t left)
{
    return std::min(left, largePageSize - (gpa & largePageMask));
}

} // anonymous namespace

std::optional<Translation>
hardwareWalk(const mem::HostMemory &memory, std::uint64_t eptp_value,
             Gpa gpa)
{
    auto walk = rawWalk(memory, eptp_value, gpa);
    if (!walk)
        return std::nullopt;
    return toTranslation(*walk, gpa);
}

std::optional<Translation>
hardwareWalkAd(mem::HostMemory &memory, std::uint64_t eptp_value,
               Gpa gpa, bool is_write)
{
    auto walk = rawWalk(memory, eptp_value, gpa);
    if (!walk)
        return std::nullopt;
    EptEntry entry = walk->entry;
    if (!entry.accessed() || (is_write && !entry.dirty())) {
        entry.setAccessed(true);
        if (is_write)
            entry.setDirty(true);
        memory.write64(walk->slot, entry.raw());
    }
    return toTranslation(*walk, gpa);
}

const char *
accessToString(Access access)
{
    switch (access) {
      case Access::Read:
        return "read";
      case Access::Write:
        return "write";
      case Access::Exec:
        return "exec";
    }
    return "?";
}

std::string
EptViolation::describe() const
{
    return detail::format("EPT violation: %s at GPA %llx (%s)",
                          accessToString(access),
                          (unsigned long long)gpa,
                          notMapped
                              ? "not mapped"
                              : permsToString(present).c_str());
}

Ept::Ept(mem::HostMemory &memory, mem::FrameAllocator &allocator)
    : mem(memory), alloc(allocator)
{
    tables.reserve(eptLevels);
    auto frame = newTable();
    fatal_if(!frame, "out of physical memory allocating EPT root");
    root = *frame;
}

Ept::~Ept()
{
    for (const Hpa table : tables)
        alloc.free(table);
}

std::optional<Hpa>
Ept::newTable()
{
    auto frame = alloc.alloc();
    if (!frame)
        return std::nullopt;
    // The frame is already zero. One write faults the host page in;
    // a first read would map the host's shared zero page and fault
    // again on the first entry write.
    mem.write64(*frame, 0);
    tables.push_back(*frame);
    return frame;
}

std::uint64_t
Ept::eptp() const
{
    return root | eptpConfigBits;
}

Hpa
Ept::rootOfEptp(std::uint64_t eptp_value)
{
    return eptp_value & ~pageMask;
}

std::optional<Ept::LeafSlot>
Ept::walkToLeaf(Gpa gpa, bool allocate, unsigned stop_level)
{
    panic_if(gpa > maxGpa, "GPA %llx beyond 48-bit space",
             (unsigned long long)gpa);
    Hpa table = root;
    for (unsigned level = eptLevels - 1; level > stop_level; --level) {
        const Hpa slot = table + eptIndex(gpa, level) * 8;
        EptEntry entry(mem.read64(slot));
        if (level == 1 && entry.present() && entry.isLarge())
            return LeafSlot{slot, 1};
        if (!entry.present()) {
            if (!allocate)
                return std::nullopt;
            auto frame = newTable();
            if (!frame)
                return std::nullopt;
            // Intermediate entries carry full permissions; access
            // control is enforced at the leaf (simplified from the
            // SDM's AND-of-all-levels semantics, see DESIGN.md).
            entry = EptEntry::make(*frame, Perms::RWX);
            mem.write64(slot, entry.raw());
        }
        table = entry.addr();
    }
    return LeafSlot{table + eptIndex(gpa, stop_level) * 8, stop_level};
}

std::optional<Ept::LeafSlot>
Ept::walkToLeaf(Gpa gpa) const
{
    return const_cast<Ept *>(this)->walkToLeaf(gpa, false);
}

std::optional<Hpa>
Ept::directorySlot(Gpa gpa) const
{
    auto slot = const_cast<Ept *>(this)->walkToLeaf(gpa, false, 1);
    if (!slot)
        return std::nullopt;
    return slot->slot;
}

bool
Ept::rangeFree(Gpa gpa, std::uint64_t len) const
{
    for (std::uint64_t off = 0; off < len;) {
        const Gpa g = gpa + off;
        const std::uint64_t bytes = chunkBytes(g, len - off);
        off += bytes;
        const auto slot = directorySlot(g);
        if (!slot)
            continue;
        const EptEntry dir(mem.read64(*slot));
        if (!dir.present())
            continue;
        if (dir.isLarge())
            return false;
        // OR the chunk's leaves together through one read-only view of
        // the table (it marks nothing written): one bounds check for
        // the chunk instead of one read64 per leaf.
        const std::uint64_t leaves = bytes / pageSize;
        const std::uint8_t *slots = std::as_const(mem).raw(
            dir.addr() + eptIndex(g, 0) * 8, leaves * 8);
        std::uint64_t any = 0;
        for (std::uint64_t i = 0; i < leaves; ++i) {
            std::uint64_t entry;
            std::memcpy(&entry, slots + i * 8, 8);
            any |= entry;
        }
        if (any != 0)
            return false;
    }
    return true;
}

void
Ept::mapChunk(Gpa gpa, Hpa hpa, std::uint64_t len, Perms perms)
{
    auto slot = walkToLeaf(gpa, true);
    fatal_if(!slot, "out of physical memory for EPT tables");
    panic_if(slot->level != 0, "EPT range collision after validation");
    const std::uint64_t pages = len / pageSize;
    std::uint8_t *slots = mem.raw(slot->slot, pages * 8);
    // Entries of consecutive pages differ only in the address field.
    const std::uint64_t first = EptEntry::make(hpa, perms).raw();
    for (std::uint64_t i = 0; i < pages; ++i) {
        const std::uint64_t entry = first + i * pageSize;
        std::memcpy(slots + i * 8, &entry, 8);
    }
    mappedCount += pages;
    coveredBytes += len;
}

void
Ept::checkRangeTarget(Gpa gpa, Hpa hpa, std::uint64_t len,
                      Perms perms) const
{
    panic_if(!isPageAligned(len) || len == 0,
             "EPT range length %llx not page-sized",
             (unsigned long long)len);
    panic_if(!isPageAligned(gpa) || !isPageAligned(hpa),
             "EPT range map of unaligned address (gpa=%llx hpa=%llx)",
             (unsigned long long)gpa, (unsigned long long)hpa);
    panic_if(perms == Perms::None, "EPT map with empty permissions");
    panic_if(!mem.contains(hpa, len),
             "EPT range map target outside physical memory");
}

bool
Ept::map(Gpa gpa, Hpa hpa, Perms perms)
{
    panic_if(!isPageAligned(gpa) || !isPageAligned(hpa),
             "EPT map of unaligned address (gpa=%llx hpa=%llx)",
             (unsigned long long)gpa, (unsigned long long)hpa);
    panic_if(perms == Perms::None, "EPT map with empty permissions");
    panic_if(!mem.contains(hpa, pageSize),
             "EPT map target outside physical memory");

    auto slot = walkToLeaf(gpa, true);
    fatal_if(!slot, "out of physical memory for EPT tables");
    if (slot->level == 1)
        return false; // covered by a large page already
    EptEntry existing(mem.read64(slot->slot));
    if (existing.raw() != 0)
        return false; // present, or a swapped/ballooned leaf
    mem.write64(slot->slot, EptEntry::make(hpa, perms).raw());
    ++mappedCount;
    coveredBytes += pageSize;
    return true;
}

bool
Ept::mapLarge(Gpa gpa, Hpa hpa, Perms perms)
{
    panic_if((gpa & largePageMask) != 0 || (hpa & largePageMask) != 0,
             "EPT mapLarge of unaligned address (gpa=%llx hpa=%llx)",
             (unsigned long long)gpa, (unsigned long long)hpa);
    panic_if(perms == Perms::None, "EPT map with empty permissions");
    panic_if(!mem.contains(hpa, largePageSize),
             "EPT mapLarge target outside physical memory");

    auto slot = walkToLeaf(gpa, true, /*stop_level=*/1);
    fatal_if(!slot, "out of physical memory for EPT tables");
    EptEntry existing(mem.read64(slot->slot));
    if (existing.raw() != 0)
        return false; // PT already hanging there, or another leaf
    mem.write64(slot->slot, EptEntry::makeLarge(hpa, perms).raw());
    ++mappedCount;
    coveredBytes += largePageSize;
    return true;
}

bool
Ept::mapRange(Gpa gpa, Hpa hpa, std::uint64_t len, Perms perms)
{
    checkRangeTarget(gpa, hpa, len, perms);
    // Validate first so a conflict cannot leave a partial mapping.
    if (!rangeFree(gpa, len))
        return false;
    for (std::uint64_t off = 0; off < len;) {
        const std::uint64_t bytes = chunkBytes(gpa + off, len - off);
        mapChunk(gpa + off, hpa + off, bytes, perms);
        off += bytes;
    }
    return true;
}

bool
Ept::mapRangeAuto(Gpa gpa, Hpa hpa, std::uint64_t len, Perms perms)
{
    checkRangeTarget(gpa, hpa, len, perms);
    if (!rangeFree(gpa, len))
        return false;
    for (std::uint64_t off = 0; off < len;) {
        const Gpa g = gpa + off;
        const Hpa h = hpa + off;
        const std::uint64_t bytes = chunkBytes(g, len - off);
        off += bytes;
        // A whole chunk (so g is large-aligned) on a large-aligned HPA
        // takes one 2 MiB leaf, unless an emptied page table still
        // hangs at its directory slot.
        if (bytes == largePageSize && (h & largePageMask) == 0 &&
            mapLarge(g, h, perms)) {
            continue;
        }
        mapChunk(g, h, bytes, perms);
    }
    return true;
}

bool
Ept::mapWindow(Gpa gpa, Hpa obj_hpa, std::uint64_t obj_bytes,
               std::uint64_t window_offset, std::uint64_t len,
               Perms perms)
{
    if (!isPageAligned(window_offset) || !isPageAligned(len) ||
        len == 0) {
        return false;
    }
    // Overflow-safe containment check: the window must end inside the
    // object.
    if (window_offset > obj_bytes || len > obj_bytes - window_offset)
        return false;
    return mapRangeAuto(gpa, obj_hpa + window_offset, len, perms);
}

bool
Ept::unmap(Gpa gpa)
{
    auto slot = walkToLeaf(gpa);
    if (!slot)
        return false;
    EptEntry entry(mem.read64(slot->slot));
    // Swapped/Ballooned leaves still own their slot and are unmapped
    // like present ones; freeing their backing-store slot is the
    // pager's job, not the page table's.
    if (entry.raw() == 0)
        return false;
    mem.write64(slot->slot, 0);
    --mappedCount;
    coveredBytes -= slot->level == 1 ? largePageSize : pageSize;
    ++gen;
    return true;
}

std::uint64_t
Ept::unmapRange(Gpa gpa, std::uint64_t len)
{
    // ceil(len / 4 KiB) pages, from the page holding gpa.
    const Gpa first = pageAlignDown(gpa);
    const std::uint64_t span = divCeil(len, pageSize) * pageSize;
    std::uint64_t removed = 0;
    for (std::uint64_t off = 0; off < span;) {
        const Gpa g = first + off;
        const std::uint64_t bytes = chunkBytes(g, span - off);
        off += bytes;
        const auto slot = directorySlot(g);
        if (!slot)
            continue;
        const EptEntry dir(mem.read64(*slot));
        if (!dir.present())
            continue;
        if (dir.isLarge()) {
            // Any page of a large leaf unmaps all of it.
            mem.write64(*slot, 0);
            ++removed;
            --mappedCount;
            coveredBytes -= largePageSize;
            continue;
        }
        const Hpa first_leaf = dir.addr() + eptIndex(g, 0) * 8;
        const Hpa end = first_leaf + bytes / pageSize * 8;
        std::uint64_t cleared = 0;
        for (Hpa leaf = first_leaf; leaf < end; leaf += 8) {
            // Swapped/Ballooned leaves still own their slot and are
            // unmapped like present ones; freeing their backing-store
            // slot is the pager's job, not the page table's.
            if (mem.read64(leaf) != 0) {
                mem.write64(leaf, 0);
                ++cleared;
            }
        }
        removed += cleared;
        mappedCount -= cleared;
        coveredBytes -= cleared * pageSize;
    }
    gen += removed; // one bump per leaf, as unmap() does
    return removed;
}

bool
Ept::protect(Gpa gpa, Perms perms)
{
    panic_if(perms == Perms::None,
             "use unmap() instead of protect(None)");
    auto slot = walkToLeaf(gpa);
    if (!slot)
        return false;
    EptEntry entry(mem.read64(slot->slot));
    if (!entry.present())
        return false;
    entry.setPerms(perms);
    mem.write64(slot->slot, entry.raw());
    ++gen;
    return true;
}

std::optional<Ept::Leaf>
Ept::pageLeaf(Gpa gpa) const
{
    auto slot = walkToLeaf(gpa);
    if (!slot || slot->level != 0)
        return std::nullopt;
    return Leaf{slot->slot};
}

bool
Ept::markBallooned(Leaf leaf)
{
    EptEntry entry(mem.read64(leaf.slot));
    if (!entry.present())
        return false;
    mem.write64(leaf.slot, EptEntry::makeBallooned(entry.perms()).raw());
    ++gen;
    return true;
}

PresState
Ept::entryState(Gpa gpa) const
{
    auto slot = walkToLeaf(gpa);
    if (!slot)
        return PresState::Normal;
    return EptEntry(mem.read64(slot->slot)).presState();
}

std::optional<EptEntry>
Ept::leafEntry(Gpa gpa) const
{
    auto slot = walkToLeaf(gpa);
    if (!slot)
        return std::nullopt;
    return EptEntry(mem.read64(slot->slot));
}

std::optional<Translation>
Ept::translate(Gpa gpa) const
{
    return hardwareWalk(mem, eptp(), gpa);
}

std::optional<Translation>
Ept::translateFor(Gpa gpa, Access access, EptViolation *violation) const
{
    auto result = translate(gpa);
    Perms need = Perms::Read;
    switch (access) {
      case Access::Read:
        need = Perms::Read;
        break;
      case Access::Write:
        need = Perms::Write;
        break;
      case Access::Exec:
        need = Perms::Exec;
        break;
    }
    if (result && permits(result->perms, need))
        return result;
    if (violation) {
        violation->gpa = gpa;
        violation->access = access;
        violation->present = result ? result->perms : Perms::None;
        violation->notMapped = !result.has_value();
    }
    return std::nullopt;
}

std::vector<std::pair<Gpa, std::uint64_t>>
Ept::dirtyRanges(Gpa gpa, std::uint64_t len, bool clear)
{
    std::vector<std::pair<Gpa, std::uint64_t>> dirty;
    std::uint64_t off = 0;
    bool cleared_any = false;
    while (off < len) {
        const Gpa g = gpa + off;
        auto slot = walkToLeaf(g);
        if (!slot) {
            off += pageSize;
            continue;
        }
        EptEntry entry(mem.read64(slot->slot));
        const std::uint64_t span =
            slot->level == 1 ? largePageSize : pageSize;
        if (entry.present() && entry.dirty()) {
            const Gpa base = slot->level == 1
                                 ? (g & ~largePageMask)
                                 : pageAlignDown(g);
            dirty.emplace_back(base, span);
            if (clear) {
                entry.setDirty(false);
                mem.write64(slot->slot, entry.raw());
                cleared_any = true;
            }
        }
        // Jump to the end of this leaf's coverage.
        const std::uint64_t leaf_end =
            slot->level == 1 ? ((g & ~largePageMask) + largePageSize)
                             : (pageAlignDown(g) + pageSize);
        off = leaf_end - gpa;
    }
    if (cleared_any)
        ++gen; // cached (dirty-known) translations must be dropped
    return dirty;
}

} // namespace elisa::ept
