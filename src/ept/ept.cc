#include "ept/ept.hh"

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
    auto frame = alloc.alloc();
    fatal_if(!frame, "out of physical memory allocating EPT root");
    root = *frame;
    // The frame is already zero. Writing it faults the host page in
    // once; a first read would map the host's shared zero page and
    // fault again on the first write.
    mem.zero(root, pageSize);
    tableCount = 1;
}

Ept::~Ept()
{
    freeTables(root, eptLevels - 1);
}

void
Ept::freeTables(Hpa table, unsigned level)
{
    if (level > 0) {
        for (unsigned i = 0; i < eptEntriesPerTable; ++i) {
            EptEntry entry(mem.read64(table + i * 8));
            // Large-page leaves at level 1 point at data, not tables.
            if (entry.present() && !(level == 1 && entry.isLarge()))
                freeTables(entry.addr(), level - 1);
        }
    }
    alloc.free(table);
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
            auto frame = alloc.alloc();
            if (!frame)
                return std::nullopt;
            // Already zero; written for the same reason as the root.
            mem.zero(*frame, pageSize);
            ++tableCount;
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
    panic_if(!isPageAligned(len) || len == 0,
             "EPT mapRange length %llx not page-sized",
             (unsigned long long)len);
    // Validate first so a conflict cannot leave a partial mapping.
    for (std::uint64_t off = 0; off < len; off += pageSize) {
        if (occupied(gpa + off))
            return false;
    }
    for (std::uint64_t off = 0; off < len; off += pageSize) {
        const bool ok = map(gpa + off, hpa + off, perms);
        panic_if(!ok, "mapRange collision after validation");
    }
    return true;
}

bool
Ept::mapRangeAuto(Gpa gpa, Hpa hpa, std::uint64_t len, Perms perms)
{
    panic_if(!isPageAligned(len) || len == 0,
             "EPT mapRangeAuto length %llx not page-sized",
             (unsigned long long)len);
    for (std::uint64_t off = 0; off < len; off += pageSize) {
        if (occupied(gpa + off))
            return false;
    }
    std::uint64_t off = 0;
    while (off < len) {
        const Gpa g = gpa + off;
        const Hpa h = hpa + off;
        const bool large_ok = ((g | h) & largePageMask) == 0 &&
                              len - off >= largePageSize;
        if (large_ok) {
            const bool ok = mapLarge(g, h, perms);
            panic_if(!ok, "mapRangeAuto large collision");
            off += largePageSize;
        } else {
            const bool ok = map(g, h, perms);
            panic_if(!ok, "mapRangeAuto collision after validation");
            off += pageSize;
        }
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
    std::uint64_t removed = 0;
    for (std::uint64_t off = 0; off < len; off += pageSize) {
        if (unmap(gpa + off))
            ++removed;
    }
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

bool
Ept::occupied(Gpa gpa) const
{
    auto slot = walkToLeaf(gpa);
    if (!slot)
        return false;
    return mem.read64(slot->slot) != 0;
}

bool
Ept::markSwapped(Gpa gpa, std::uint64_t slot_id)
{
    auto slot = walkToLeaf(gpa);
    if (!slot || slot->level != 0)
        return false;
    EptEntry entry(mem.read64(slot->slot));
    if (!entry.present())
        return false;
    mem.write64(slot->slot,
                EptEntry::makeSwapped(slot_id, entry.perms()).raw());
    ++gen;
    return true;
}

bool
Ept::markBallooned(Gpa gpa)
{
    auto slot = walkToLeaf(gpa);
    if (!slot || slot->level != 0)
        return false;
    EptEntry entry(mem.read64(slot->slot));
    if (!entry.present())
        return false;
    mem.write64(slot->slot,
                EptEntry::makeBallooned(entry.perms()).raw());
    ++gen;
    return true;
}

bool
Ept::markPresent(Gpa gpa, Hpa hpa)
{
    panic_if(!isPageAligned(hpa), "markPresent of unaligned HPA %llx",
             (unsigned long long)hpa);
    auto slot = walkToLeaf(gpa);
    if (!slot || slot->level != 0)
        return false;
    EptEntry entry(mem.read64(slot->slot));
    if (entry.presState() == PresState::Normal)
        return false;
    // The fresh mapping starts with clear A/D flags; the faulting
    // access re-walks and sets them like any first touch.
    mem.write64(slot->slot,
                EptEntry::make(hpa, entry.savedPerms()).raw());
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

bool
Ept::accessedAndClear(Gpa gpa)
{
    auto slot = walkToLeaf(gpa);
    if (!slot)
        return false;
    EptEntry entry(mem.read64(slot->slot));
    if (!entry.present())
        return false;
    const bool was = entry.accessed();
    if (was) {
        entry.setAccessed(false);
        mem.write64(slot->slot, entry.raw());
    }
    return was;
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
