#include "ept/ept_entry.hh"

#include "base/logging.hh"

namespace elisa::ept
{

std::string
permsToString(Perms perms)
{
    std::string s = "---";
    if (permits(perms, Perms::Read))
        s[0] = 'r';
    if (permits(perms, Perms::Write))
        s[1] = 'w';
    if (permits(perms, Perms::Exec))
        s[2] = 'x';
    return s;
}

void
EptEntry::badAddress(Hpa hpa, std::uint64_t align)
{
    if (align == largePageSize) {
        panic("large EPT entry address %llx not 2 MiB aligned",
              (unsigned long long)hpa);
    }
    panic("EPT entry address %llx not aligned", (unsigned long long)hpa);
}

EptEntry
EptEntry::makeSwapped(std::uint64_t slot, Perms saved_perms)
{
    const std::uint64_t slot_addr = slot << pageShift;
    panic_if((slot_addr & ~0x000ffffffffff000ull) != 0,
             "swap slot %llu does not fit the EPT address field",
             (unsigned long long)slot);
    return EptEntry(
        slot_addr |
        (static_cast<std::uint64_t>(PresState::Swapped) << 57) |
        (static_cast<std::uint64_t>(saved_perms) << 59));
}

EptEntry
EptEntry::makeBallooned(Perms saved_perms)
{
    return EptEntry(
        (static_cast<std::uint64_t>(PresState::Ballooned) << 57) |
        (static_cast<std::uint64_t>(saved_perms) << 59));
}

const char *
presStateToString(PresState state)
{
    switch (state) {
      case PresState::Normal:
        return "normal";
      case PresState::Swapped:
        return "swapped";
      case PresState::Ballooned:
        return "ballooned";
    }
    return "?";
}

} // namespace elisa::ept
