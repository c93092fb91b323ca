#include "cpu/guest_view.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "base/bitops.hh"
#include "base/logging.hh"

namespace elisa::cpu
{

Hpa
GuestView::translateChunk(Gpa gpa, std::uint64_t len, ept::Access access)
{
    const std::uint64_t eptp = cpu.activeEptp();
    panic_if(eptp == 0, "guest access before EPT activation");

    ept::Tlb &tlb = cpu.tlb();
    const Gpa page = pageAlignDown(gpa);

    // L0 fast path: the line was filled after a successful permission
    // check for this access kind, and no fill / flush / EPTP switch
    // has happened since (epoch), so the shared Tlb would return the
    // same translation and charge the same time (one hit, no walk).
    L0Entry &line = l0[static_cast<unsigned>(access)];
    if (line.eptp == eptp && line.gpaPage == page &&
        line.epoch == tlb.epoch()) {
        cpu.stats().inc(cpu.statIds().l0Hit);
        chargeAccess(len);
        return line.hpaPage | (gpa & pageMask);
    }

    const auto &cost = cpu.costModel();
    ept::Perms need = ept::Perms::Read;
    switch (access) {
      case ept::Access::Read:
        need = ept::Perms::Read;
        break;
      case ept::Access::Write:
        need = ept::Perms::Write;
        break;
      case ept::Access::Exec:
        need = ept::Perms::Exec;
        break;
    }

    const bool is_write = access == ept::Access::Write;
    auto cached = tlb.lookup(eptp, gpa);
    if (!cached) {
        cached = ept::hardwareWalkAd(cpu.memory(), eptp, gpa, is_write);
        if (charging)
            pendingNs += cost.eptWalkNs;
        cpu.stats().inc(cpu.statIds().eptWalk);
        if (cached)
            tlb.fill(eptp, gpa, *cached, is_write);
    } else if (is_write && !tlb.dirtyKnown(eptp, gpa)) {
        // First write through a read-filled entry: the hardware
        // re-walks to set the leaf's dirty flag.
        ept::hardwareWalkAd(cpu.memory(), eptp, gpa, true);
        tlb.setDirtyKnown(eptp, gpa);
        if (charging)
            pendingNs += cost.eptWalkNs;
        cpu.stats().inc(cpu.statIds().eptAdUpdate);
    }
    // Charge the access itself (per 8-byte beat).
    chargeAccess(len);

    if (!cached || !ept::permits(cached->perms, need))
        cached = faultChunk(gpa, len, access, need, cached);

    line.eptp = eptp;
    line.epoch = tlb.epoch();
    line.gpaPage = page;
    line.hpaPage = pageAlignDown(cached->hpa);
    return cached->hpa;
}

ept::Translation
GuestView::faultChunk(Gpa gpa, std::uint64_t len, ept::Access access,
                      ept::Perms need,
                      std::optional<ept::Translation> cached)
{
    const std::uint64_t eptp = cpu.activeEptp();
    const auto &cost = cpu.costModel();
    const bool is_write = access == ept::Access::Write;
    ept::Tlb &tlb = cpu.tlb();

    ept::EptViolation violation;
    violation.gpa = gpa;
    violation.access = access;
    violation.present = cached ? cached->perms : ept::Perms::None;
    violation.notMapped = !cached.has_value();
    cpu.stats().inc(cpu.statIds().eptViolation);
    // The faulting access was charged (walk + beats), exactly as
    // before batching: settle the clock before unwinding.
    flushTime();
    EptFaultSink *sink = cpu.faultSink();
    if (sink && sink->resolveEptViolation(cpu, violation)) {
        // Resolved (demand paging): VMRESUME re-executes the access —
        // a fresh walk (the pager flushed the TLB) and fresh beats,
        // charged like any first touch.
        cached = ept::hardwareWalkAd(cpu.memory(), eptp, gpa, is_write);
        if (charging)
            pendingNs += cost.eptWalkNs;
        cpu.stats().inc(cpu.statIds().eptWalk);
        if (cached)
            tlb.fill(eptp, gpa, *cached, is_write);
        chargeAccess(len);
    }
    if (!cached || !ept::permits(cached->perms, need)) {
        // Unresolved, or resolved into a mapping whose restored
        // permissions still refuse this access: exit with the
        // post-resolution qualification.
        violation.present = cached ? cached->perms : ept::Perms::None;
        violation.notMapped = !cached.has_value();
        flushTime();
        throw VmExitEvent(violation);
    }
    return *cached;
}

Hpa
GuestView::translate(Gpa gpa, ept::Access access)
{
    const Hpa hpa = translateChunk(gpa, 1, access);
    flushTime();
    return hpa;
}

void
GuestView::readBytes(Gpa gpa, void *dst, std::uint64_t len)
{
    auto *out = static_cast<std::uint8_t *>(dst);
    while (len > 0) {
        const std::uint64_t in_page =
            std::min<std::uint64_t>(len, pageSize - (gpa & pageMask));
        const Hpa hpa = translateChunk(gpa, in_page, ept::Access::Read);
        cpu.memory().read(hpa, out, in_page);
        gpa += in_page;
        out += in_page;
        len -= in_page;
    }
    flushTime();
}

void
GuestView::writeBytes(Gpa gpa, const void *src, std::uint64_t len)
{
    const auto *in = static_cast<const std::uint8_t *>(src);
    while (len > 0) {
        const std::uint64_t in_page =
            std::min<std::uint64_t>(len, pageSize - (gpa & pageMask));
        const Hpa hpa = translateChunk(gpa, in_page, ept::Access::Write);
        cpu.memory().write(hpa, in, in_page);
        gpa += in_page;
        in += in_page;
        len -= in_page;
    }
    flushTime();
}

void
GuestView::zeroBytes(Gpa gpa, std::uint64_t len)
{
    while (len > 0) {
        const std::uint64_t in_page =
            std::min<std::uint64_t>(len, pageSize - (gpa & pageMask));
        const Hpa hpa = translateChunk(gpa, in_page, ept::Access::Write);
        cpu.memory().zero(hpa, in_page);
        gpa += in_page;
        len -= in_page;
    }
    flushTime();
}

void
GuestView::copyBytes(Gpa dst, Gpa src, std::uint64_t len)
{
    // Page-chunked copy. Translation order per chunk is the same as
    // the historical read-to-bounce-then-write implementation (all
    // source pieces, then all destination pieces), so charged time and
    // fault order are identical; the data movement is frame-to-frame
    // unless the chunk's host ranges overlap, in which case a bounce
    // buffer preserves the "snapshot source chunk first" semantics.
    struct Piece
    {
        Hpa hpa;
        std::uint64_t len;
    };
    while (len > 0) {
        const std::uint64_t chunk =
            std::min<std::uint64_t>(len, pageSize);

        // A <= 4 KiB chunk spans at most two pages on either side.
        Piece src_p[2];
        unsigned src_n = 0;
        for (std::uint64_t done = 0; done < chunk;) {
            const Gpa g = src + done;
            const std::uint64_t in_page = std::min<std::uint64_t>(
                chunk - done, pageSize - (g & pageMask));
            src_p[src_n++] =
                {translateChunk(g, in_page, ept::Access::Read), in_page};
            done += in_page;
        }
        Piece dst_p[2];
        unsigned dst_n = 0;
        for (std::uint64_t done = 0; done < chunk;) {
            const Gpa g = dst + done;
            const std::uint64_t in_page = std::min<std::uint64_t>(
                chunk - done, pageSize - (g & pageMask));
            dst_p[dst_n++] =
                {translateChunk(g, in_page, ept::Access::Write), in_page};
            done += in_page;
        }

        bool overlap = false;
        for (unsigned i = 0; i < src_n && !overlap; ++i) {
            for (unsigned j = 0; j < dst_n; ++j) {
                if (src_p[i].hpa < dst_p[j].hpa + dst_p[j].len &&
                    dst_p[j].hpa < src_p[i].hpa + src_p[i].len) {
                    overlap = true;
                    break;
                }
            }
        }

        mem::HostMemory &memory = cpu.memory();
        if (overlap) {
            if (!bounceBuf)
                bounceBuf = std::make_unique<std::uint8_t[]>(pageSize);
            std::uint8_t *bp = bounceBuf.get();
            for (unsigned i = 0; i < src_n; ++i) {
                memory.read(src_p[i].hpa, bp, src_p[i].len);
                bp += src_p[i].len;
            }
            const std::uint8_t *rp = bounceBuf.get();
            for (unsigned j = 0; j < dst_n; ++j) {
                memory.write(dst_p[j].hpa, rp, dst_p[j].len);
                rp += dst_p[j].len;
            }
        } else {
            // Walk both piece lists in step, copying the overlap of
            // the current source and destination pieces directly.
            unsigned i = 0, j = 0;
            std::uint64_t si = 0, dj = 0;
            while (i < src_n && j < dst_n) {
                const std::uint64_t n = std::min(src_p[i].len - si,
                                                 dst_p[j].len - dj);
                std::memcpy(memory.raw(dst_p[j].hpa + dj, n),
                            std::as_const(memory).raw(src_p[i].hpa + si, n),
                            n);
                si += n;
                dj += n;
                if (si == src_p[i].len) {
                    ++i;
                    si = 0;
                }
                if (dj == dst_p[j].len) {
                    ++j;
                    dj = 0;
                }
            }
        }

        src += chunk;
        dst += chunk;
        len -= chunk;
    }
    flushTime();
}

void
GuestView::fetchCheck(Gpa gpa)
{
    translateChunk(gpa, 8, ept::Access::Exec);
    flushTime();
}

std::string
GuestView::readCString(Gpa gpa, std::uint64_t max_len)
{
    std::string out;
    for (std::uint64_t i = 0; i < max_len; ++i) {
        const char c = static_cast<char>(read<std::uint8_t>(gpa + i));
        if (c == '\0')
            return out;
        out.push_back(c);
    }
    return out;
}

} // namespace elisa::cpu
