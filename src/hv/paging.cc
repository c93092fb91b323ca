#include "hv/paging.hh"

#include <cstring>
#include <utility>

#include "base/logging.hh"
#include "hv/hypervisor.hh"

namespace elisa::hv
{

namespace
{

/** Poison pattern written over non-resident frame bytes: anything that
 *  dodges the fault path reads garbage instead of silently working. */
constexpr int poisonByte = 0x5a;

} // anonymous namespace

Pager::Pager(Hypervisor &hypervisor, const PagingConfig &config)
    : hv(hypervisor), backing(config.swapSlots),
      residentLimitFrames(config.residentLimitFrames)
{
    sim::StatSet &stats = hv.stats();
    faultsId = stats.id("pager_faults");
    pagesInId = stats.id("pager_pages_swapped_in");
    pagesOutId = stats.id("pager_pages_swapped_out");
    zeroFillsId = stats.id("pager_zero_fills");
    hostTouchesId = stats.id("pager_host_touches");
    pageInErrorsId = stats.id("pager_page_in_errors");
    pageInDelaysId = stats.id("pager_page_in_delays");
    pageInKillsId = stats.id("pager_page_in_kills");
}

void
Pager::manageRange(VmId owner, ept::Ept &ept, Gpa gpa, Hpa hpa,
                   std::uint64_t len, bool demand_zero)
{
    panic_if(!isPageAligned(gpa) || !isPageAligned(hpa) ||
                 !isPageAligned(len) || len == 0,
             "managed range must be page-aligned and non-empty");

    const std::uint64_t eptp = ept.eptp();
    auto [range_it, fresh_range] =
        rangesByEptp[eptp].try_emplace(gpa, Range{gpa, hpa, len});
    panic_if(!fresh_range, "managed range at GPA %llx registered twice",
             (unsigned long long)gpa);

    for (std::uint64_t off = 0; off < len; off += pageSize) {
        const Hpa frame_hpa = hpa + off;
        const Gpa page_gpa = gpa + off;
        auto [it, fresh] = framesByHpa.try_emplace(frame_hpa);
        Frame &frame = it->second;
        if (fresh) {
            frame.owner = owner;
            if (demand_zero) {
                frame.state = FrameState::ZeroPending;
                const bool ok = ept.markBallooned(page_gpa);
                panic_if(!ok,
                         "managing GPA %llx without a present 4 KiB "
                         "leaf",
                         (unsigned long long)page_gpa);
                std::memset(hv.physMem.raw(frame_hpa, pageSize),
                            poisonByte, pageSize);
            } else {
                frame.state = FrameState::Resident;
                ++residentCount;
                hv.frames.addResident(owner, 1);
            }
        } else if (frame.state != FrameState::Resident) {
            // The frame is already managed (another range of the same
            // object); demote this context's fresh leaf to match.
            const bool ok =
                frame.state == FrameState::Swapped
                    ? ept.markSwapped(page_gpa, frame.slot)
                    : ept.markBallooned(page_gpa);
            panic_if(!ok,
                     "managing GPA %llx without a present 4 KiB leaf",
                     (unsigned long long)page_gpa);
        }
        frame.mappings.push_back({eptp, &ept, page_gpa});
    }
    // Demoted leaves may be cached; flush the context once.
    hv.inveptAll(eptp);
}

void
Pager::manageVmRam(Vm &vm, bool demand_zero)
{
    manageRange(vm.id(), vm.defaultEpt(), 0, vm.ramGpaToHpa(0),
                vm.ramBytes(), demand_zero);
}

void
Pager::manageObject(Vm &owner_vm, Hpa obj_hpa, std::uint64_t len,
                    bool demand_zero)
{
    const Hpa ram_base = owner_vm.ramGpaToHpa(0);
    panic_if(obj_hpa < ram_base ||
                 obj_hpa + len > ram_base + owner_vm.ramBytes(),
             "object outside VM '%s' RAM", owner_vm.name().c_str());
    manageRange(owner_vm.id(), owner_vm.defaultEpt(),
                obj_hpa - ram_base, obj_hpa, len, demand_zero);
}

void
Pager::addMirror(ept::Ept &ept, Gpa gpa, Hpa hpa, std::uint64_t len)
{
    panic_if(!isPageAligned(gpa) || !isPageAligned(hpa) ||
                 !isPageAligned(len) || len == 0,
             "mirror range must be page-aligned and non-empty");

    const std::uint64_t eptp = ept.eptp();
    bool any = false;
    for (std::uint64_t off = 0; off < len; off += pageSize) {
        auto it = framesByHpa.find(hpa + off);
        if (it == framesByHpa.end())
            continue;
        any = true;
        Frame &frame = it->second;
        const Gpa page_gpa = gpa + off;
        if (frame.state != FrameState::Resident) {
            const bool ok =
                frame.state == FrameState::Swapped
                    ? ept.markSwapped(page_gpa, frame.slot)
                    : ept.markBallooned(page_gpa);
            panic_if(!ok,
                     "mirroring GPA %llx without a present 4 KiB leaf",
                     (unsigned long long)page_gpa);
        }
        frame.mappings.push_back({eptp, &ept, page_gpa});
    }
    if (any) {
        rangesByEptp[eptp].insert_or_assign(gpa, Range{gpa, hpa, len});
        hv.inveptAll(eptp);
    }
}

void
Pager::dropContext(std::uint64_t eptp)
{
    rangesByEptp.erase(eptp);
    for (auto &[hpa, frame] : framesByHpa) {
        (void)hpa;
        std::erase_if(frame.mappings, [eptp](const Mapping &m) {
            return m.eptp == eptp;
        });
    }
}

void
Pager::dropMirror(std::uint64_t eptp, Gpa gpa)
{
    auto ctx = rangesByEptp.find(eptp);
    if (ctx == rangesByEptp.end())
        return;
    auto it = ctx->second.find(gpa);
    if (it == ctx->second.end())
        return;
    const Range range = it->second;
    ctx->second.erase(it);
    if (ctx->second.empty())
        rangesByEptp.erase(ctx);
    for (std::uint64_t off = 0; off < range.len; off += pageSize) {
        auto fit = framesByHpa.find(range.hpa + off);
        if (fit == framesByHpa.end())
            continue;
        const Gpa page_gpa = range.gpa + off;
        std::erase_if(fit->second.mappings,
                      [eptp, page_gpa](const Mapping &m) {
                          return m.eptp == eptp && m.gpa == page_gpa;
                      });
    }
}

void
Pager::onVmDestroy(VmId vm)
{
    // Runs while the VM still exists (destroyVm hook).
    dropContext(hv.vm(vm).defaultEpt().eptp());
    for (auto it = framesByHpa.begin(); it != framesByHpa.end();) {
        Frame &frame = it->second;
        if (frame.owner != vm) {
            ++it;
            continue;
        }
        switch (frame.state) {
          case FrameState::Resident:
            --residentCount;
            break;
          case FrameState::Swapped:
            backing.free(frame.slot);
            --swappedCount;
            break;
          case FrameState::ZeroPending:
            break;
        }
        // Mirrors in other VMs' contexts are revoked by the sharing
        // service's own teardown (it drops those contexts); the pager
        // only forgets. Per-owner resident/swapped book entries die
        // with the allocator's dropOwner.
        it = framesByHpa.erase(it);
    }
}

void
Pager::setResidentLimit(std::uint64_t frames)
{
    residentLimitFrames = frames;
}

void
Pager::setBalloonTarget(VmId vm, std::uint64_t frames)
{
    hv.frames.setBalloonTarget(vm, frames);
}

std::optional<Pager::FrameState>
Pager::frameState(Hpa hpa) const
{
    auto it = framesByHpa.find(hpa);
    if (it == framesByHpa.end())
        return std::nullopt;
    return it->second.state;
}

std::optional<Hpa>
Pager::findFrame(std::uint64_t eptp, Gpa gpa) const
{
    auto ctx = rangesByEptp.find(eptp);
    if (ctx == rangesByEptp.end())
        return std::nullopt;
    const Gpa page = pageAlignDown(gpa);
    auto it = ctx->second.upper_bound(page);
    if (it == ctx->second.begin())
        return std::nullopt;
    --it;
    const Range &range = it->second;
    if (page < range.gpa || page >= range.gpa + range.len)
        return std::nullopt;
    const Hpa hpa = range.hpa + (page - range.gpa);
    return framesByHpa.contains(hpa) ? std::optional<Hpa>(hpa)
                                     : std::nullopt;
}

bool
Pager::ownerOverTarget(VmId owner) const
{
    const mem::FrameAllocator::OwnerUsage *usage =
        hv.frames.ownerUsage(owner);
    return usage && usage->balloonTargetFrames != 0 &&
           usage->residentFrames > usage->balloonTargetFrames;
}

std::optional<Hpa>
Pager::pickVictim(Hpa except)
{
    const std::size_t n = framesByHpa.size();
    // Two laps suffice: the first clears every accessed flag, the
    // second then finds an unreferenced frame (or nothing is resident
    // but `except`). +1 covers an unaligned starting hand.
    for (std::size_t scanned = 0; scanned < 2 * n + 1; ++scanned) {
        auto it = framesByHpa.lower_bound(clockHand);
        if (it == framesByHpa.end())
            it = framesByHpa.begin();
        const Hpa hpa = it->first;
        Frame &frame = it->second;
        clockHand = hpa + pageSize;
        if (frame.state != FrameState::Resident || hpa == except)
            continue;
        if (ownerOverTarget(frame.owner))
            return hpa; // balloon pressure: no second chance
        bool referenced = false;
        for (const Mapping &m : frame.mappings)
            referenced |= m.ept->accessedAndClear(m.gpa);
        if (!referenced)
            return hpa;
    }
    return std::nullopt;
}

bool
Pager::evictFrame(Hpa hpa)
{
    Frame &frame = framesByHpa.at(hpa);
    panic_if(frame.state != FrameState::Resident,
             "evicting non-resident frame %llx",
             (unsigned long long)hpa);
    auto slot = backing.alloc();
    if (!slot)
        return false; // swap device full
    backing.write(*slot, std::as_const(hv.physMem).raw(hpa, pageSize));
    for (const Mapping &m : frame.mappings) {
        const bool ok = m.ept->markSwapped(m.gpa, *slot);
        panic_if(!ok, "swap-out of GPA %llx found no present leaf",
                 (unsigned long long)m.gpa);
    }
    // Flush each affected context once: kills shared-TLB entries and
    // bumps the epochs guarding every GuestView L0 micro-cache.
    std::uint64_t flushed = 0;
    for (const Mapping &m : frame.mappings) {
        if (m.eptp == flushed)
            continue;
        hv.inveptAll(m.eptp);
        flushed = m.eptp;
    }
    std::memset(hv.physMem.raw(hpa, pageSize), poisonByte, pageSize);
    frame.state = FrameState::Swapped;
    frame.slot = *slot;
    --residentCount;
    ++swappedCount;
    hv.frames.addResident(frame.owner, -1);
    hv.frames.addSwapped(frame.owner, 1);
    hv.statSet.inc(pagesOutId);
    return true;
}

std::optional<unsigned>
Pager::makeRoom(Hpa except)
{
    unsigned evicted = 0;
    while (residentLimitFrames != 0 &&
           residentCount + 1 > residentLimitFrames) {
        auto victim = pickVictim(except);
        if (!victim || !evictFrame(*victim))
            return std::nullopt;
        ++evicted;
    }
    return evicted;
}

std::optional<Pager::ServiceResult>
Pager::bringIn(Hpa hpa, SimNs delay)
{
    Frame &frame = framesByHpa.at(hpa);
    panic_if(frame.state == FrameState::Resident,
             "paging in a resident frame %llx", (unsigned long long)hpa);
    const bool zero_fill = frame.state == FrameState::ZeroPending;

    // Free the faulting page's slot before making room, so an almost-
    // full swap device can recycle it for a victim; restore it if no
    // room can be made after all.
    if (!zero_fill) {
        backing.read(frame.slot, swapInBuf.data());
        backing.free(frame.slot);
    }
    auto evicted = makeRoom(hpa);
    if (!evicted) {
        if (!zero_fill) {
            auto slot = backing.alloc();
            panic_if(!slot, "freed swap slot vanished");
            backing.write(*slot, swapInBuf.data());
            frame.slot = *slot;
        }
        return std::nullopt;
    }

    if (zero_fill) {
        hv.physMem.zero(hpa, pageSize);
        hv.statSet.inc(zeroFillsId);
    } else {
        hv.physMem.write(hpa, swapInBuf.data(), pageSize);
        --swappedCount;
        hv.frames.addSwapped(frame.owner, -1);
        hv.statSet.inc(pagesInId);
    }
    for (const Mapping &m : frame.mappings) {
        const bool ok = m.ept->markPresent(m.gpa, hpa);
        panic_if(!ok, "page-in of GPA %llx found no paged leaf",
                 (unsigned long long)m.gpa);
    }
    frame.state = FrameState::Resident;
    frame.slot = 0;
    ++residentCount;
    hv.frames.addResident(frame.owner, 1);

    const sim::CostModel &cost = hv.costModel;
    ServiceResult result;
    result.zeroFill = zero_fill;
    result.evicted = *evicted;
    result.pageNs = cost.pageFaultHandleNs + delay +
                    (zero_fill ? cost.zeroFillNs : cost.swapInNs);
    return result;
}

std::optional<SimNs>
Pager::pageInHook(cpu::Vcpu &vcpu, Gpa gpa)
{
    sim::FaultPlan *plan = hv.faults;
    if (!plan)
        return SimNs{0};
    // Tear down VMs whose injected death was deferred out of their own
    // frames (mirrors the hypercall dispatcher).
    if (!hv.doomedVms.empty())
        hv.reapKilledVms(vcpu.vm());

    const sim::FaultDecision fault = plan->onPageIn(vcpu.vm());
    if (fault.action == sim::FaultAction::None)
        return SimNs{0};
    switch (fault.action) {
      case sim::FaultAction::Error:
        // The swap device fails the read; the page stays out and the
        // guest sees the EPT-violation exit. Nothing is lost — a later
        // touch pages in normally.
        hv.statSet.inc(hv.faultInjectedId);
        hv.statSet.inc(hv.faultErrorsId);
        hv.statSet.inc(pageInErrorsId);
        if (hv.tracerPtr) {
            hv.tracerPtr->instant(sim::SpanCat::Fault,
                                  sim::TraceName::FaultPageInError,
                                  vcpu.id(), vcpu.clock().now(), gpa);
        }
        return std::nullopt;
      case sim::FaultAction::Delay:
        // Swap-device contention: the page-in takes longer.
        hv.statSet.inc(hv.faultInjectedId);
        hv.statSet.inc(hv.faultDelayedId);
        hv.statSet.inc(pageInDelaysId);
        if (hv.tracerPtr) {
            hv.tracerPtr->instant(sim::SpanCat::Fault,
                                  sim::TraceName::FaultPageInDelay,
                                  vcpu.id(), vcpu.clock().now(), gpa,
                                  fault.param);
        }
        return static_cast<SimNs>(fault.param);
      case sim::FaultAction::KillVm: {
        hv.statSet.inc(hv.faultInjectedId);
        hv.statSet.inc(hv.faultVmKillsId);
        hv.statSet.inc(pageInKillsId);
        const VmId victim = static_cast<VmId>(fault.param);
        if (hv.tracerPtr) {
            hv.tracerPtr->instant(sim::SpanCat::Fault,
                                  sim::TraceName::FaultKillVm, vcpu.id(),
                                  vcpu.clock().now(), gpa, victim);
        }
        if (hv.recorderPtr)
            hv.recorderPtr->noteKill(victim, "fault_kill@page_in");
        if (victim == vcpu.vm()) {
            // The faulting VM dies mid-page-in: its frames (the
            // faulting access, the gate call above it) still reference
            // the vCPU, so defer teardown and unwind with the exit the
            // hardware would deliver.
            hv.doomedVms.push_back(victim);
            throw cpu::VmExitEvent(cpu::ExitReason::VmKilled, victim);
        }
        if (hv.vms.contains(victim))
            hv.destroyVm(victim);
        return SimNs{0};
      }
      default:
        return SimNs{0};
    }
}

bool
Pager::resolve(cpu::Vcpu &vcpu, const ept::EptViolation &violation)
{
    // Only translation faults are ours; a permission violation on a
    // present leaf is the guest's own problem.
    if (!violation.notMapped)
        return false;
    const std::uint64_t eptp = vcpu.activeEptp();
    auto frame_hpa = findFrame(eptp, violation.gpa);
    if (!frame_hpa)
        return false;

    hv.statSet.inc(faultsId);

    auto delay = pageInHook(vcpu, violation.gpa);
    if (!delay)
        return false;
    // A third-party kill may have torn down the object (and with it
    // the faulting range) underneath us; re-resolve.
    frame_hpa = findFrame(eptp, violation.gpa);
    if (!frame_hpa)
        return false;

    Frame &frame = framesByHpa.at(*frame_hpa);
    if (frame.state == FrameState::Resident) {
        // Lock-step invariant says this cannot happen; restore the
        // leaves defensively and let the access retry.
        for (const Mapping &m : frame.mappings)
            m.ept->markPresent(m.gpa, *frame_hpa);
        return true;
    }

    const SimNs t0 = vcpu.clock().now();
    auto service = bringIn(*frame_hpa, *delay);
    if (!service)
        return false; // budget unreachable / swap full: surface it

    // Charge the full round trip to the *faulting* guest: the exit,
    // the handler + device work (plus any evictions it forced), the
    // re-entry. The ledger rows partition the same nanoseconds.
    const sim::CostModel &cost = hv.costModel;
    sim::SimClock &clk = vcpu.clock();
    const SimNs evict_ns = SimNs{service->evicted} * cost.swapOutNs;
    clk.advance(cost.vmexitNs);
    hv.statSet.inc(hv.exitStatId(cpu::ExitReason::EptViolation));
    clk.advance(evict_ns + service->pageNs);
    clk.advance(cost.vmentryNs);

    if (sim::ExitLedger *led = vcpu.ledger()) {
        const auto vm = static_cast<std::uint32_t>(vcpu.vm());
        const auto vc = static_cast<std::uint32_t>(vcpu.id());
        led->charge(
            led->slot(vm, vc, sim::CostKind::Exit,
                      static_cast<std::uint32_t>(
                          cpu::ExitReason::EptViolation)),
            cost.vmexitNs + cost.vmentryNs);
        if (service->evicted > 0) {
            led->chargeN(
                led->slot(vm, vc, sim::CostKind::Page,
                          static_cast<std::uint32_t>(
                              sim::PageCost::PageOut)),
                cost.swapOutNs, service->evicted);
        }
        led->charge(
            led->slot(vm, vc, sim::CostKind::Page,
                      static_cast<std::uint32_t>(
                          service->zeroFill ? sim::PageCost::ZeroFill
                                            : sim::PageCost::PageIn)),
            service->pageNs);
    }
    if (hv.tracerPtr) {
        const sim::TraceName name = service->zeroFill
                                        ? sim::TraceName::ZeroFill
                                        : sim::TraceName::PageIn;
        hv.tracerPtr->begin(sim::SpanCat::Page, name, vcpu.id(), t0,
                            violation.gpa, service->evicted);
        hv.tracerPtr->end(sim::SpanCat::Page, name, vcpu.id(),
                          clk.now(), violation.gpa, service->evicted);
    }
    return true;
}

bool
Pager::hostTouch(cpu::Vcpu &billed, Hpa hpa, std::uint64_t len)
{
    panic_if(len == 0, "empty host touch");
    hv.statSet.inc(hostTouchesId);
    const Hpa first = pageAlignDown(hpa);
    const Hpa last = pageAlignDown(hpa + len - 1);
    for (Hpa page = first;; page += pageSize) {
        auto it = framesByHpa.find(page);
        if (it != framesByHpa.end() &&
            it->second.state != FrameState::Resident) {
            hv.statSet.inc(faultsId);
            auto delay = pageInHook(billed, page);
            if (!delay)
                return false;
            // The kill may have dropped this very frame.
            auto again = framesByHpa.find(page);
            if (again != framesByHpa.end() &&
                again->second.state != FrameState::Resident) {
                const SimNs t0 = billed.clock().now();
                auto service = bringIn(page, *delay);
                if (!service)
                    return false;
                // Host-side service: no exit happened (the caller
                // already paid for its own VMCALL), so only the
                // handler + device work is charged.
                const sim::CostModel &cost = hv.costModel;
                const SimNs evict_ns =
                    SimNs{service->evicted} * cost.swapOutNs;
                billed.clock().advance(evict_ns + service->pageNs);
                if (sim::ExitLedger *led = billed.ledger()) {
                    const auto vm =
                        static_cast<std::uint32_t>(billed.vm());
                    const auto vc =
                        static_cast<std::uint32_t>(billed.id());
                    if (service->evicted > 0) {
                        led->chargeN(
                            led->slot(vm, vc, sim::CostKind::Page,
                                      static_cast<std::uint32_t>(
                                          sim::PageCost::PageOut)),
                            cost.swapOutNs, service->evicted);
                    }
                    led->charge(
                        led->slot(vm, vc, sim::CostKind::Page,
                                  static_cast<std::uint32_t>(
                                      service->zeroFill
                                          ? sim::PageCost::ZeroFill
                                          : sim::PageCost::PageIn)),
                        service->pageNs);
                }
                if (hv.tracerPtr) {
                    const sim::TraceName name =
                        service->zeroFill ? sim::TraceName::ZeroFill
                                          : sim::TraceName::PageIn;
                    hv.tracerPtr->begin(sim::SpanCat::Page, name,
                                        billed.id(), t0, page,
                                        service->evicted);
                    hv.tracerPtr->end(sim::SpanCat::Page, name,
                                      billed.id(),
                                      billed.clock().now(), page,
                                      service->evicted);
                }
            }
        }
        if (page == last)
            break;
    }
    return true;
}

} // namespace elisa::hv
