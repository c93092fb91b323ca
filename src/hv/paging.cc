#include "hv/paging.hh"

#include <algorithm>
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

/** Frame-table order (by HPA), for searches by HPA. */
constexpr auto frameBelow = [](const auto &frame, Hpa hpa) {
    return frame.hpa < hpa;
};

/** True when an owner is over its balloon target. */
bool
overTarget(const mem::FrameAllocator::OwnerUsage &usage)
{
    return usage.balloonTargetFrames != 0 &&
           usage.residentFrames > usage.balloonTargetFrames;
}

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

std::size_t
Pager::frameIndex(Hpa hpa) const
{
    return std::lower_bound(frames.begin(), frames.end(), hpa, frameBelow) -
           frames.begin();
}

Pager::Frame *
Pager::findManaged(Hpa hpa)
{
    return const_cast<Frame *>(std::as_const(*this).findManaged(hpa));
}

const Pager::Frame *
Pager::findManaged(Hpa hpa) const
{
    const std::size_t i = frameIndex(hpa);
    return i < frames.size() && frames[i].hpa == hpa ? &frames[i] : nullptr;
}

std::vector<Pager::Range>::iterator
Pager::rangeAtOrAfter(std::uint64_t eptp, Gpa gpa)
{
    return std::lower_bound(ranges.begin(), ranges.end(),
                            std::pair{eptp, gpa},
                            [](const Range &r, const auto &key) {
                                return std::pair{r.eptp, r.gpa} < key;
                            });
}

void
Pager::addMapping(Frame &frame, ept::Ept &ept, Gpa gpa)
{
    auto leaf = ept.pageLeaf(gpa);
    panic_if(!leaf, "paging GPA %llx without a 4 KiB leaf",
             (unsigned long long)gpa);
    if (frame.state != FrameState::Resident) {
        const bool ok = frame.state == FrameState::Swapped
                            ? ept.markSwapped(*leaf, frame.slot)
                            : ept.markBallooned(*leaf);
        panic_if(!ok, "paging GPA %llx without a present 4 KiB leaf",
                 (unsigned long long)gpa);
    }
    frame.mappings.push_back({ept.eptp(), &ept, gpa, *leaf});
}

void
Pager::manageRange(VmId owner, ept::Ept &ept, Gpa gpa, Hpa hpa,
                   std::uint64_t len, bool demand_zero)
{
    panic_if(!isPageAligned(gpa) || !isPageAligned(hpa) ||
                 !isPageAligned(len) || len == 0,
             "managed range must be page-aligned and non-empty");
    const mem::FrameAllocator::OwnerUsage *usage =
        hv.frames.ownerUsage(owner);
    panic_if(!usage, "managing frames of unknown owner %u", owner);

    const std::uint64_t eptp = ept.eptp();
    auto at = rangeAtOrAfter(eptp, gpa);
    panic_if(at != ranges.end() && at->eptp == eptp && at->gpa == gpa,
             "managed range at GPA %llx registered twice",
             (unsigned long long)gpa);
    ranges.insert(at, Range{eptp, gpa, hpa, len});

    // New frames go after the managed ones, then merge into HPA order.
    const std::size_t managed = frames.size();
    for (std::uint64_t off = 0; off < len; off += pageSize) {
        const Hpa frame_hpa = hpa + off;
        auto it = std::lower_bound(frames.begin(),
                                   frames.begin() + managed, frame_hpa,
                                   frameBelow);
        if (it != frames.begin() + managed && it->hpa == frame_hpa) {
            // Another range of the same object: this context's fresh
            // leaf is demoted to match.
            addMapping(*it, ept, gpa + off);
            continue;
        }
        Frame frame{frame_hpa, owner, usage,
                    demand_zero ? FrameState::ZeroPending
                                : FrameState::Resident,
                    0, {}};
        if (demand_zero) {
            std::memset(hv.physMem.raw(frame_hpa, pageSize), poisonByte,
                        pageSize);
        } else {
            ++residentCount;
            hv.frames.addResident(owner, 1);
        }
        addMapping(frame, ept, gpa + off);
        frames.push_back(std::move(frame));
    }
    std::inplace_merge(frames.begin(), frames.begin() + managed,
                       frames.end(), [](const Frame &a, const Frame &b) {
                           return a.hpa < b.hpa;
                       });
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
        if (Frame *frame = findManaged(hpa + off)) {
            addMapping(*frame, ept, gpa + off);
            any = true;
        }
    }
    if (!any)
        return;
    auto at = rangeAtOrAfter(eptp, gpa);
    if (at != ranges.end() && at->eptp == eptp && at->gpa == gpa)
        *at = Range{eptp, gpa, hpa, len};
    else
        ranges.insert(at, Range{eptp, gpa, hpa, len});
    hv.inveptAll(eptp);
}

void
Pager::dropContext(std::uint64_t eptp)
{
    std::erase_if(ranges, [eptp](const Range &r) { return r.eptp == eptp; });
    for (Frame &frame : frames) {
        std::erase_if(frame.mappings, [eptp](const Mapping &m) {
            return m.eptp == eptp;
        });
    }
}

void
Pager::dropMirror(std::uint64_t eptp, Gpa gpa)
{
    auto at = rangeAtOrAfter(eptp, gpa);
    if (at == ranges.end() || at->eptp != eptp || at->gpa != gpa)
        return;
    const Range range = *at;
    ranges.erase(at);
    for (std::uint64_t off = 0; off < range.len; off += pageSize) {
        Frame *frame = findManaged(range.hpa + off);
        if (!frame)
            continue;
        const Gpa page_gpa = range.gpa + off;
        std::erase_if(frame->mappings, [eptp, page_gpa](const Mapping &m) {
            return m.eptp == eptp && m.gpa == page_gpa;
        });
    }
}

void
Pager::onVmDestroy(VmId vm)
{
    // Runs while the VM still exists (destroyVm hook).
    dropContext(hv.vm(vm).defaultEpt().eptp());
    std::erase_if(frames, [this, vm](const Frame &frame) {
        if (frame.owner != vm)
            return false;
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
        return true;
    });
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
    const Frame *frame = findManaged(hpa);
    if (!frame)
        return std::nullopt;
    return frame->state;
}

Pager::Frame *
Pager::findFrame(std::uint64_t eptp, Gpa gpa)
{
    const Gpa page = pageAlignDown(gpa);
    // The range holding the page is the last one at or before it.
    auto it = rangeAtOrAfter(eptp, page + 1);
    if (it == ranges.begin())
        return nullptr;
    --it;
    if (it->eptp != eptp || page >= it->gpa + it->len)
        return nullptr;
    return findManaged(it->hpa + (page - it->gpa));
}

Pager::Frame *
Pager::pickVictim()
{
    const std::size_t n = frames.size();
    std::size_t i = frameIndex(clockHand);
    // Two laps suffice: the first clears every accessed flag, the
    // second then finds an unreferenced frame (or nothing is
    // resident). +1 covers an unaligned starting hand.
    for (std::size_t scanned = 0; scanned < 2 * n + 1; ++scanned, ++i) {
        if (i == n)
            i = 0;
        Frame &frame = frames[i];
        clockHand = frame.hpa + pageSize;
        if (frame.state != FrameState::Resident)
            continue;
        if (overTarget(*frame.usage))
            return &frame; // balloon pressure: no second chance
        bool referenced = false;
        for (const Mapping &m : frame.mappings)
            referenced |= m.ept->accessedAndClear(m.leaf);
        if (!referenced)
            return &frame;
    }
    return nullptr;
}

void
Pager::evictFrame(Frame &frame)
{
    panic_if(frame.state != FrameState::Resident,
             "evicting non-resident frame %llx",
             (unsigned long long)frame.hpa);
    auto slot = backing.alloc();
    panic_if(!slot, "swap device full while evicting frame %llx",
             (unsigned long long)frame.hpa);
    backing.write(*slot, std::as_const(hv.physMem).raw(frame.hpa, pageSize));
    for (const Mapping &m : frame.mappings) {
        const bool ok = m.ept->markSwapped(m.leaf, *slot);
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
    std::memset(hv.physMem.raw(frame.hpa, pageSize), poisonByte, pageSize);
    frame.state = FrameState::Swapped;
    frame.slot = *slot;
    --residentCount;
    ++swappedCount;
    hv.frames.addResident(frame.owner, -1);
    hv.frames.addSwapped(frame.owner, 1);
    hv.statSet.inc(pagesOutId);
}

std::optional<Pager::ServiceResult>
Pager::bringIn(Frame &frame, SimNs delay)
{
    panic_if(frame.state == FrameState::Resident,
             "paging in a resident frame %llx",
             (unsigned long long)frame.hpa);
    const bool zero_fill = frame.state == FrameState::ZeroPending;

    // All or nothing: each victim takes a swap slot, and the faulting
    // page frees its own before any victim allocates one.
    const std::uint64_t evictions =
        residentLimitFrames != 0 && residentCount + 1 > residentLimitFrames
            ? residentCount + 1 - residentLimitFrames
            : 0;
    if (evictions > backing.freeSlots() + (zero_fill ? 0 : 1))
        return std::nullopt;

    if (zero_fill) {
        hv.physMem.zero(frame.hpa, pageSize);
        hv.statSet.inc(zeroFillsId);
    } else {
        backing.read(frame.slot, hv.physMem.raw(frame.hpa, pageSize));
        backing.free(frame.slot);
        --swappedCount;
        hv.frames.addSwapped(frame.owner, -1);
        hv.statSet.inc(pagesInId);
    }
    // Victims are other frames: the faulting one is not resident yet.
    for (std::uint64_t i = 0; i < evictions; ++i) {
        Frame *victim = pickVictim();
        panic_if(!victim, "no resident victim for a page-in");
        evictFrame(*victim);
    }
    for (const Mapping &m : frame.mappings) {
        const bool ok = m.ept->markPresent(m.leaf, frame.hpa);
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
    result.evicted = static_cast<unsigned>(evictions);
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
    if (!findFrame(eptp, violation.gpa))
        return false;

    hv.statSet.inc(faultsId);

    auto delay = pageInHook(vcpu, violation.gpa);
    if (!delay)
        return false;
    // A third-party kill may have torn down the object (and with it
    // the faulting range) underneath us; re-resolve.
    Frame *frame = findFrame(eptp, violation.gpa);
    if (!frame)
        return false;

    if (frame->state == FrameState::Resident) {
        // Lock-step invariant says this cannot happen; restore the
        // leaves defensively and let the access retry.
        for (const Mapping &m : frame->mappings)
            m.ept->markPresent(m.leaf, frame->hpa);
        return true;
    }

    const SimNs t0 = vcpu.clock().now();
    auto service = bringIn(*frame, *delay);
    if (!service)
        return false; // no room can be made: surface the exit

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
        const Frame *frame = findManaged(page);
        if (frame && frame->state != FrameState::Resident) {
            hv.statSet.inc(faultsId);
            auto delay = pageInHook(billed, page);
            if (!delay)
                return false;
            // The kill may have dropped this very frame.
            Frame *again = findManaged(page);
            if (again && again->state != FrameState::Resident) {
                const SimNs t0 = billed.clock().now();
                auto service = bringIn(*again, *delay);
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
