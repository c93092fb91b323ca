/**
 * @file
 * A seeded demand-paging scenario that prints the pager's every
 * decision, step by step; ctest compares the output with
 * tests/golden/pager_decisions.txt.
 *
 * Each page of a manager-exported object is mapped three times: by
 * the owner's default context, by a guest's ELISA sub-context window
 * and by an ivshmem-style mirror in a peer's default context. A
 * tenant VM adds a few frames of its own. The steps mix guest faults
 * through all three mappings, host touches, resident-budget and
 * balloon-target changes, a mirror detached and re-attached at the
 * same GPA, and two VM destroys. After every step the output lists
 * the frames evicted (HPA and swap slot), each managed frame's state
 * and raw leaf in every mapping, the resident and swapped counts and
 * every pager_* counter. A change to victim order, slot ids, leaf bits
 * or accounting changes the output.
 *
 *   pager_decisions > tests/golden/pager_decisions.txt
 */

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <vector>

#include "base/units.hh"
#include "cpu/guest_view.hh"
#include "elisa/abi.hh"
#include "elisa/gate.hh"
#include "elisa/guest_api.hh"
#include "elisa/manager.hh"
#include "ept/ept.hh"
#include "hv/hypervisor.hh"
#include "hv/paging.hh"
#include "sim/rng.hh"

namespace
{

using namespace elisa;

constexpr std::uint64_t objectPages = 8;
constexpr std::uint64_t objectBytes = objectPages * pageSize;
constexpr std::uint64_t tenantPages = 3;
/** Peer GPA of the mirror window, above the peer's RAM. */
constexpr Gpa mirrorGpa = 1 * GiB;
constexpr unsigned steps = 96;

/** Raw leaf entry for @p gpa under @p eptp (0 when no table holds it). */
std::uint64_t
rawLeaf(const mem::HostMemory &memory, std::uint64_t eptp, Gpa gpa)
{
    Hpa table = ept::Ept::rootOfEptp(eptp);
    for (unsigned level = ept::eptLevels - 1; level > 0; --level) {
        const ept::EptEntry entry(
            memory.read64(table + ept::eptIndex(gpa, level) * 8));
        if (!entry.present())
            return 0;
        table = entry.addr();
    }
    return memory.read64(table + ept::eptIndex(gpa, 0) * 8);
}

const char *
stateName(std::optional<hv::Pager::FrameState> state)
{
    if (!state)
        return "-";
    switch (*state) {
      case hv::Pager::FrameState::Resident:
        return "R";
      case hv::Pager::FrameState::Swapped:
        return "S";
      case hv::Pager::FrameState::ZeroPending:
        return "Z";
    }
    return "?";
}

/** One way a managed frame is reached: a context and the page's GPA. */
struct View
{
    const char *name;
    std::uint64_t eptp;
    Gpa gpa;
};

struct Scenario
{
    Scenario()
        : hv(256 * MiB), pager(hv.enablePaging({5, 64})), svc(hv),
          managerVm(hv.createVm("manager", 16 * MiB)),
          guestVm(hv.createVm("guest", 16 * MiB)),
          peerVm(&hv.createVm("peer", 16 * MiB)),
          tenantVm(&hv.createVm("tenant", 2 * MiB)),
          manager(managerVm, svc), guest(guestVm, svc)
    {
        core::SharedFnTable fns;
        fns.push_back([](core::SubCallCtx &ctx) { // 0: read64
            return ctx.view.read<std::uint64_t>(ctx.obj + ctx.arg0);
        });
        fns.push_back([](core::SubCallCtx &ctx) { // 1: write64
            ctx.view.write<std::uint64_t>(ctx.obj + ctx.arg0, ctx.arg1);
            return std::uint64_t{0};
        });
        auto exported = manager.exportObject(core::ExportKey("obj"),
                                             objectBytes, std::move(fns));
        if (!exported)
            throw std::runtime_error("export failed");
        objGpa = exported->objectGpa;
        objHpa = managerVm.ramGpaToHpa(objGpa);
        pager.manageObject(managerVm, objHpa, objectBytes, true);

        auto attached = guest.tryAttach(core::ExportKey("obj"), manager);
        if (!attached.ok())
            throw std::runtime_error("attach failed");
        gate = attached.take();
        subEptp = *guestVm.vcpu(0).eptpList().lookup(gate.info().subIndex);

        attachMirror();

        tenantHpa = tenantVm->ramGpaToHpa(0);
        pager.manageRange(tenantVm->id(), tenantVm->defaultEpt(), 0,
                          tenantHpa, tenantPages * pageSize, true);
    }

    void
    attachMirror()
    {
        if (!peerVm->defaultEpt().mapRange(mirrorGpa, objHpa, objectBytes,
                                           ept::Perms::RW)) {
            throw std::runtime_error("mirror window collided");
        }
        pager.addMirror(peerVm->defaultEpt(), mirrorGpa, objHpa,
                        objectBytes);
        mirrored = true;
    }

    void
    detachMirror()
    {
        const std::uint64_t eptp = peerVm->defaultEpt().eptp();
        pager.dropMirror(eptp, mirrorGpa);
        peerVm->defaultEpt().unmapRange(mirrorGpa, objectBytes);
        hv.inveptAll(eptp);
        mirrored = false;
    }

    /** Every managed frame with the ways it is (or was) reached. */
    std::vector<std::pair<Hpa, std::vector<View>>>
    frames() const
    {
        std::vector<std::pair<Hpa, std::vector<View>>> out;
        const std::uint64_t mgr = managerVm.defaultEpt().eptp();
        for (std::uint64_t p = 0; p < objectPages; ++p) {
            std::vector<View> views{{"own", mgr, objGpa + p * pageSize},
                                    {"sub", subEptp,
                                     core::objectGpa + p * pageSize}};
            if (peerVm)
                views.push_back({"mir", peerVm->defaultEpt().eptp(),
                                 mirrorGpa + p * pageSize});
            out.emplace_back(objHpa + p * pageSize, std::move(views));
        }
        if (tenantVm) {
            for (std::uint64_t p = 0; p < tenantPages; ++p)
                out.push_back({tenantHpa + p * pageSize,
                               {{"own", tenantVm->defaultEpt().eptp(),
                                 p * pageSize}}});
        }
        return out;
    }

    /** Print the evictions of the last step and the whole state. */
    void
    report()
    {
        const auto all = frames();
        std::map<Hpa, std::optional<hv::Pager::FrameState>> now;
        for (const auto &[hpa, views] : all)
            now[hpa] = pager.frameState(hpa);
        for (const auto &[hpa, views] : all) {
            auto was = before.find(hpa);
            if (was != before.end() &&
                was->second == hv::Pager::FrameState::Resident &&
                now[hpa] == hv::Pager::FrameState::Swapped) {
                const View &own = views.front();
                const ept::EptEntry leaf(
                    rawLeaf(hv.memory(), own.eptp, own.gpa));
                std::printf("  evict %llx slot %llu\n",
                            (unsigned long long)hpa,
                            (unsigned long long)leaf.swapSlot());
            }
        }
        for (const auto &[hpa, views] : all) {
            std::printf("  %llx %s", (unsigned long long)hpa,
                        stateName(now[hpa]));
            for (const View &v : views) {
                const std::uint64_t raw = rawLeaf(hv.memory(), v.eptp,
                                                  v.gpa);
                std::printf(" %s=%llx", v.name, (unsigned long long)raw);
                const ept::EptEntry entry(raw);
                if (entry.presState() == ept::PresState::Swapped)
                    std::printf("(slot %llu)",
                                (unsigned long long)entry.swapSlot());
            }
            std::printf("\n");
        }
        std::printf("  resident=%llu swapped=%llu managed=%llu "
                    "slots=%llu\n",
                    (unsigned long long)pager.residentFrames(),
                    (unsigned long long)pager.swappedFrames(),
                    (unsigned long long)pager.managedFrames(),
                    (unsigned long long)pager.store().usedSlots());
        std::printf("  stats");
        for (const char *name :
             {"pager_faults", "pager_pages_swapped_in",
              "pager_pages_swapped_out", "pager_zero_fills",
              "pager_host_touches", "pager_page_in_errors",
              "pager_page_in_delays", "pager_page_in_kills",
              "exit_ept-violation"}) {
            std::printf(" %llu",
                        (unsigned long long)hv.stats().get(name));
        }
        std::printf("\n");
        before = std::move(now);
    }

    /**
     * Run @p guest_code on vCPU 0 of @p vm and print the value it
     * returns, or the exit that stopped it.
     */
    static void
    access(hv::Vm &vm, const std::function<std::uint64_t()> &guest_code)
    {
        std::uint64_t value = 0;
        const hv::GuestRunResult r =
            vm.run(0, [&] { value = guest_code(); });
        if (r.ok)
            std::printf(" -> %llx\n", (unsigned long long)value);
        else
            std::printf(" -> exit %s\n",
                        cpu::exitReasonToString(r.exit.reason));
    }

    void
    gateRead(std::uint64_t off)
    {
        std::printf(" gate read %llx", (unsigned long long)off);
        access(guestVm, [&] { return gate.call(0, off); });
    }

    void
    hostTouch(std::uint64_t off)
    {
        std::printf(" host touch %llx", (unsigned long long)off);
        const bool ok = pager.hostTouch(guestVm.vcpu(0), objHpa + off, 8);
        std::printf(" -> %s %llx\n", ok ? "ok" : "failed",
                    (unsigned long long)hv.memory().read64(objHpa + off));
    }

    void
    residentLimit(std::uint64_t limit)
    {
        std::printf(" resident limit %llu\n", (unsigned long long)limit);
        pager.setResidentLimit(limit);
    }

    void
    step(unsigned i, sim::Rng &rng)
    {
        std::printf("step %u:", i);
        const std::uint64_t page = rng.below(objectPages);
        const std::uint64_t off = page * pageSize + 8 * rng.below(4);
        switch (i) {
          case 30:
            std::printf(" detach mirror\n");
            detachMirror();
            return report();
          case 40:
            std::printf(" re-attach mirror\n");
            attachMirror();
            return report();
          case 60:
            std::printf(" destroy tenant\n");
            hv.destroyVm(tenantVm->id());
            tenantVm = nullptr;
            return report();
          case 80:
            std::printf(" destroy peer\n");
            hv.destroyVm(peerVm->id());
            peerVm = nullptr;
            mirrored = false;
            return report();
          default:
            break;
        }
        switch (rng.below(12)) {
          case 0:
            std::printf(" owner write %llx", (unsigned long long)off);
            access(managerVm, [&] {
                const std::uint64_t v = 0x1000 * i + page;
                cpu::GuestView(managerVm.vcpu(0))
                    .write<std::uint64_t>(objGpa + off, v);
                return v;
            });
            break;
          case 1:
            std::printf(" owner read %llx", (unsigned long long)off);
            access(managerVm, [&] {
                return cpu::GuestView(managerVm.vcpu(0))
                    .read<std::uint64_t>(objGpa + off);
            });
            break;
          case 2:
            std::printf(" gate write %llx", (unsigned long long)off);
            access(guestVm, [&] {
                const std::uint64_t v = 0x2000 * i + page;
                gate.call(1, off, v);
                return v;
            });
            break;
          case 3:
          case 4:
          case 11:
            gateRead(off);
            break;
          case 5:
            if (!mirrored) {
                hostTouch(off);
                break;
            }
            std::printf(" mirror read %llx", (unsigned long long)off);
            access(*peerVm, [&] {
                return cpu::GuestView(peerVm->vcpu(0))
                    .read<std::uint64_t>(mirrorGpa + off);
            });
            break;
          case 6:
            hostTouch(off);
            break;
          case 7:
            if (!tenantVm) {
                residentLimit(2 + rng.below(6));
                break;
            }
            {
                const Gpa gpa = rng.below(tenantPages) * pageSize;
                std::printf(" tenant write %llx", (unsigned long long)gpa);
                access(*tenantVm, [&] {
                    cpu::GuestView(tenantVm->vcpu(0))
                        .write<std::uint64_t>(gpa, i);
                    return std::uint64_t{i};
                });
            }
            break;
          case 8:
            residentLimit(1 + rng.below(7));
            break;
          case 9: {
            const std::uint64_t target = rng.below(4);
            std::printf(" manager balloon target %llu\n",
                        (unsigned long long)target);
            pager.setBalloonTarget(managerVm.id(), target);
            break;
          }
          case 10:
            if (!tenantVm) {
                gateRead(off);
                break;
            }
            {
                const std::uint64_t target = rng.below(3);
                std::printf(" tenant balloon target %llu\n",
                            (unsigned long long)target);
                pager.setBalloonTarget(tenantVm->id(), target);
            }
            break;
        }
        report();
    }

    hv::Hypervisor hv;
    hv::Pager &pager;
    core::ElisaService svc;
    hv::Vm &managerVm;
    hv::Vm &guestVm;
    hv::Vm *peerVm;
    hv::Vm *tenantVm;
    core::ElisaManager manager;
    core::ElisaGuest guest;
    core::Gate gate;
    Gpa objGpa = 0;
    Hpa objHpa = 0;
    Hpa tenantHpa = 0;
    std::uint64_t subEptp = 0;
    bool mirrored = false;
    std::map<Hpa, std::optional<hv::Pager::FrameState>> before;
};

} // anonymous namespace

int
main()
{
    Scenario s;
    sim::Rng rng(22);
    std::printf("setup:\n");
    s.report();
    for (unsigned i = 0; i < steps; ++i)
        s.step(i, rng);
    return 0;
}
