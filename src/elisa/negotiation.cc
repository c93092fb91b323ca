#include "elisa/negotiation.hh"

#include <cstring>

#include "base/logging.hh"
#include "base/strutil.hh"
#include "cpu/guest_view.hh"

namespace elisa::core
{

namespace
{

/** Clamp-copy a name into a WireRequest's fixed field. */
void
copyName(char (&dst)[52], const std::string &src)
{
    const std::size_t n = std::min(src.size(), sizeof(dst) - 1);
    std::memcpy(dst, src.data(), n);
    dst[n] = '\0';
}

// Negotiation trace points. One async span per request, keyed by its
// RequestId, runs from AttachRequest to the Query that observes a
// terminal state; outcome instants land inside it.
//
// Capability trace points. One async span per *delegated* grant, keyed
// by its CapId, runs from Delegate to teardown; redeems land inside it
// as instants. Root grants piggyback on the attach_request span and
// emit nothing of their own.
using sim::TraceName;

} // anonymous namespace

ElisaService::ElisaService(hv::Hypervisor &hv) : hyper(hv)
{
    busyId = hv.stats().id("elisa_busy");
    timeoutsId = hv.stats().id("elisa_timeouts");
    orphanDeniedId = hv.stats().id("elisa_orphan_denied");
    idempotentDetachesId = hv.stats().id("elisa_idempotent_detaches");
    idempotentRevokesId = hv.stats().id("elisa_idempotent_revokes");
    autoRevokesId = hv.stats().id("elisa_auto_revokes");
    attachBuildFaultsId = hv.stats().id("elisa_attach_build_faults");
    delegationsId = hv.stats().id("elisa_delegations");
    redeemsId = hv.stats().id("elisa_redeems");
    capRevokesId = hv.stats().id("elisa_cap_revokes");
    capExpiriesId = hv.stats().id("elisa_cap_expiries");
    grantTeardownsId = hv.stats().id("elisa_grant_teardowns");
    widenRefusedId = hv.stats().id("elisa_cap_widen_refused");
    grantExhaustedId = hv.stats().id("elisa_grant_exhausted");
    registerHandlers();
    hv.addVmDestroyHook([this](VmId vm) { onVmDestroyed(vm); });
}

void
ElisaService::setQueueCap(std::size_t cap)
{
    panic_if(cap == 0, "request queue cap must be positive");
    maxQueuedPerManager = cap;
}

void
ElisaService::retireAttachment(
    std::map<AttachmentId, std::unique_ptr<Attachment>>::iterator it)
{
    retiredAttachments[it->first] = it->second->guestVm();
    if (retiredAttachments.size() > retiredCap)
        retiredAttachments.erase(retiredAttachments.begin());
    attachments.erase(it);
}

void
ElisaService::retireExport(ExportId id, VmId owner)
{
    retiredExports[id] = owner;
    if (retiredExports.size() > retiredCap)
        retiredExports.erase(retiredExports.begin());
}

CapId
ElisaService::mintGrant(CapId parent, ExportId export_id, VmId issuer,
                        VmId holder, std::uint64_t offset,
                        std::uint64_t bytes, ept::Perms perms,
                        SimNs expires_ns)
{
    const CapId id = hyper.grants().create(parent, holder);
    CapGrant g;
    g.id = id;
    g.parent = parent;
    g.exportId = export_id;
    g.issuer = issuer;
    g.holder = holder;
    g.offset = offset;
    g.bytes = bytes;
    g.perms = perms;
    g.expiresNs = expires_ns;
    grants.emplace(id, g);
    return id;
}

bool
ElisaService::teardownGrant(CapId id, CapTeardown reason,
                            cpu::Vcpu *actor)
{
    if (!grants.contains(id)) {
        // Idempotent: a grant that once existed reports success on a
        // replayed teardown; one that never did reports failure.
        return retiredGrants.contains(id);
    }

    // The hypervisor's table dictates the walk: children before their
    // parent, in creation order, so the teardown sequence is identical
    // no matter which of the revocation paths started it.
    const std::vector<CapId> order = hyper.grants().subtree(id);
    for (const CapId cid : order) {
        auto git = grants.find(cid);
        panic_if(git == grants.end(),
                 "grant %llu in hypervisor table but not in service",
                 (unsigned long long)cid);
        CapGrant &g = git->second;

        // Revoke reachability first: the Attachment destructor clears
        // both EPTP-list entries and flushes cached translations
        // before any frame or bookkeeping is released.
        if (g.attachment != 0) {
            auto at = attachments.find(g.attachment);
            if (at != attachments.end())
                retireAttachment(at);
            attachmentGrant.erase(g.attachment);
        }

        if (actor != nullptr && g.parent != invalidCapId) {
            if (sim::Tracer *tr = hyper.tracer()) {
                tr->asyncEnd(sim::SpanCat::Negotiation,
                             TraceName::Capability, cid, actor->id(),
                             actor->clock().now(),
                             static_cast<std::uint64_t>(reason));
            }
        }

        retiredGrants[cid] = {g.holder, g.issuer};
        if (retiredGrants.size() > retiredCap)
            retiredGrants.erase(retiredGrants.begin());
        grants.erase(git);
        hyper.grants().erase(cid);
        hyper.stats().inc(grantTeardownsId);
    }

    switch (reason) {
      case CapTeardown::Revoke:
        hyper.stats().inc(capRevokesId);
        break;
      case CapTeardown::Expire:
        hyper.stats().inc(capExpiriesId);
        break;
      case CapTeardown::VmDeath:
        hyper.stats().inc(autoRevokesId);
        break;
      case CapTeardown::Detach:
      case CapTeardown::ExportGone:
        break;
    }
    return true;
}

bool
ElisaService::expireCapability(CapId id, cpu::Vcpu &actor)
{
    return teardownGrant(id, CapTeardown::Expire, &actor);
}

void
ElisaService::teardownExportGrants(ExportId id, cpu::Vcpu *actor)
{
    // Snapshot the root ids first: teardown mutates the map, and every
    // non-root grant of the export lives in some root's subtree.
    std::vector<CapId> roots;
    for (const auto &[cid, g] : grants) {
        if (g.exportId == id && g.parent == invalidCapId)
            roots.push_back(cid);
    }
    for (const CapId root : roots)
        teardownGrant(root, CapTeardown::ExportGone, actor);
}

void
ElisaService::denyPendingRequestsFor(const std::string &name)
{
    for (auto &[rid, req] : requests) {
        if (req.state == RequestState::Pending && req.name == name) {
            req.state = RequestState::Denied;
            hyper.stats().inc(orphanDeniedId);
        }
    }
}

void
ElisaService::onVmDestroyed(VmId vm)
{
    // 1. Grants held by the dying guest — each teardown is transitive,
    //    so delegations the dying VM handed onward die with it (a
    //    delegated grant never outlives its delegator). Attachments
    //    are torn down as their grants go; idempotent teardownGrant
    //    makes the snapshot order irrelevant when one held grant sits
    //    inside another's subtree.
    std::vector<CapId> held;
    for (const auto &[cid, g] : grants) {
        if (g.holder == vm)
            held.push_back(cid);
    }
    for (const CapId cid : held)
        teardownGrant(cid, CapTeardown::VmDeath);
    // 2. Exports owned by the dying manager — revoke them fully: every
    //    grant tree rooted at the export is torn down (other guests'
    //    EPTP-list entries vanish), and any request still Pending on
    //    one of the orphaned exports is denied so its guest cannot
    //    hang waiting for a manager that no longer exists.
    for (auto it = exports.begin(); it != exports.end();) {
        if (it->second->managerVm() == vm) {
            Export *exp = it->second.get();
            denyPendingRequestsFor(exp->name());
            teardownExportGrants(it->first, nullptr);
            for (auto at = attachments.begin();
                 at != attachments.end();) {
                if (&at->second->exportRecord() == exp)
                    retireAttachment(at++);
                else
                    ++at;
            }
            retireExport(it->first, vm);
            it = exports.erase(it);
            hyper.stats().inc(autoRevokesId);
        } else {
            ++it;
        }
    }
    // 3. Manager registration, staged code, the attachment counter
    //    and pending requests.
    managers.erase(vm);
    stagedFns.erase(vm);
    slotCounters.erase(vm);
    for (auto it = requests.begin(); it != requests.end();) {
        if (it->second.guestVm == vm)
            it = requests.erase(it);
        else
            ++it;
    }
    hyper.stats().inc("elisa_vm_teardowns");
}

ElisaService::~ElisaService()
{
    // Grants reference attachments, attachments reference exports;
    // unwind in that order. The grant walk also empties the
    // hypervisor's table, children before parents.
    std::vector<CapId> roots;
    for (const auto &[cid, g] : grants) {
        if (g.parent == invalidCapId)
            roots.push_back(cid);
    }
    for (const CapId root : roots)
        teardownGrant(root, CapTeardown::ExportGone);
    attachments.clear();
    exports.clear();
}

void
ElisaService::stageFunctions(VmId manager_vm, SharedFnTable fns)
{
    stagedFns[manager_vm] = std::move(fns);
}

Export *
ElisaService::findExport(const std::string &name)
{
    for (auto &[id, exp] : exports) {
        if (exp->name() == name)
            return exp.get();
    }
    return nullptr;
}

Attachment *
ElisaService::attachment(AttachmentId id)
{
    auto it = attachments.find(id);
    return it == attachments.end() ? nullptr : it->second.get();
}

bool
ElisaService::revokeExport(const std::string &name)
{
    Export *exp = findExport(name);
    if (!exp)
        return false;
    denyPendingRequestsFor(name);
    teardownExportGrants(exp->id(), nullptr);
    for (auto it = attachments.begin(); it != attachments.end();) {
        if (&it->second->exportRecord() == exp)
            retireAttachment(it++);
        else
            ++it;
    }
    retireExport(exp->id(), exp->managerVm());
    exports.erase(exp->id());
    hyper.stats().inc("elisa_revokes");
    return true;
}

std::string
ElisaService::dumpState() const
{
    std::string out = "=== ELISA service state ===\n";
    out += detail::format("managers: %zu\n", managers.size());
    for (const auto &[vm, queue] : managers) {
        out += detail::format("  VM %u (%zu queued requests)\n", vm,
                              queue.size());
    }
    out += detail::format("exports: %zu\n", exports.size());
    for (const auto &[id, exp] : exports) {
        out += detail::format(
            "  #%u '%s' manager=%u size=%s perms=%s attachments=%u\n",
            id, exp->name().c_str(), exp->managerVm(),
            humanBytes(exp->objectBytes()).c_str(),
            ept::permsToString(exp->objectPerms()).c_str(),
            exp->liveAttachments());
    }
    out += detail::format("attachments: %zu\n", attachments.size());
    for (const auto &[id, attach] : attachments) {
        out += detail::format(
            "  #%u export='%s' guest=%u vcpu=%u gate@%u sub@%u\n", id,
            attach->exportRecord().name().c_str(), attach->guestVm(),
            attach->vcpuIndex(), attach->info().gateIndex,
            attach->info().subIndex);
    }
    out += detail::format("grants: %zu\n", grants.size());
    for (const auto &[id, g] : grants) {
        const std::string origin =
            g.parent == invalidCapId
                ? "root"
                : detail::format("parent=%llu",
                                 (unsigned long long)g.parent);
        out += detail::format(
            "  #%llu %s export=%u holder=%u depth=%u "
            "window=[%llu+%llu] perms=%s%s%s\n",
            (unsigned long long)id, origin.c_str(), g.exportId,
            g.holder, hyper.grants().depthOf(id),
            (unsigned long long)g.offset, (unsigned long long)g.bytes,
            ept::permsToString(g.perms).c_str(),
            g.expiresNs != 0 ? " expiring" : "",
            g.attachment != 0 ? " redeemed" : "");
    }
    std::size_t pending = 0;
    for (const auto &[id, req] : requests)
        pending += req.state == RequestState::Pending ? 1 : 0;
    out += detail::format("requests: %zu (%zu pending)\n",
                          requests.size(), pending);
    return out;
}

void
ElisaService::registerHandlers()
{
    hyper.setHypercallName(
        static_cast<std::uint64_t>(ElisaHc::RegisterManager),
        "hc_register_manager");
    hyper.setHypercallName(static_cast<std::uint64_t>(ElisaHc::Export),
                           "hc_export");
    hyper.setHypercallName(
        static_cast<std::uint64_t>(ElisaHc::NextRequest),
        "hc_next_request");
    hyper.setHypercallName(static_cast<std::uint64_t>(ElisaHc::Approve),
                           "hc_approve");
    hyper.setHypercallName(static_cast<std::uint64_t>(ElisaHc::Deny),
                           "hc_deny");
    hyper.setHypercallName(
        static_cast<std::uint64_t>(ElisaHc::AttachRequest),
        "hc_attach_request");
    hyper.setHypercallName(static_cast<std::uint64_t>(ElisaHc::Query),
                           "hc_query");
    hyper.setHypercallName(static_cast<std::uint64_t>(ElisaHc::Detach),
                           "hc_detach");
    hyper.setHypercallName(static_cast<std::uint64_t>(ElisaHc::Revoke),
                           "hc_revoke");
    hyper.setHypercallName(
        static_cast<std::uint64_t>(ElisaHc::Delegate), "hc_delegate");
    hyper.setHypercallName(static_cast<std::uint64_t>(ElisaHc::Redeem),
                           "hc_redeem");
    hyper.setHypercallName(
        static_cast<std::uint64_t>(ElisaHc::CapRevoke),
        "hc_cap_revoke");

    auto reg = [this](ElisaHc nr, auto member) {
        hyper.registerHypercall(
            static_cast<std::uint64_t>(nr),
            [this, member](cpu::Vcpu &vcpu,
                           const cpu::HypercallArgs &args) {
                return (this->*member)(vcpu, args);
            });
    };

    hyper.registerHypercall(
        static_cast<std::uint64_t>(ElisaHc::RegisterManager),
        [this](cpu::Vcpu &vcpu, const cpu::HypercallArgs &) {
            return hcRegisterManager(vcpu);
        });
    reg(ElisaHc::Export, &ElisaService::hcExport);
    reg(ElisaHc::NextRequest, &ElisaService::hcNextRequest);
    reg(ElisaHc::Approve, &ElisaService::hcApprove);
    reg(ElisaHc::Deny, &ElisaService::hcDeny);
    reg(ElisaHc::AttachRequest, &ElisaService::hcAttachRequest);
    reg(ElisaHc::Query, &ElisaService::hcQuery);
    reg(ElisaHc::Detach, &ElisaService::hcDetach);
    reg(ElisaHc::Revoke, &ElisaService::hcRevoke);
    reg(ElisaHc::Delegate, &ElisaService::hcDelegate);
    reg(ElisaHc::Redeem, &ElisaService::hcRedeem);
    reg(ElisaHc::CapRevoke, &ElisaService::hcCapRevoke);
}

std::uint64_t
ElisaService::hcRegisterManager(cpu::Vcpu &vcpu)
{
    managers.try_emplace(vcpu.vm());
    hyper.stats().inc("elisa_managers");
    return 0;
}

std::uint64_t
ElisaService::hcExport(cpu::Vcpu &vcpu, const cpu::HypercallArgs &args)
{
    const VmId caller = vcpu.vm();
    if (!managers.contains(caller))
        return hv::hcError;

    auto staged = stagedFns.find(caller);
    if (staged == stagedFns.end() || staged->second.empty())
        return hv::hcError;

    // args: name_gpa, name_len | perms<<32, obj_gpa, obj_bytes
    const Gpa name_gpa = args.arg0;
    const std::uint64_t name_len = args.arg1 & 0xffffffffull;
    const auto perms =
        static_cast<ept::Perms>((args.arg1 >> 32) & 0x7);
    const Gpa obj_gpa = args.arg2;
    const std::uint64_t obj_bytes = args.arg3;

    if (name_len == 0 || name_len > 51 || obj_bytes == 0 ||
        !isPageAligned(obj_bytes) || !isPageAligned(obj_gpa)) {
        return hv::hcError;
    }

    std::string name(name_len, '\0');
    cpu::GuestView view(vcpu);
    view.readBytes(name_gpa, name.data(), name_len);
    if (findExport(name))
        return hv::hcError;

    const Hpa obj_hpa = hyper.vm(caller).ramGpaToHpa(obj_gpa);

    // Host work: sub-context bookkeeping is charged to the caller.
    vcpu.clock().advance(hyper.cost().subContextCreateNs);

    const ExportId id = nextExportId++;
    exports.emplace(id, std::make_unique<Export>(
                            hyper, id, name, caller, obj_hpa, obj_bytes,
                            perms == ept::Perms::None ? ept::Perms::RW
                                                      : perms,
                            std::move(staged->second)));
    stagedFns.erase(staged);
    hyper.stats().inc("elisa_exports");
    return id;
}

std::uint64_t
ElisaService::hcNextRequest(cpu::Vcpu &vcpu,
                            const cpu::HypercallArgs &args)
{
    auto mgr = managers.find(vcpu.vm());
    if (mgr == managers.end())
        return hv::hcError;
    vcpu.clock().advance(hyper.cost().negotiationHopNs);

    auto &queue = mgr->second;
    while (!queue.empty()) {
        const RequestId rid = queue.front();
        auto req = requests.find(rid);
        if (req == requests.end() ||
            req->second.state != RequestState::Pending) {
            queue.pop_front();
            continue;
        }
        WireRequest wire;
        wire.id = req->second.id;
        wire.guestVm = req->second.guestVm;
        wire.vcpuIndex = req->second.vcpuIndex;
        copyName(wire.name, req->second.name);
        cpu::GuestView view(vcpu);
        view.write(args.arg0, wire);
        queue.pop_front();
        return 1;
    }
    return 0;
}

std::uint64_t
ElisaService::hcApprove(cpu::Vcpu &vcpu, const cpu::HypercallArgs &args)
{
    if (!managers.contains(vcpu.vm()))
        return hv::hcError;
    auto req_it = requests.find(static_cast<RequestId>(args.arg0));
    if (req_it == requests.end() ||
        req_it->second.state != RequestState::Pending) {
        return hv::hcError;
    }
    Request &req = req_it->second;

    Export *exp = findExport(req.name);
    if (!exp || exp->managerVm() != vcpu.vm())
        return hv::hcError;

    // The requesting guest may have died between AttachRequest and this
    // Approve (its request is normally reaped with it, but a deferred
    // teardown can leave a window). Refuse rather than build an
    // attachment on a corpse.
    if (!hyper.hasVm(req.guestVm)) {
        req.state = RequestState::Denied;
        return hv::hcError;
    }

    // Injected attach-construction failure (frame exhaustion, EPT
    // allocation failure): the guest observes a denial, never a hang.
    if (sim::FaultPlan *plan = hyper.faultPlan()) {
        const auto fault = plan->onAttachBuild(req.guestVm);
        if (fault.action != sim::FaultAction::None) {
            hyper.stats().inc(attachBuildFaultsId);
            req.state = RequestState::Denied;
            return hv::hcError;
        }
    }

    // Optional per-client permission narrowing in arg1 (0 = the
    // export's full permissions). Escalation beyond the export's
    // rights is refused.
    ept::Perms granted = exp->objectPerms();
    if (args.arg1 != 0) {
        const auto asked = static_cast<ept::Perms>(args.arg1 & 0x7);
        if (!ept::permits(exp->objectPerms(), asked))
            return hv::hcError;
        granted = asked;
    }

    hv::Vm &guest = hyper.vm(req.guestVm);

    // A full EPTP list would abort attachment construction mid-way;
    // refuse cleanly while both contexts can still be installed.
    if (req.vcpuIndex >= guest.vcpuCount() ||
        guest.vcpu(req.vcpuIndex).eptpList().validCount() + 2 >
            ept::eptpListSize) {
        req.state = RequestState::Denied;
        return hv::hcError;
    }

    const unsigned slot = slotCounters[guest.id()]++;

    const AttachmentId aid = nextAttachmentId++;
    auto attach = std::make_unique<Attachment>(hyper, aid, *exp, guest,
                                               req.vcpuIndex, slot,
                                               granted);

    // Charge the manager for the context construction it instructed:
    // two EPT hierarchies plus one PTE write per mapped page.
    const auto &cost = hyper.cost();
    const std::uint64_t mapped_pages =
        attach->gateEpt().mappedPages() + attach->subEpt().mappedPages();
    vcpu.clock().advance(2 * cost.subContextCreateNs +
                         mapped_pages * cost.eptMapPageNs);

    // Every attachment is backed by a grant: the root of the export's
    // delegation tree for this client. The guest can delegate narrowed
    // views of it peer-to-peer without coming back here.
    const CapId root =
        mintGrant(invalidCapId, exp->id(), exp->managerVm(),
                  req.guestVm, 0, exp->objectBytes(), granted, 0);
    grants[root].attachment = aid;
    attachmentGrant[aid] = root;
    attach->bindGrant(root, 0);

    req.state = RequestState::Approved;
    req.info = attach->info();
    attachments.emplace(aid, std::move(attach));
    return 0;
}

std::uint64_t
ElisaService::hcDeny(cpu::Vcpu &vcpu, const cpu::HypercallArgs &args)
{
    if (!managers.contains(vcpu.vm()))
        return hv::hcError;
    auto req_it = requests.find(static_cast<RequestId>(args.arg0));
    if (req_it == requests.end() ||
        req_it->second.state != RequestState::Pending) {
        return hv::hcError;
    }
    req_it->second.state = RequestState::Denied;
    return 0;
}

std::uint64_t
ElisaService::hcAttachRequest(cpu::Vcpu &vcpu,
                              const cpu::HypercallArgs &args)
{
    const std::uint64_t name_len = args.arg1;
    if (name_len == 0 || name_len > 51)
        return hv::hcError;
    std::string name(name_len, '\0');
    cpu::GuestView view(vcpu);
    view.readBytes(args.arg0, name.data(), name_len);

    Export *exp = findExport(name);
    if (!exp)
        return hv::hcError;

    // A request for a vCPU the calling VM does not have can never be
    // served; reject it before it occupies queue space.
    const auto vcpu_index = static_cast<std::uint32_t>(args.arg2);
    if (vcpu_index >= hyper.vm(vcpu.vm()).vcpuCount())
        return hv::hcError;

    auto mgr = managers.find(exp->managerVm());
    panic_if(mgr == managers.end(), "export without manager");

    // Bounded request queue: a slow or stuck manager must not let a
    // guest grow host-side state without limit. Busy is a *refusal*,
    // distinct from an error — back off and retry.
    if (mgr->second.size() >= maxQueuedPerManager) {
        hyper.stats().inc(busyId);
        return hv::hcBusy;
    }

    vcpu.clock().advance(hyper.cost().negotiationHopNs);

    const RequestId rid = nextRequestId++;
    Request req;
    req.id = rid;
    req.guestVm = vcpu.vm();
    req.vcpuIndex = vcpu_index;
    req.name = std::move(name);
    req.createdNs = vcpu.clock().now();
    requests.emplace(rid, std::move(req));
    mgr->second.push_back(rid);
    if (sim::Tracer *tr = hyper.tracer()) {
        tr->asyncBegin(sim::SpanCat::Negotiation, TraceName::AttachRequest,
                       rid, vcpu.id(), vcpu.clock().now(), vcpu.vm());
    }
    return rid;
}

std::uint64_t
ElisaService::hcQuery(cpu::Vcpu &vcpu, const cpu::HypercallArgs &args)
{
    auto req_it = requests.find(static_cast<RequestId>(args.arg0));
    if (req_it == requests.end() ||
        req_it->second.guestVm != vcpu.vm()) {
        return hv::hcError;
    }
    vcpu.clock().advance(hyper.cost().negotiationHopNs);

    Request &req = req_it->second;

    // Per-request timeout: a request left Pending past the bound (its
    // manager is stuck, dead, or its reply was lost) is reaped and the
    // guest observes TimedOut — a defined error, never a hang.
    if (req.state == RequestState::Pending &&
        vcpu.clock().now() >
            req.createdNs + hyper.cost().negotiationTimeoutNs) {
        req.state = RequestState::TimedOut;
        hyper.stats().inc(timeoutsId);
    }

    WireAttachResult wire;
    wire.state = static_cast<std::uint32_t>(req.state);
    wire.info = req.info;
    cpu::GuestView view(vcpu);
    view.write(args.arg1, wire);

    if (sim::Tracer *tr = hyper.tracer()) {
        // The request's async span ends at the Query that observes a
        // terminal state, with an outcome instant inside it. (Requests
        // reaped by VM teardown are never queried; their spans stay
        // open in the trace, which is the honest rendering.)
        const SimNs now = vcpu.clock().now();
        const RequestId rid = req.id;
        switch (req.state) {
          case RequestState::Pending:
            tr->asyncInstant(sim::SpanCat::Negotiation,
                             TraceName::QueryPending, rid, vcpu.id(), now);
            break;
          case RequestState::Approved:
            tr->asyncInstant(sim::SpanCat::Negotiation,
                             TraceName::Approved, rid, vcpu.id(), now,
                             req.info.attachment);
            break;
          case RequestState::Denied:
            tr->asyncInstant(sim::SpanCat::Negotiation,
                             TraceName::Denied, rid, vcpu.id(), now);
            break;
          case RequestState::TimedOut:
            tr->asyncInstant(sim::SpanCat::Negotiation,
                             TraceName::TimedOut, rid, vcpu.id(),
                             now);
            break;
        }
        if (req.state != RequestState::Pending) {
            tr->asyncEnd(sim::SpanCat::Negotiation,
                         TraceName::AttachRequest, rid, vcpu.id(), now,
                         wire.state);
        }
    }

    if (req.state != RequestState::Pending)
        requests.erase(req_it);
    return static_cast<std::uint64_t>(wire.state);
}

std::uint64_t
ElisaService::hcDetach(cpu::Vcpu &vcpu, const cpu::HypercallArgs &args)
{
    const auto aid = static_cast<AttachmentId>(args.arg0);
    auto it = attachments.find(aid);
    if (it == attachments.end()) {
        // Idempotent replay: detaching an attachment this same guest
        // already detached (duplicated hypercall, retry after a lost
        // reply) succeeds without side effects.
        auto retired = retiredAttachments.find(aid);
        if (retired != retiredAttachments.end() &&
            retired->second == vcpu.vm()) {
            hyper.stats().inc(idempotentDetachesId);
            return 0;
        }
        return hv::hcError;
    }
    if (it->second->guestVm() != vcpu.vm())
        return hv::hcError;
    vcpu.clock().advance(hyper.cost().negotiationHopNs);
    // Detach is grant teardown by another name: the attachment's grant
    // subtree — including any delegation the guest handed onward — is
    // torn down in the one canonical order.
    const CapId grant = it->second->grant();
    panic_if(grant == invalidCapId, "attachment %u without a grant",
             aid);
    teardownGrant(grant, CapTeardown::Detach, &vcpu);
    hyper.stats().inc("elisa_detaches");
    return 0;
}

std::uint64_t
ElisaService::hcRevoke(cpu::Vcpu &vcpu, const cpu::HypercallArgs &args)
{
    // Only the owning manager may revoke an export; every client's
    // attachment is torn down (their next VMFUNC faults).
    const auto eid = static_cast<ExportId>(args.arg0);
    auto it = exports.find(eid);
    if (it == exports.end()) {
        // Idempotent replay of a revoke this manager already issued.
        auto retired = retiredExports.find(eid);
        if (retired != retiredExports.end() &&
            retired->second == vcpu.vm()) {
            hyper.stats().inc(idempotentRevokesId);
            return 0;
        }
        return hv::hcError;
    }
    if (it->second->managerVm() != vcpu.vm())
        return hv::hcError;
    vcpu.clock().advance(hyper.cost().negotiationHopNs);
    const std::string name = it->second->name();
    return revokeExport(name) ? 0 : hv::hcError;
}

std::uint64_t
ElisaService::hcDelegate(cpu::Vcpu &vcpu,
                         const cpu::HypercallArgs &args)
{
    // args: cap_id, target_vm | perms<<32, off_pages | len_pages<<32,
    // expiry_ns. The whole spec travels in registers — a delegation
    // never touches guest memory and never involves the manager.
    auto git = grants.find(static_cast<CapId>(args.arg0));
    if (git == grants.end())
        return hv::hcError;
    CapGrant &g = git->second;
    if (g.holder != vcpu.vm())
        return hv::hcError;

    // Lazy expiry: the first control operation past the lapse instant
    // observes the grant (and its subtree) disappear.
    if (g.expiresNs != 0 && vcpu.clock().now() >= g.expiresNs) {
        teardownGrant(g.id, CapTeardown::Expire, &vcpu);
        return hv::hcError;
    }

    if (hyper.grants().depthOf(g.id) + 1 >= maxDelegationDepth)
        return hv::hcError;

    const auto target = static_cast<VmId>(args.arg1 & 0xffffffffull);
    if (!hyper.hasVm(target))
        return hv::hcError;

    // Permissions only ever narrow, checked at every hop: a delegatee
    // re-delegating cannot win back what its own grant lost.
    const auto asked =
        static_cast<ept::Perms>((args.arg1 >> 32) & 0x7);
    const ept::Perms child_perms =
        asked == ept::Perms::None ? g.perms : asked;
    if (!ept::permits(g.perms, child_perms)) {
        hyper.stats().inc(widenRefusedId);
        return hv::hcError;
    }

    // Window: page counts relative to *this* grant's window; the
    // narrowed child window must sit entirely inside it.
    const std::uint64_t off =
        (args.arg2 & 0xffffffffull) * pageSize;
    std::uint64_t len = (args.arg2 >> 32) * pageSize;
    if (off >= g.bytes)
        return hv::hcError;
    if (len == 0)
        len = g.bytes - off;
    if (len > g.bytes - off)
        return hv::hcError;

    // Expiry only ever tightens: inherit the parent's, or lapse
    // earlier. A bound already in the past is a degenerate grant.
    SimNs expires = args.arg3 != 0 ? args.arg3 : g.expiresNs;
    if (g.expiresNs != 0 && (expires == 0 || expires > g.expiresNs))
        expires = g.expiresNs;
    if (expires != 0 && expires <= vcpu.clock().now())
        return hv::hcError;

    // Injected grant-table exhaustion at the registration point.
    if (sim::FaultPlan *plan = hyper.faultPlan()) {
        const auto fault = plan->onCapability(vcpu.vm());
        if (fault.action != sim::FaultAction::None) {
            hyper.stats().inc(grantExhaustedId);
            return hv::hcError;
        }
    }

    vcpu.clock().advance(hyper.cost().negotiationHopNs);

    const CapId child =
        mintGrant(g.id, g.exportId, vcpu.vm(), target, g.offset + off,
                  len, child_perms, expires);
    hyper.stats().inc(delegationsId);
    if (sim::Tracer *tr = hyper.tracer()) {
        tr->asyncBegin(sim::SpanCat::Negotiation, TraceName::Capability,
                       child, vcpu.id(), vcpu.clock().now(),
                       args.arg0, target);
    }
    return child;
}

std::uint64_t
ElisaService::hcRedeem(cpu::Vcpu &vcpu, const cpu::HypercallArgs &args)
{
    // args: cap_id, result_gpa, vcpu_index. Writes a WireAttachResult
    // exactly like Query does, so the guest-side plumbing is shared.
    auto git = grants.find(static_cast<CapId>(args.arg0));
    if (git == grants.end())
        return hv::hcError;
    CapGrant &g = git->second;
    if (g.holder != vcpu.vm())
        return hv::hcError;

    if (g.expiresNs != 0 && vcpu.clock().now() >= g.expiresNs) {
        teardownGrant(g.id, CapTeardown::Expire, &vcpu);
        return hv::hcError;
    }

    if (g.attachment != 0) {
        // Idempotent replay (duplicated hypercall, retry after a lost
        // reply): report the attachment already built.
        auto at = attachments.find(g.attachment);
        panic_if(at == attachments.end(),
                 "grant %llu redeemed by a vanished attachment",
                 (unsigned long long)g.id);
        WireAttachResult wire;
        wire.state =
            static_cast<std::uint32_t>(RequestState::Approved);
        wire.info = at->second->info();
        cpu::GuestView view(vcpu);
        view.write(args.arg1, wire);
        return 0;
    }

    auto exp_it = exports.find(g.exportId);
    panic_if(exp_it == exports.end(),
             "grant %llu outlived export %u",
             (unsigned long long)g.id, g.exportId);
    Export &exp = *exp_it->second;

    hv::Vm &guest = hyper.vm(vcpu.vm());
    const auto vcpu_index = static_cast<std::uint32_t>(args.arg2);
    if (vcpu_index >= guest.vcpuCount() ||
        guest.vcpu(vcpu_index).eptpList().validCount() + 2 >
            ept::eptpListSize) {
        return hv::hcError;
    }

    // Same construction-failure injection point as a manager-approved
    // attach: the redeemer observes an error, never a hang.
    if (sim::FaultPlan *plan = hyper.faultPlan()) {
        const auto fault = plan->onAttachBuild(vcpu.vm());
        if (fault.action != sim::FaultAction::None) {
            hyper.stats().inc(attachBuildFaultsId);
            return hv::hcError;
        }
    }

    const unsigned slot = slotCounters[guest.id()]++;
    const AttachmentId aid = nextAttachmentId++;
    auto attach = std::make_unique<Attachment>(
        hyper, aid, exp, guest, vcpu_index, slot, g.perms, g.offset,
        g.bytes);
    attach->bindGrant(g.id, g.expiresNs);

    // The redeemer pays for the context construction it asked for —
    // the same bill a manager foots on Approve.
    const auto &cost = hyper.cost();
    const std::uint64_t mapped_pages =
        attach->gateEpt().mappedPages() + attach->subEpt().mappedPages();
    vcpu.clock().advance(2 * cost.subContextCreateNs +
                         mapped_pages * cost.eptMapPageNs);

    g.attachment = aid;
    attachmentGrant[aid] = g.id;

    WireAttachResult wire;
    wire.state = static_cast<std::uint32_t>(RequestState::Approved);
    wire.info = attach->info();
    cpu::GuestView view(vcpu);
    view.write(args.arg1, wire);

    hyper.stats().inc(redeemsId);
    if (sim::Tracer *tr = hyper.tracer()) {
        tr->asyncInstant(sim::SpanCat::Negotiation,
                         TraceName::CapRedeemed, g.id, vcpu.id(),
                         vcpu.clock().now(), aid);
    }
    attachments.emplace(aid, std::move(attach));
    return 0;
}

std::uint64_t
ElisaService::hcCapRevoke(cpu::Vcpu &vcpu,
                          const cpu::HypercallArgs &args)
{
    const auto id = static_cast<CapId>(args.arg0);
    auto git = grants.find(id);
    if (git == grants.end()) {
        // Idempotent replay of a revoke a party to this grant already
        // completed.
        auto retired = retiredGrants.find(id);
        if (retired != retiredGrants.end() &&
            (retired->second.first == vcpu.vm() ||
             retired->second.second == vcpu.vm())) {
            hyper.stats().inc(idempotentRevokesId);
            return 0;
        }
        return hv::hcError;
    }
    CapGrant &g = git->second;

    // Revocation authority: the grant's holder, its issuer, the holder
    // of any ancestor grant (revoking a node tears down its subtree,
    // so an ancestor holder is entitled to reach down), or the
    // export's manager.
    bool authorized =
        g.holder == vcpu.vm() || g.issuer == vcpu.vm();
    for (CapId up = g.parent; !authorized && up != invalidCapId;) {
        auto it = grants.find(up);
        if (it == grants.end())
            break;
        authorized = it->second.holder == vcpu.vm();
        up = it->second.parent;
    }
    if (!authorized) {
        auto exp_it = exports.find(g.exportId);
        authorized = exp_it != exports.end() &&
                     exp_it->second->managerVm() == vcpu.vm();
    }
    if (!authorized)
        return hv::hcError;

    vcpu.clock().advance(hyper.cost().negotiationHopNs);
    teardownGrant(id, CapTeardown::Revoke, &vcpu);
    return 0;
}

} // namespace elisa::core
