#include "elisa/guest_api.hh"

#include "base/logging.hh"
#include "base/strutil.hh"
#include "hv/hypercall.hh"

namespace elisa::core
{

const char *
attachStatusToString(AttachStatus status)
{
    switch (status) {
      case AttachStatus::Attached:
        return "attached";
      case AttachStatus::Pending:
        return "pending";
      case AttachStatus::Denied:
        return "denied";
      case AttachStatus::TimedOut:
        return "timed_out";
      case AttachStatus::Busy:
        return "busy";
    }
    return "?";
}

Gate &
AttachResult::gate()
{
    panic_if(!ok(), "no gate in a %s AttachResult",
             attachStatusToString(st));
    return g;
}

Gate
AttachResult::take()
{
    panic_if(!ok(), "no gate in a %s AttachResult",
             attachStatusToString(st));
    st = AttachStatus::Busy;
    why = "gate already taken";
    return std::move(g);
}

ElisaGuest::ElisaGuest(hv::Vm &vm, ElisaService &service,
                       unsigned vcpu_index)
    : guestVm(vm), svc(service), vcpuIndex(vcpu_index)
{
    auto scratch = vm.allocGuestMem(pageSize);
    fatal_if(!scratch, "guest VM '%s' out of RAM for scratch page",
             vm.name().c_str());
    scratchGpa = *scratch;
}

cpu::Vcpu &
ElisaGuest::vcpu()
{
    return guestVm.vcpu(vcpuIndex);
}

cpu::GuestView
ElisaGuest::view()
{
    return cpu::GuestView(vcpu());
}

std::optional<RequestId>
ElisaGuest::requestAttach(const ExportKey &key)
{
    busy = false;
    if (!key.valid())
        return std::nullopt;
    const std::string &name = key.name();
    cpu::GuestView v = view();
    v.writeBytes(scratchGpa, name.data(), name.size());

    cpu::HypercallArgs args;
    args.nr = static_cast<std::uint64_t>(ElisaHc::AttachRequest);
    args.arg0 = scratchGpa;
    args.arg1 = name.size();
    args.arg2 = vcpuIndex;
    const std::uint64_t rc = vcpu().vmcall(args);
    if (rc == hv::hcBusy) {
        busy = true;
        return std::nullopt;
    }
    if (rc == hv::hcError)
        return std::nullopt;
    return static_cast<RequestId>(rc);
}

AttachResult
ElisaGuest::pollAttach(RequestId request)
{
    cpu::HypercallArgs args;
    args.nr = static_cast<std::uint64_t>(ElisaHc::Query);
    args.arg0 = request;
    args.arg1 = scratchGpa;
    const std::uint64_t state = vcpu().vmcall(args);
    if (state == hv::hcError) {
        // The request vanished host-side: reaped with a dead manager,
        // dropped by fault injection, or never ours. Transient from
        // the client's point of view — issue a fresh request.
        return AttachResult(
            AttachStatus::Busy,
            detail::format("request %u unknown host-side (lost or "
                           "reaped); re-request",
                           request));
    }

    switch (static_cast<RequestState>(state)) {
      case RequestState::Pending:
        return AttachResult(AttachStatus::Pending,
                            "request still queued for the manager",
                            request);
      case RequestState::Denied:
        return AttachResult(AttachStatus::Denied,
                            "manager or host policy denied the attach",
                            request);
      case RequestState::TimedOut:
        return AttachResult(
            AttachStatus::TimedOut,
            "request sat pending past the negotiation timeout",
            request);
      case RequestState::Approved:
        break;
    }

    const auto wire = view().read<WireAttachResult>(scratchGpa);
    return AttachResult(Gate(vcpu(), svc, wire.info),
                        Capability(vcpu(), wire.info), request);
}

AttachResult
ElisaGuest::tryAttach(const ExportKey &key, ElisaManager &manager)
{
    auto request = requestAttach(key);
    if (!request) {
        return busy ? AttachResult(AttachStatus::Busy,
                                   "manager request queue full")
                    : AttachResult(AttachStatus::Denied,
                                   "attach request refused (unknown "
                                   "export '" + key.name() + "')");
    }
    manager.pollRequests();
    return pollAttach(*request);
}

AttachResult
ElisaGuest::redeem(CapId grant)
{
    if (grant == invalidCapId) {
        return AttachResult(AttachStatus::Denied,
                            "invalid capability handle");
    }
    cpu::HypercallArgs args;
    args.nr = static_cast<std::uint64_t>(ElisaHc::Redeem);
    args.arg0 = grant;
    args.arg1 = scratchGpa;
    args.arg2 = vcpuIndex;
    const std::uint64_t rc = vcpu().vmcall(args);
    if (rc != 0) {
        return AttachResult(
            AttachStatus::Denied,
            detail::format("capability %llu refused (revoked, "
                           "expired, or not held by this VM)",
                           (unsigned long long)grant));
    }
    const auto wire = view().read<WireAttachResult>(scratchGpa);
    return AttachResult(Gate(vcpu(), svc, wire.info),
                        Capability(vcpu(), wire.info));
}

AttachResult
ElisaGuest::attachWithRetry(const ExportKey &key,
                            const std::function<void()> &pump,
                            unsigned max_tries, SimNs backoff_ns)
{
    // Request ids start at 1, so 0 marks "none in flight".
    RequestId request = 0;
    AttachResult last(AttachStatus::Busy, "no attach attempt made");
    SimNs backoff = backoff_ns;
    const SimNs backoff_cap = backoff_ns << 10;
    for (unsigned attempt = 0; attempt < max_tries; ++attempt) {
        if (attempt > 0) {
            // Simulated-time wait before this retry; the rest of the
            // world (the manager, other guests) makes progress.
            vcpu().clock().advance(backoff);
            if (backoff < backoff_cap)
                backoff *= 2;
            if (pump)
                pump();
            vcpu().stats().inc("elisa_attach_retries");
            if (sim::Tracer *tr = vcpu().tracer()) {
                // Link the retry into the request's async span when
                // one is in flight; otherwise a plain instant.
                if (request != 0) {
                    tr->asyncInstant(sim::SpanCat::Negotiation,
                                     sim::TraceName::AttachRetry,
                                     request, vcpu().id(),
                                     vcpu().clock().now(), attempt);
                } else {
                    tr->instant(sim::SpanCat::Negotiation,
                                sim::TraceName::AttachRetry, vcpu().id(),
                                vcpu().clock().now(), attempt);
                }
            }
        }

        if (request == 0) {
            request = requestAttach(key).value_or(0);
            // Busy (queue full), a dropped hypercall, and a not-yet-
            // registered export are all transient under fault
            // injection: back off and retry until the budget runs out.
            if (request == 0) {
                last = AttachResult(
                    AttachStatus::Busy,
                    busy ? "manager request queue full"
                         : "attach request refused (unknown export "
                           "or dropped hypercall)");
                continue;
            }
        }

        last = pollAttach(request);
        if (last.ok())
            return last;
        if (last.status() == AttachStatus::Denied ||
            last.status() == AttachStatus::TimedOut) {
            return last;
        }
        // Busy here means the request vanished host-side (its manager
        // died and the denial was already consumed, or the request was
        // dropped); issue a fresh request next attempt. Pending keeps
        // querying the same id.
        if (last.status() == AttachStatus::Busy)
            request = 0;
    }
    return last;
}

bool
ElisaGuest::detach(Gate &gate)
{
    return gate.detach();
}

} // namespace elisa::core
