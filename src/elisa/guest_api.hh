/**
 * @file
 * ElisaGuest: the client-side runtime of an ordinary guest VM.
 *
 * Wraps the negotiation hypercalls (request / query / detach / redeem)
 * and hands out Gate objects for the exit-less data path.
 *
 * The attach surface is capability-first: exports are addressed with a
 * value-typed ExportKey, every successful attach carries the
 * Capability backing it (delegable peer-to-peer, see
 * elisa/capability.hh), and a received capability is turned into a
 * Gate with redeem(). Raw-string addressing is in its one deprecation
 * release. The pre-AttachResult surface (attach()/completeAttach()
 * plus stateful lastDenied()-style flags) went through its release and
 * is gone.
 */

#ifndef ELISA_ELISA_GUEST_API_HH
#define ELISA_ELISA_GUEST_API_HH

#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "elisa/capability.hh"
#include "elisa/gate.hh"
#include "elisa/manager.hh"
#include "hv/vm.hh"

namespace elisa::core
{

/** Outcome of one attach-negotiation step (see AttachResult). */
enum class AttachStatus : std::uint8_t
{
    Attached, ///< negotiation complete; the result carries the Gate
    Pending,  ///< still queued for the manager; poll again
    Denied,   ///< the manager (or host policy) refused; terminal
    TimedOut, ///< sat Pending past the negotiation timeout; terminal
    Busy,     ///< transient refusal (full queue, lost reply); retry
};

/** Render a status (logs / test failure messages). */
const char *attachStatusToString(AttachStatus status);

/**
 * Value-typed result of an attach step. Everything about one attempt
 * travels in the value: the status, a human-readable reason on
 * failure, the request id while one is in flight, and the Gate on
 * success. Move-only, because the Gate it may carry is.
 */
class AttachResult
{
  public:
    /** A failed or not-yet-complete result. */
    AttachResult(AttachStatus status, std::string reason,
                 std::optional<RequestId> request = std::nullopt)
        : st(status), why(std::move(reason)), rid(request)
    {
    }

    /** A successful attachment (negotiated or redeemed). */
    AttachResult(Gate gate, Capability capability,
                 std::optional<RequestId> request = std::nullopt)
        : st(AttachStatus::Attached), g(std::move(gate)),
          cap(std::move(capability)), rid(request)
    {
    }

    AttachStatus status() const { return st; }

    /** True when the negotiation completed and gate() is usable. */
    bool ok() const { return st == AttachStatus::Attached; }

    explicit operator bool() const { return ok(); }

    /** Why the attempt failed (empty on success). */
    const std::string &reason() const { return why; }

    /** The request id, when one was created (Pending and Attached). */
    std::optional<RequestId> request() const { return rid; }

    /** The attached gate, in place (panics unless ok()). */
    Gate &gate();

    /** Move the gate out of the result (panics unless ok()). */
    Gate take();

    /**
     * The capability backing the attachment (invalid unless ok()).
     * Copyable: hold on to it to delegate narrowed views of the
     * attachment to peer VMs or to revoke the whole grant subtree —
     * the Gate's RAII detach covers only the plain teardown.
     */
    const Capability &capability() const { return cap; }

    /**
     * Collapse into an optional<Gate> (status and reason dropped) —
     * for call sites that only care about success.
     */
    std::optional<Gate>
    intoOptional() &&
    {
        if (!ok())
            return std::nullopt;
        return std::move(g);
    }

  private:
    AttachStatus st;
    std::string why;
    Gate g;
    Capability cap;
    std::optional<RequestId> rid;
};

/**
 * Client runtime bound to one vCPU of a guest VM.
 */
class ElisaGuest
{
  public:
    /**
     * @param vm the guest VM.
     * @param service the host-side ELISA service.
     * @param vcpu_index which vCPU performs attachments and calls.
     */
    ElisaGuest(hv::Vm &vm, ElisaService &service,
               unsigned vcpu_index = 0);

    /**
     * Start an attach negotiation for the export @p key names.
     * @return the request id, or nullopt when the export is unknown
     *         or the manager's queue refused the request.
     */
    std::optional<RequestId> requestAttach(const ExportKey &key);

    /**
     * Query an in-flight request once (one Query hypercall).
     * @return Attached (with the Gate), Pending (poll again with the
     *         same id), Denied/TimedOut (terminal), or Busy when the
     *         request vanished host-side (lost or reaped) — issue a
     *         fresh requestAttach.
     */
    AttachResult pollAttach(RequestId request);

    /**
     * Convenience for tests/benches: request + have the manager drain
     * its queue + poll, in one call.
     */
    AttachResult tryAttach(const ExportKey &key, ElisaManager &manager);

    /**
     * Robust attach: bounded retry with exponential backoff (simulated
     * time) around requestAttach + pollAttach. Retries while the
     * manager queue is Busy or the request stays Pending; gives up
     * after @p max_tries or on a definitive Denied/TimedOut. The
     * returned result is the last attempt's outcome.
     *
     * @param pump invoked between retries — the "rest of the world
     *        makes progress while we wait" hook (tests pass the
     *        manager's pollRequests; production callers that share a
     *        thread with nothing leave it empty).
     * @param max_tries total Query/request attempts before giving up.
     * @param backoff_ns first backoff; doubles per retry, capped at
     *        1024x.
     */
    AttachResult attachWithRetry(const ExportKey &key,
                                 const std::function<void()> &pump = {},
                                 unsigned max_tries = 8,
                                 SimNs backoff_ns = 2000);

    /**
     * Redeem a capability this VM holds into an attachment on this
     * vCPU (one Redeem hypercall; the exit-less data path of the
     * resulting Gate is identical to a negotiated attach). The grant
     * id is all that crosses VMs — a peer that received a delegated
     * Capability passes it (or just its id) here.
     * @return Attached with the Gate and a Capability bound to *this*
     *         vCPU, or Denied when the grant is unknown, not ours,
     *         revoked, or expired.
     */
    AttachResult redeem(CapId grant);

    /** Redeem a received Capability handle (uses only its id). */
    AttachResult
    redeem(const Capability &capability)
    {
        return redeem(capability.id());
    }

    /** Detach (slow path); delegates to Gate::detach(). */
    bool detach(Gate &gate);

    /** The client's vCPU. */
    cpu::Vcpu &vcpu();

    /** A view of the guest's memory under its default context. */
    cpu::GuestView view();

    /** The underlying VM. */
    hv::Vm &vm() { return guestVm; }

  private:
    hv::Vm &guestVm;
    ElisaService &svc;
    unsigned vcpuIndex;
    Gpa scratchGpa = 0;
    // Whether the last requestAttach was refused with hcBusy (full
    // manager queue) rather than an outright error; tryAttach and
    // attachWithRetry map the nullopt to the right AttachStatus.
    bool busy = false;
};

} // namespace elisa::core

#endif // ELISA_ELISA_GUEST_API_HH
