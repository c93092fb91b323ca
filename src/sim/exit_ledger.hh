/**
 * @file
 * Per-{vm, vcpu, cost-kind, code} simulated-cycle ledger.
 *
 * The ELISA paper's headline numbers are *accounting* claims: VM exits
 * cost vmcall-path networking ~49 % of its direct-mapped throughput,
 * and one gate round-trip spends ~196 ns across four EPTP switches and
 * two gate-code legs vs VMCALL's 699 ns exit/dispatch/entry. The
 * ExitLedger turns those decompositions into single API calls: every
 * simulated nanosecond a vCPU spends on a world switch is charged to a
 * dense slot keyed by (vm, vcpu, kind, code), where code is the
 * ExitReason, hypercall number, or gate-leg index depending on kind.
 *
 * Cost discipline (mirrors sim::Tracer / sim::FaultPlan): subsystems
 * hold a nullable ExitLedger pointer; an absent ledger costs one
 * pointer test per charge point. Slot resolution is the only
 * map-keyed operation; the gate caches its leg slots per ledger
 * (guarded by serial()), so its enabled hot path is two array
 * additions.
 *
 * Layering: like Tracer, this file knows nothing about vCPUs or the
 * hypervisor — callers pass plain ids; pretty names for codes are
 * registered separately (setCodeName) and only used by report().
 */

#ifndef ELISA_SIM_EXIT_LEDGER_HH
#define ELISA_SIM_EXIT_LEDGER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/types.hh"
#include "sim/histogram.hh"

namespace elisa::sim
{

/** What family of world-switch cost a charge belongs to. */
enum class CostKind : std::uint8_t
{
    Exit,      ///< faulting VM exit (code = cpu::ExitReason)
    Hypercall, ///< synchronous VMCALL (code = hypercall number)
    GateLeg,   ///< one leg of an ELISA gate call (code = leg index)
    Page,      ///< demand-paging work (code = PageCost value)
};

/** Number of CostKind values (per-kind totals tables). */
inline constexpr unsigned costKindCount = 4;

/** Codes of CostKind::Page rows. */
enum class PageCost : std::uint32_t
{
    PageIn = 0,   ///< fault handler + swap-device read
    PageOut = 1,  ///< eviction: swap-device write of a victim page
    ZeroFill = 2, ///< fault handler + zero-fill of a demand-zero page
};

/** Render a cost kind. */
const char *costKindToString(CostKind kind);

/** Dense handle of one (vm, vcpu, kind, code) ledger row. */
using LedgerSlot = std::uint32_t;

/**
 * The ledger. Rows are created on first slot() resolution and live for
 * the ledger's lifetime; charge()/observe() are array operations.
 */
class ExitLedger
{
  public:
    ExitLedger();

    /**
     * Resolve (or create) the row for (@p vm, @p vcpu, @p kind,
     * @p code). Map-keyed — hot sites cache the result instead of
     * calling per event.
     */
    LedgerSlot slot(std::uint32_t vm, std::uint32_t vcpu, CostKind kind,
                    std::uint32_t code);

    // ---- hot path (callers null-check the ExitLedger*) -------------
    /** Charge one event of @p ns simulated time to @p slot. */
    void
    charge(LedgerSlot slot, SimNs ns)
    {
        Row &row = rowTable[slot];
        row.events += 1;
        row.ns += ns;
    }

    /** Charge @p events identical events of @p ns each. */
    void
    chargeN(LedgerSlot slot, SimNs ns, std::uint64_t events)
    {
        Row &row = rowTable[slot];
        row.events += events;
        row.ns += ns * events;
    }

    /**
     * Charge one event and record @p ns into the row's duration
     * histogram (gate legs use this; the histogram backs the
     * 196 ns-round-trip report).
     */
    void
    observe(LedgerSlot slot, SimNs ns)
    {
        Row &row = rowTable[slot];
        row.events += 1;
        row.ns += ns;
        row.durations.record(ns);
    }

    /**
     * Process-unique id of this ledger instance; the gate's leg-slot
     * cache keys on it instead of the object address (see
     * Tracer::serial).
     */
    std::uint64_t serial() const { return serialNum; }

    /**
     * Register a pretty name for (@p kind, @p code), used by report();
     * unnamed codes render numerically. Idempotent (last wins).
     */
    void setCodeName(CostKind kind, std::uint32_t code,
                     std::string name);

    // ---- queries ----------------------------------------------------
    /** One materialized row (tests / reports). */
    struct Row
    {
        std::uint32_t vm = 0;
        std::uint32_t vcpu = 0;
        CostKind kind = CostKind::Exit;
        std::uint32_t code = 0;
        std::uint64_t events = 0;
        SimNs ns = 0;
        Histogram durations{6, 1ull << 32};
    };

    /** All rows, in slot order (creation order). */
    const std::vector<Row> &rows() const { return rowTable; }

    /** Total ns charged across every row. */
    SimNs totalNs() const;

    /** Total ns charged to rows of @p kind. */
    SimNs kindNs(CostKind kind) const;

    /** Total ns charged to rows of VM @p vm. */
    SimNs vmNs(std::uint32_t vm) const;

    /** Total events charged across every row. */
    std::uint64_t totalEvents() const;

    /** The registered name of (@p kind, @p code), or "" when unset. */
    const std::string &codeName(CostKind kind,
                                std::uint32_t code) const;

    /**
     * Printable per-row cost table: rows sorted by
     * (vm, vcpu, kind, code) with events, ns and share of the ledger
     * total (integer permille math — byte-deterministic), followed by
     * per-kind totals. Gate-leg rows append their duration summary.
     */
    std::string report() const;

    /** Forget all charges; rows, slots and code names are kept. */
    void clear();

  private:
    /** Pack a row identity into the interning key. */
    static std::uint64_t key(std::uint32_t vm, std::uint32_t vcpu,
                             CostKind kind, std::uint32_t code);

    std::uint64_t serialNum;
    std::map<std::uint64_t, LedgerSlot> index;
    std::vector<Row> rowTable;
    std::map<std::uint64_t, std::string> codeNames;
};

} // namespace elisa::sim

#endif // ELISA_SIM_EXIT_LEDGER_HH
