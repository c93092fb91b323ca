/**
 * @file
 * The monitor guest: an ordinary VM that scrapes the machine's
 * telemetry exit-lessly and re-exports it byte-identically.
 *
 * This is the paper's sharing story applied to observability. The
 * manager VM exports the publication region (hv::TelemetryPublisher's
 * seqlock-fronted double buffer) as an ELISA shared object; the
 * monitor attaches like any client and scrapes over the gate — two
 * header reads, a chunked copy through the exchange buffer, one more
 * header read to close the seqlock — with zero VM exits. For
 * comparison the monitor also speaks the two baseline schemes: a
 * VMCALL marshalling service (one exit per scrape) and a direct-mapped
 * ivshmem window (fast, unisolated).
 *
 * Whatever the scheme, the scraped bytes parse into a
 * sim::SnapshotView whose prometheus()/csvRow() renderers are the very
 * functions the host-side Metrics exporters use — so the monitor's
 * re-export equals the host's export byte-for-byte, which
 * `elisa_report --scrape` checks.
 */

#ifndef ELISA_GUEST_MONITOR_HH
#define ELISA_GUEST_MONITOR_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "elisa/guest_api.hh"
#include "elisa/manager.hh"
#include "hv/telemetry_publisher.hh"
#include "sim/telemetry.hh"

namespace elisa::guest
{

/** Shared-function ids of a telemetry-region export. */
enum TelemetryFn : unsigned
{
    /** (offset) -> little-endian u64 at region[offset]. */
    telemetryFnRead64 = 0,

    /** (src_off, len, dst_off) -> copy region bytes into the
     *  attachment's exchange buffer; returns len. */
    telemetryFnCopy = 1,
};

/**
 * Export the publisher's region from @p manager as an ELISA shared
 * object and register its backing memory as a publisher sink. The
 * object is exported read-only: a scraper cannot corrupt the region
 * (contrast the ivshmem mirror, where it can — see the isolation
 * tests).
 *
 * @param slot_bytes per-slot snapshot capacity of the new sink.
 * @return the export descriptor, or nullopt when the manager VM is out
 *         of RAM or the export was refused.
 */
std::optional<core::ElisaManager::Exported>
exportTelemetryRegion(core::ElisaManager &manager,
                      hv::TelemetryPublisher &publisher,
                      const core::ExportKey &key,
                      std::uint32_t slot_bytes);

/**
 * The monitor guest runtime, bound to one vCPU of an ordinary VM.
 * Scrape methods return false when no *complete* snapshot could be
 * obtained (nothing published yet, seqlock retries exhausted, or a
 * parse rejection); the previous snapshot stays current.
 */
class MonitorGuest
{
  public:
    MonitorGuest(hv::Vm &vm, core::ElisaService &service,
                 unsigned vcpu_index = 0);

    /** Attach to a telemetry export (negotiated via @p manager). */
    bool attach(const core::ExportKey &key,
                core::ElisaManager &manager);

    bool attached() const { return gate.valid(); }

    /**
     * Exit-less scrape over the ELISA gate: seqlock check, chunked
     * copy of the active slot through the exchange buffer, re-check;
     * up to @p max_retries full retries when a publication races.
     */
    bool scrape(unsigned max_retries = 8);

    /**
     * Exit-ful baseline: one VMCALL to the publisher's scrape service
     * (hv::TelemetryPublisher::registerScrapeHypercall), which
     * marshals the latest snapshot into this guest's memory.
     */
    bool scrapeVmcall(std::uint64_t scrape_nr);

    /**
     * Direct-mapped baseline: read the region straight out of an
     * ivshmem window attached at @p region_gpa in this VM's default
     * context (same seqlock protocol, plain loads).
     */
    bool scrapeIvshmem(Gpa region_gpa, unsigned max_retries = 8);

    /** The most recent successfully scraped snapshot. */
    const sim::SnapshotView &snapshot() const { return snap; }

    /** True once any scrape succeeded. */
    bool hasSnapshot() const { return snap.ok(); }

    /** Successful scrapes (any scheme). */
    std::uint64_t scrapes() const { return scrapeCount; }

    /** Scrapes that observed a *new* publication seq. */
    std::uint64_t newSnapshots() const { return freshCount; }

    /** Seqlock retries across all scrapes. */
    std::uint64_t retries() const { return retryCount; }

    /** Scrapes that failed (retries exhausted / bad parse / empty). */
    std::uint64_t failures() const { return failCount; }

    /** Re-export the current snapshot in Prometheus text format. */
    std::string prometheus() const { return snap.prometheus(); }

    /**
     * The accumulated CSV document: header plus one row per distinct
     * publication seq scraped, in scrape order — the guest-side mirror
     * of the host's MetricsCsvSampler.
     */
    const std::string &csvDocument() const { return csvDoc; }

  private:
    /** Parse @p bytes; on success fold into snapshot/CSV. */
    bool consume(const std::vector<std::uint8_t> &bytes);

    core::ElisaGuest client;
    core::Gate gate;
    sim::SnapshotView snap;
    std::uint64_t lastSeq = 0;
    std::uint64_t scrapeCount = 0;
    std::uint64_t freshCount = 0;
    std::uint64_t retryCount = 0;
    std::uint64_t failCount = 0;
    std::string csvDoc;
    /** Guest buffer for the VMCALL scheme (lazily allocated). */
    Gpa vmcallBufGpa = 0;
    std::uint64_t vmcallBufBytes = 0;
};

} // namespace elisa::guest

#endif // ELISA_GUEST_MONITOR_HH
