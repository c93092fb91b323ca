/**
 * @file
 * kvs_mix: the paper's KVS figure path. One 1.5 GiB machine (the F1/F2
 * size) with four 16 MiB client VMs per scheme — ivshmem, VMCALL and
 * ELISA — each scheme on its own prepopulated table. Every slice runs
 * all twelve clients, 90/10 GET/PUT over uniform keys, through
 * kvs::runKvsWorkload on one engine. Its steady state is engine steps,
 * gate calls, VMCALL dispatch and GuestView translation over a table
 * larger than the simulated TLB reaches, with PUTs adding writes.
 */

#include <cctype>
#include <optional>

#include "kvs/clients.hh"
#include "kvs/workload.hh"
#include "workload.hh"

namespace perfbench
{

using namespace elisa;

namespace
{

constexpr std::uint64_t physBytes = 3 * GiB / 2;
constexpr std::uint64_t guestRam = 16 * MiB;
constexpr unsigned clientsPerScheme = 4;
constexpr std::uint64_t buckets = 1 << 15;
constexpr std::uint64_t keySpace = 1 << 15;
constexpr std::uint64_t opsPerClient = 2000;

/** Times every GET and PUT of a client as one operation's span. */
class ObservedKvsClient : public kvs::KvsClient
{
  public:
    ObservedKvsClient(kvs::KvsClient &inner, SpanRecorder &rec,
                      const std::string &tag)
        : inner(inner), rec(rec), getName(rec.intern("kvs.get." + tag)),
          putName(rec.intern("kvs.put." + tag))
    {
    }

    const char *scheme() const override { return inner.scheme(); }
    cpu::Vcpu &vcpu() override { return inner.vcpu(); }

    bool
    put(const kvs::Key &key, const kvs::Value &value) override
    {
        rec.newOp();
        SpanScope s(&rec, putName);
        return inner.put(key, value);
    }

    std::optional<kvs::Value>
    get(const kvs::Key &key) override
    {
        rec.newOp();
        SpanScope s(&rec, getName);
        return inner.get(key);
    }

    bool remove(const kvs::Key &key) override { return inner.remove(key); }

    bool
    cas(const kvs::Key &key, const kvs::Value &expected,
        const kvs::Value &desired) override
    {
        return inner.cas(key, expected, desired);
    }

  private:
    kvs::KvsClient &inner;
    SpanRecorder &rec;
    SpanName getName, putName;
};

class KvsMix : public Workload
{
  public:
    KvsMix(std::uint64_t seed, Trace *trace)
        : seed(seed), tr(trace),
          machine(std::make_unique<Bed>(physBytes, trace))
    {
        hv::Hypervisor &hv = machine->hv();
        std::vector<hv::Vm *> vms;
        for (unsigned i = 0; i < 3 * clientsPerScheme; ++i) {
            vms.push_back(&machine->createVm(
                "client" + std::to_string(i), guestRam));
        }

        direct = std::make_unique<kvs::DirectKvsTable>(hv, buckets);
        vmcall = std::make_unique<kvs::VmcallKvsTable>(hv, buckets);
        elisa = std::make_unique<kvs::ElisaKvsTable>(
            hv, machine->manager(), "kv-mix", buckets);
        for (net::HostRegionIo *io :
             {&direct->hostIo(), &vmcall->hostIo(), &elisa->hostIo()}) {
            SpanScope s = span(tr, &Names::prepopulate);
            kvs::prepopulate(*io, keySpace);
        }

        for (unsigned i = 0; i < clientsPerScheme; ++i) {
            owned.push_back(
                std::make_unique<kvs::DirectKvsClient>(*direct, *vms[i]));
        }
        for (unsigned i = 0; i < clientsPerScheme; ++i) {
            owned.push_back(std::make_unique<kvs::VmcallKvsClient>(
                *vmcall, *vms[clientsPerScheme + i]));
        }
        for (unsigned i = 0; i < clientsPerScheme; ++i) {
            guests.push_back(std::make_unique<core::ElisaGuest>(
                *vms[2 * clientsPerScheme + i], machine->svc()));
            owned.push_back(std::make_unique<kvs::ElisaKvsClient>(
                *elisa, machine->manager(), *guests.back()));
        }

        for (auto &client : owned) {
            if (!tr) {
                clients.push_back(client.get());
                continue;
            }
            std::string tag = client->scheme();
            for (char &c : tag)
                c = static_cast<char>(std::tolower(c));
            observed.push_back(
                std::make_unique<ObservedKvsClient>(*client, tr->rec, tag));
            clients.push_back(observed.back().get());
        }
    }

    std::uint64_t
    runSlice(std::uint64_t index) override
    {
        kvs::KvsRunResult r;
        {
            SpanScope s = span(tr, &Names::runKvsWorkload);
            r = kvs::runKvsWorkload(clients, kvs::Mix::Mixed9010, keySpace,
                                    opsPerClient, sliceSeed(seed, index));
        }
        // runKvsWorkload compares every GET with the key's canonical
        // value (corrupt) and counts missing keys and refused PUTs.
        const std::uint64_t want = clients.size() * opsPerClient;
        failed += r.failed + r.corrupt + (r.ops < want ? want - r.ops : 0);
        outcome.add(r.ops);
        outcome.add(r.hits);
        return want;
    }

    Bed &bed() override { return *machine; }

  private:
    std::uint64_t seed;
    Trace *tr;
    std::unique_ptr<Bed> machine;
    std::unique_ptr<kvs::DirectKvsTable> direct;
    std::unique_ptr<kvs::VmcallKvsTable> vmcall;
    std::unique_ptr<kvs::ElisaKvsTable> elisa;
    std::vector<std::unique_ptr<core::ElisaGuest>> guests;
    std::vector<std::unique_ptr<kvs::KvsClient>> owned;
    std::vector<std::unique_ptr<ObservedKvsClient>> observed;
    std::vector<kvs::KvsClient *> clients;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeKvsMix(std::uint64_t seed, Trace *trace)
{
    return std::make_unique<KvsMix>(seed, trace);
}

} // namespace perfbench
