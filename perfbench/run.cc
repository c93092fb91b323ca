#include "run.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

namespace perfbench
{

namespace
{

const char *const schemes[] = {"elisa", "vmcall", "ivshmem"};
const char *const packetSizes[] = {"64", "1472"};

std::vector<MetricSpec>
buildPerLayer()
{
    std::vector<MetricSpec> m = {
        {"traced.ops_per_s", "ops/s"},
        {"ops_measured", "count"},
        {"sim.engine_self_ns", "ns"},
        {"elisa.gate_call_ns.p50", "ns"},
        {"elisa.gate_call_ns.p99", "ns"},
        {"elisa.gate_call_ns.n", "count"},
        {"elisa.attach_us.p50", "us"},
        {"elisa.attach_us.p99", "us"},
        {"elisa.attach_us.n", "count"},
        {"elisa.detach_us.p50", "us"},
        {"elisa.detach_us.n", "count"},
        {"elisa.export_us", "us"},
        {"elisa.export_us.n", "count"},
        {"hv.machine_build_s", "s"},
        {"hv.create_vm_us.p50", "us"},
        {"hv.create_vm_us.p99", "us"},
        {"hv.create_vm_us.n", "count"},
        {"hv.destroy_vm_us.p50", "us"},
        {"hv.destroy_vm_us.p99", "us"},
        {"hv.destroy_vm_us.n", "count"},
        {"hv.hypercalls_per_op", "count/op"},
        {"hv.pager_faults_per_op", "count/op"},
        {"hv.swap_ins_per_op", "count/op"},
        {"hv.swap_outs_per_op", "count/op"},
        {"hv.fault_touch_ns.p50", "ns"},
        {"hv.fault_touch_ns.p99", "ns"},
        {"hv.fault_touch_ns.n", "count"},
        {"hv.hit_touch_ns.p50", "ns"},
        {"hv.hit_touch_ns.n", "count"},
        {"cpu.l0_hit_ratio", "ratio"},
        {"cpu.translations", "count"},
        {"cpu.vmfuncs_per_op", "count/op"},
        {"cpu.vmcalls_per_op", "count/op"},
        {"ept.tlb_miss_ratio", "ratio"},
        {"ept.tlb_lookups", "count"},
        {"ept.walks_per_op", "count/op"},
    };
    for (const char *op : {"get", "put"}) {
        for (const char *scheme : schemes) {
            const std::string base =
                std::string("kvs.") + op + "_ns." + scheme;
            m.push_back({base + ".p50", "ns"});
            m.push_back({base + ".p99", "ns"});
            m.push_back({base + ".n", "count"});
        }
    }
    m.push_back({"kvs.prepopulate_s", "s"});
    for (const char *dir : {"tx", "rx"}) {
        for (const char *scheme : schemes) {
            for (const char *size : packetSizes) {
                const std::string base = std::string("net.") + dir +
                                         "_ns." + scheme + "." + size;
                m.push_back({base + ".p50", "ns"});
                m.push_back({base + ".n", "count"});
            }
        }
    }
    return m;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

/** Per-layer values of a traced run, keyed by catalogue name. */
std::vector<Metric>
layerValues(Trace &tr, Workload &wl, const Counters &d, std::uint64_t ops,
            double traced_rate)
{
    std::vector<Metric> out;
    const auto put = [&out](const std::string &name, double value,
                            const char *unit) {
        out.push_back({name, value, unit});
    };
    const auto stats = [&tr](const std::string &span_name)
        -> const NameStats & { return tr.stats.of(tr.rec.intern(span_name)); };
    // p50 (and p99) of a histogram of ns divided by @p scale, plus its
    // sample count.
    const auto pct = [&](const std::string &metric,
                         const elisa::sim::Histogram &h, double scale,
                         const char *unit, bool p99) {
        put(metric + ".p50", static_cast<double>(h.p50()) / scale, unit);
        if (p99)
            put(metric + ".p99", static_cast<double>(h.p99()) / scale, unit);
        put(metric + ".n", static_cast<double>(h.count()), "count");
    };

    put("traced.ops_per_s", traced_rate, "ops/s");
    put("ops_measured", static_cast<double>(ops), "count");

    const NameStats &engine = stats("kvs.runKvsWorkload");
    put("sim.engine_self_ns",
        engine.children == 0 ? 0.0
                             : static_cast<double>(engine.selfNs) /
                                   static_cast<double>(engine.children),
        "ns");

    pct("elisa.gate_call_ns", stats("elisa.Gate.call").ns, 1, "ns", true);
    pct("elisa.attach_us", stats("elisa.tryAttach").ns, 1e3, "us", true);
    pct("elisa.detach_us", stats("elisa.Gate.detach").ns, 1e3, "us",
        false);
    const elisa::sim::Histogram &exports = stats("elisa.exportObject").ns;
    put("elisa.export_us", static_cast<double>(exports.p50()) / 1e3, "us");
    put("elisa.export_us.n", static_cast<double>(exports.count()), "count");

    put("hv.machine_build_s",
        static_cast<double>(stats("hv.Hypervisor").ns.sum()) / 1e9, "s");
    pct("hv.create_vm_us", stats("hv.createVm").ns, 1e3, "us", true);
    pct("hv.destroy_vm_us", stats("hv.destroyVm").ns, 1e3, "us", true);
    put("hv.hypercalls_per_op", ratio(d.hypercalls, ops), "count/op");
    put("hv.pager_faults_per_op", ratio(d.pagerFaults, ops), "count/op");
    put("hv.swap_ins_per_op", ratio(d.swapIns, ops), "count/op");
    put("hv.swap_outs_per_op", ratio(d.swapOuts, ops), "count/op");

    const std::uint64_t lookups = d.tlbHit + d.tlbMiss;
    const std::uint64_t translations = d.l0Hit + lookups;
    put("cpu.l0_hit_ratio", ratio(d.l0Hit, translations), "ratio");
    put("cpu.translations", static_cast<double>(translations), "count");
    put("cpu.vmfuncs_per_op", ratio(d.vmfunc, ops), "count/op");
    put("cpu.vmcalls_per_op", ratio(d.vmcall, ops), "count/op");
    put("ept.tlb_miss_ratio", ratio(d.tlbMiss, lookups), "ratio");
    put("ept.tlb_lookups", static_cast<double>(lookups), "count");
    put("ept.walks_per_op", ratio(d.eptWalk, ops), "count/op");

    for (const char *op : {"get", "put"}) {
        for (const char *scheme : schemes) {
            pct(std::string("kvs.") + op + "_ns." + scheme,
                stats(std::string("kvs.") + op + "." + scheme).ns, 1, "ns",
                true);
        }
    }
    put("kvs.prepopulate_s",
        static_cast<double>(stats("kvs.prepopulate").ns.sum()) / 1e9, "s");
    for (const char *dir : {"tx", "rx"}) {
        for (const char *scheme : schemes) {
            for (const char *size : packetSizes) {
                const std::string name = std::string("net.") + dir +
                                         "_ns." + scheme + "." + size;
                pct(name, tr.stats.groupOf(tr.rec.intern(name)), 1, "ns",
                    false);
            }
        }
    }
    wl.layerMetrics(out);
    return out;
}

/** Append @p batch to the CSV span dump, up to @p cap spans in all. */
void
appendDump(std::string &dump, std::size_t &dumped, std::size_t cap,
           const SpanRecorder &rec, const std::vector<Span> &batch)
{
    if (dumped >= cap || batch.empty())
        return;
    if (dump.empty())
        dump = "index,name,start_ns,end_ns,parent,op,self_ns\n";
    const std::vector<std::int64_t> self = selfTimes(batch);
    const std::size_t base = dumped;
    for (std::size_t i = 0; i < batch.size() && dumped < cap; ++i) {
        const Span &s = batch[i];
        const long long parent =
            s.parent == noParent ? -1
                                 : static_cast<long long>(base + s.parent);
        char line[256];
        std::snprintf(line, sizeof line, "%zu,%s,%lld,%lld,%lld,%llu,%lld\n",
                      dumped, rec.nameOf(s.name).c_str(),
                      static_cast<long long>(s.startNs),
                      static_cast<long long>(s.endNs), parent,
                      static_cast<unsigned long long>(s.op),
                      static_cast<long long>(self[i]));
        dump += line;
        ++dumped;
    }
}

} // anonymous namespace

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> m = {
        {"ops_per_s", "ops/s"},
        {"setup_s", "s"},
        {"max_rss_mib", "MiB"},
        {"minor_faults", "count"},
    };
    return m;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> m = buildPerLayer();
    return m;
}

RunResult
run(const RunOptions &o)
{
    RunResult res;
    std::unique_ptr<Trace> trace =
        o.trace ? std::make_unique<Trace>() : nullptr;
    Trace *tr = trace.get();
    std::size_t dumped = 0;
    const auto fold = [&] {
        if (!tr)
            return;
        const std::vector<Span> batch = tr->rec.take();
        appendDump(res.spanDump, dumped, o.dumpSpans, tr->rec, batch);
        tr->stats.fold(batch);
    };

    std::unique_ptr<Workload> wl = o.spec->make(o.seed, tr);
    std::uint64_t attempted = 0;
    for (unsigned w = 0; w < o.spec->warmupSlices; ++w)
        attempted += wl->runSlice(w);
    res.setupSeconds = static_cast<double>(hostNowNs() - o.startNs) / 1e9;
    if (o.setupOnly)
        return res;
    fold();

    const Counters before = wl->bed().counters();
    std::uint64_t measured = 0;
    for (std::uint64_t i = 0; i < o.slices; ++i) {
        const std::int64_t t0 = hostNowNs();
        const std::uint64_t ops = wl->runSlice(o.spec->warmupSlices + i);
        const std::int64_t t1 = hostNowNs();
        res.sliceOps.push_back(ops);
        res.sliceNs.push_back(t1 - t0);
        measured += ops;
        fold();
    }
    const Counters after = wl->bed().counters();
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);

    Digest d;
    for (const char *c = o.spec->name; *c; ++c)
        d.add(static_cast<unsigned char>(*c));
    d.add(o.seed);
    d.add(o.slices);
    wl->bed().digest(d);
    for (std::uint64_t field : after.fields())
        d.add(field);
    wl->digest(d);
    res.digest = d.value();
    res.attempted = attempted + measured;
    res.failed = wl->failed;

    const double rate = sliceRate(res.sliceOps, res.sliceNs);
    if (tr) {
        // Catalogue order; a layer this workload never calls reads 0.
        const std::vector<Metric> values =
            layerValues(*tr, *wl, after - before, measured, rate);
        for (const MetricSpec &spec : perLayerMetrics())
            res.metrics.push_back({spec.name, 0.0, spec.unit});
        for (const Metric &value : values) {
            auto it = std::find_if(
                res.metrics.begin(), res.metrics.end(),
                [&](const Metric &m) { return m.name == value.name; });
            if (it == res.metrics.end() || it->unit != value.unit)
                throw std::logic_error("uncatalogued metric " + value.name);
            it->value = value.value;
        }
    } else {
        res.metrics = {
            {"ops_per_s", rate, "ops/s"},
            {"setup_s", res.setupSeconds, "s"},
            {"max_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0,
             "MiB"},
            {"minor_faults", static_cast<double>(usage.ru_minflt), "count"},
        };
    }
    return res;
}

} // namespace perfbench
