#include "memcached/server.hh"

#include "base/logging.hh"

namespace elisa::memcached
{

Server::Server(hv::Hypervisor &hv, hv::Vm &vm, net::NetPath &path,
               std::uint64_t store_buckets)
    : hyper(hv), netPath(path), buckets(store_buckets)
{
    const std::uint64_t bytes =
        pageAlignUp(kvs::ShmKvs::regionBytesFor(store_buckets));
    auto gpa = vm.allocGuestMem(bytes);
    fatal_if(!gpa, "server VM '%s' out of RAM for the store",
             vm.name().c_str());
    storeIo = std::make_unique<net::HostRegionIo>(
        hv.memory(), vm.ramGpaToHpa(*gpa));
    kvs::ShmKvs::format(*storeIo, store_buckets);
}

SimNs
Server::serve(std::uint32_t seq, bool is_set, std::uint64_t key_id,
              SimNs ready)
{
    cpu::Vcpu &cpu = netPath.vcpu();
    const sim::CostModel &cost = hyper.cost();

    // Pick the packet up once both it and the server are free.
    cpu.clock().syncTo(ready);
    const auto [got_seq, got_len] = netPath.guestRx();
    panic_if(got_seq != seq, "server received out-of-order frame");
    (void)got_len;

    // Protocol parse + hash + response build.
    cpu.clock().advance(cost.memcachedCoreNs);

    // The store operation (in-VM memory; core cost only — the lookup
    // is part of memcached's own work, priced like the KVS cores).
    if (is_set) {
        cpu.clock().advance(cost.kvsPutCoreNs);
        const bool ok =
            kvs::ShmKvs::put(*storeIo, buckets, kvs::makeKey(key_id),
                             kvs::makeValue(key_id));
        if (!ok)
            ++missCount; // bucket overflow counted as a miss
    } else {
        cpu.clock().advance(cost.kvsGetCoreNs);
        if (!kvs::ShmKvs::get(*storeIo, buckets, kvs::makeKey(key_id)))
            ++missCount;
    }

    // Transmit the response.
    const std::uint32_t resp_len =
        is_set ? setResponseBytes : getResponseBytes;
    const SimNs handoff = netPath.guestTx(seq, resp_len);
    auto [pkt, tx_ready] = netPath.hostCollectTx(handoff);
    panic_if(pkt.seq != seq, "server response misordered");
    return tx_ready;
}

} // namespace elisa::memcached
